import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    EngineError,
    LayeredNetwork,
    Link,
    PacketSinkError,
    QueueProportionalPolicy,
    QueueState,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    ValidationError,
    effective_rates,
    full_connection,
    run,
    single_sink,
    step,
)
from fluidq.discrete import tagged_run
from fluidq.engine import effective_flow
from fluidq.policies import StaticPolicy

from conftest import single_sink_rates
from test_layer_plan import _Alternating, _mixed_net, _random_fan_in_tree


def test_step_growth_at_backlogged_source():
    # arrivals 8, single egress at rate 4: backlog grows at 4 per unit
    net = single_sink(1, 4.0)
    arr, svc = ArrivalProfile([8.0]), ServiceProfile([4.0])
    rates = RateAssignment(net, [4.0])
    state = QueueState(np.zeros(2), 0.0)
    out = step(state, rates, net, arr, svc, 0.5)
    assert out.q[0] == pytest.approx(2.0)
    assert out.t == 0.5


def test_step_node_with_no_inflow_stays_empty():
    net = full_connection([1, 2, 1])
    arr, svc = ArrivalProfile([3.0]), ServiceProfile([1.0])
    # all traffic routed through middle node 1; node 2 is idle
    rates = RateAssignment.from_dict(net, {(0, 0, 0): 3.0, (1, 0, 0): 3.0, (1, 1, 0): 1.0})
    state = QueueState(np.zeros(4), 0.0)
    for _ in range(5):
        state = step(state, rates, net, arr, svc, 0.1)
    assert state.q[2] == 0.0


def test_step_backlogged_egress_grows_by_inflow_minus_service():
    # inflow 3, service 2, positive backlog: net growth 1 per unit
    net = single_sink(1, 10.0)
    arr, svc = ArrivalProfile([3.0]), ServiceProfile([2.0])
    rates = RateAssignment(net, [3.0])
    state = QueueState(np.array([5.0, 4.0]), 0.0)
    out = step(state, rates, net, arr, svc, 1.0)
    assert out.q[1] == pytest.approx(5.0)


def test_step_rejects_bad_rates(two_source_instance):
    net, arr, svc, rates = two_source_instance
    state = QueueState(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        step(state, rates, net, arr, svc, -0.1)
    with pytest.raises(EngineError, match=r"on link 1:1:1$"):
        step(state, RateAssignment(net, [4.5, 0.0]), net, arr, svc, 0.1)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0])
def test_step_rejects_a_dt_that_is_not_finite_and_positive(two_source_instance, dt):
    # a NaN dt used to pass ``dt <= 0`` and fail later on the NaN backlogs
    net, arr, svc, rates = two_source_instance
    state = QueueState(np.ones(3), 0.0)
    with pytest.raises(ValueError, match=rf"^dt must be finite and positive, got {dt}$"):
        step(state, rates, net, arr, svc, dt)


@pytest.mark.parametrize("lam, message", [
    # an extra arrival rate used to land on an egress node: q = [1, 1, 6, 1]
    ((3.0, 3.0, 5.0),
     "^dimension mismatch: lambda has 3 entries but the ingress layer has 2 nodes$"),
    # a negative one used to drain its node: q = [1, 0, 0, 0]
    ((3.0, -3.0), r"^nonpositive rate: lambda\[2\] = -3.0$"),
])
def test_step_validates_the_instance(lam, message):
    net = full_connection([2, 2], 10.0)
    rates = RateAssignment(net, np.ones(4))
    state = QueueState(np.zeros(4), 0.0)
    with pytest.raises(ValidationError, match=message):
        step(state, rates, net, ArrivalProfile(lam), ServiceProfile([1.0, 1.0]), 1.0)


@pytest.mark.parametrize("size", [5, 3])
def test_step_rejects_a_backlog_of_another_length(size):
    # 5 entries used to end in a numpy broadcast error, 3 in an IndexError
    net = full_connection([2, 2], 10.0)
    rates = RateAssignment(net, np.ones(4))
    arr, svc = ArrivalProfile([3.0, 3.0]), ServiceProfile([1.0, 1.0])
    with pytest.raises(ValueError, match=f"^backlog has {size} entries, network has 4 nodes$"):
        step(QueueState(np.zeros(size), 0.0), rates, net, arr, svc, 1.0)


class _ForeignPolicy:
    """A dynamic policy that returns an assignment built on another
    network."""

    def __init__(self, assignment):
        self.assignment = assignment

    def rates(self, state, net, arr, svc, dt):
        return self.assignment


@pytest.mark.parametrize("dynamic", [False, True])
@pytest.mark.parametrize("mode", ["fluid", "integer", "tagged"])
def test_runs_reject_an_assignment_of_another_network(mode, dynamic):
    # within the other network's capacities, but four times over the run's
    net = full_connection((2, 2), 1.0)
    foreign = RateAssignment(full_connection((2, 2), 10.0), [5.0] * 4)
    policy = _ForeignPolicy(foreign) if dynamic else foreign
    arr, svc = ArrivalProfile([3.0, 3.0]), ServiceProfile([2.0, 2.0])
    cfg = SimConfig(horizon=5.0, dt=1.0, discretize=mode != "fluid")
    simulate = tagged_run if mode == "tagged" else run
    with pytest.raises(EngineError, match="^rate assignment belongs to a different network$"):
        simulate(net, arr, svc, policy, cfg)


def test_run_growth_rates_match_flow_conservation(two_source_instance):
    net, arr, svc, rates = two_source_instance
    traj = run(net, arr, svc, rates, SimConfig(horizon=10.0, dt=0.01))
    assert traj.queues.shape == (1001, 3)
    assert np.allclose(traj.final.q / 10.0, [6.0, 2.25, 0.75])


def test_run_underloaded_keeps_queues_at_zero():
    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([2.0, 3.0]), ServiceProfile([4.0, 4.0])
    rates = RateAssignment.from_dict(
        net, {(0, 0, 0): 1.0, (0, 0, 1): 1.0, (0, 1, 0): 1.5, (0, 1, 1): 1.5}
    )
    traj = run(net, arr, svc, rates, SimConfig(horizon=5.0, dt=0.05))
    assert np.max(traj.queues) == 0.0


def test_run_half_rate_split_grows_each_source_at_half_lambda():
    lam = np.array([4.0, 8.0, 6.0])
    net = single_sink(3)
    arr, svc = ArrivalProfile(lam), ServiceProfile([9.0])
    traj = run(net, arr, svc, single_sink_rates(net, lam / 2), SimConfig(horizon=8.0, dt=0.01))
    assert np.allclose(traj.final.q[:3] / 8.0, lam / 2)


def test_run_nonnegative_and_mass_conserving(two_source_instance):
    net, arr, svc, rates = two_source_instance
    q0 = np.array([9.0, 0.0, 2.0])
    cfg = SimConfig(horizon=7.0, dt=0.01, q0=q0)
    traj = run(net, arr, svc, rates, cfg)
    assert np.min(traj.queues) >= 0.0
    injected = arr.total * traj.num_steps * traj.dt
    balance = injected + q0.sum() - traj.served.sum() - traj.final.q.sum()
    assert abs(balance) <= 1e-9 * max(1.0, injected)


def test_static_rates_are_integrated_exactly_across_drain_events():
    """A static run's rows are read off the exact segments, so they are exact
    even when queues drain between two rows: halving dt changes nothing
    beyond float noise.  (The stepped engine's within-step clamp meets the
    same states: see the drain-event battery below.)"""
    net = full_connection([2, 2])
    arr = ArrivalProfile([1.0, 2.0])
    svc = ServiceProfile([2.0, 3.0])
    rates = RateAssignment.from_dict(
        net, {(0, 0, 0): 1.7, (0, 0, 1): 1.3, (0, 1, 0): 0.4, (0, 1, 1): 0.9}
    )
    q0 = np.array([1.37, 0.0, 0.91, 0.23])

    def terminal(dt):
        cfg = SimConfig(horizon=2.0, dt=dt, q0=q0)
        return run(net, arr, svc, rates, cfg).final.q

    coarse, fine = terminal(0.1), terminal(1.0 / 512)
    assert np.linalg.norm(coarse - fine) < 1e-12


def test_dt_halving_gives_first_order_convergence_for_dynamic_policies():
    """State-feedback policies see one-step-stale queues, so terminal error
    is O(dt): the error ratio across dt halvings sits near 2."""
    from fluidq import QueueProportionalPolicy

    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 7.0])
    svc = ServiceProfile([2.0, 3.0])
    q0 = np.array([3.0, 1.0, 0.5, 0.0])
    policy = QueueProportionalPolicy()

    def terminal(dt):
        cfg = SimConfig(horizon=4.0, dt=dt, q0=q0)
        return run(net, arr, svc, policy, cfg).final.q

    reference = terminal(1.0 / 1024)
    errors = [np.linalg.norm(terminal(dt) - reference) for dt in (0.1, 0.05, 0.025)]
    assert errors[0] > errors[1] > errors[2] > 0
    for c, f in zip(errors, errors[1:]):
        assert 1.5 < c / f < 2.6


def test_effective_rates_golden_cases():
    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 8.0])
    g = RateAssignment(net, [4.0, 4.0, 5.0, 5.0])
    assert np.allclose(effective_rates(net, arr, g).values, [2, 2, 4, 4])
    g2 = RateAssignment(net, [4.0, 4.0, 5.0, 15.0])
    assert np.allclose(effective_rates(net, arr, g2).values, [2, 2, 2, 6])


def test_effective_rates_scale_middle_node_by_supply():
    net = full_connection([2, 1, 2])
    arr = ArrivalProfile([1.0, 2.0])
    g = RateAssignment.from_dict(
        net, {(0, 0, 0): 1.0, (0, 1, 0): 2.0, (1, 0, 0): 3.0, (1, 0, 1): 3.0}
    )
    assert np.allclose(effective_rates(net, arr, g).values, [1.0, 2.0, 1.5, 1.5])


def test_effective_rates_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sizes = rng.integers(1, 4, size=rng.integers(2, 5))
        net = full_connection(sizes.tolist())
        arr = ArrivalProfile(rng.uniform(0.5, 5.0, size=sizes[0]))
        values = rng.uniform(0.0, 4.0, size=net.num_links)
        g_tilde, inflow, _, sinks = effective_flow(net, arr, values)
        if sinks:
            continue
        assert np.all(g_tilde <= values + 1e-12)
        # effective egress never exceeds effective ingress at any node
        again, _, _, _ = effective_flow(net, arr, g_tilde)
        assert np.allclose(again, g_tilde, atol=1e-12)


def test_effective_rates_reports_packet_sinks():
    net = full_connection([1, 1, 1])
    arr = ArrivalProfile([2.0])
    g = RateAssignment.from_dict(net, {(0, 0, 0): 1.0, (1, 0, 0): 0.0})
    with pytest.raises(PacketSinkError, match="layer 2"):
        effective_rates(net, arr, g)


def test_long_run_throughput_matches_effective_rates(two_source_instance):
    """Simulating static set rates long enough realizes the effective rates
    as per-link throughput (small-instance fixed point check)."""
    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 8.0])
    svc = ServiceProfile([4.0, 4.0])
    g = RateAssignment(net, [4.0, 4.0, 5.0, 15.0])
    traj = run(net, arr, svc, g, SimConfig(horizon=400.0, dt=0.05))
    throughput = traj.link_throughput()
    expected = effective_rates(net, arr, g).values
    assert np.all(np.abs(throughput - expected) <= 0.01 * np.maximum(expected, 1.0))


def test_integer_mode_banks_fractional_rates(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=200.0, dt=1.0, discretize=True)
    traj = run(net, arr, svc, rates, cfg)
    assert np.allclose(traj.queues, np.round(traj.queues))
    # backlogged sources realize g exactly in the long run, despite g2=0.75
    assert np.allclose(traj.link_throughput(), rates.values, atol=1.0 / 200 + 1e-12)


def test_trajectory_csv_export(tmp_path, two_source_instance):
    net, arr, svc, rates = two_source_instance
    traj = run(net, arr, svc, rates, SimConfig(horizon=1.0, dt=0.5))
    path = tmp_path / "traj.csv"
    traj.to_csv(net, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,node_id,q"
    assert len(lines) == 1 + 3 * 3
    assert lines[1].startswith("0,1:1,")


# ---------------------------------------------------------------------------
# the fluid step kernel against the step it replaced


def _reference_advance(q, values, net, lam, mu, dt):
    """The fluid step that ``run`` and ``step`` used before the kernel: one
    Euler step, one layer of the plan at a time, budgets and split computed
    afresh.  Returns (q_next, sent_per_link, served_per_egress)."""
    q = q.copy()
    n1 = net.layer_sizes[0]
    q[:n1] += lam * dt
    sent = np.zeros(net.num_links)
    for layer in net.plan:
        want = values[layer.links] * dt
        desired = np.bincount(layer.src_local, weights=want, minlength=layer.width)
        avail = q[layer.lo : layer.next_lo]
        scale = np.ones(layer.width)
        np.divide(avail, desired, out=scale, where=desired > avail)
        x = want * scale[layer.src_local]
        shipped = np.bincount(layer.src_local, weights=x, minlength=layer.width)
        q[layer.lo : layer.next_lo] = np.maximum(avail - shipped, 0.0)
        np.add.at(q[layer.next_lo : layer.next_lo + layer.next_width], layer.dst_local, x)
        sent[layer.links] = x
    egress_lo = net.node_id(net.num_layers - 1, 0)
    served = np.minimum(q[egress_lo:], mu * dt)
    q[egress_lo:] -= served
    return q, sent, served


def _reference_run(net, arr, svc, policy, cfg):
    dt = cfg.resolved_dt()
    q = cfg.initial_backlog(net)
    queues, applied = [q], []
    link_flow = np.zeros(net.num_links)
    served_total = np.zeros(net.layer_sizes[-1])
    for k in range(round(cfg.horizon / dt)):
        rates = policy.rates(QueueState(q, k * dt), net, arr, svc, dt)
        q, sent, served = _reference_advance(q, rates.values, net, arr.rates, svc.rates, dt)
        queues.append(q)
        applied.append(rates.values)
        link_flow += sent
        served_total += served
    return np.array(queues), np.array(applied), link_flow, served_total


class _Fresh:
    """A new assignment object with the same values every step."""

    def __init__(self, rates):
        self.values = rates.values

    def rates(self, state, net, arr, svc, dt):
        return RateAssignment(net, self.values)


KERNEL_CASES = ("full", "tree", "ragged", "q0", "opt-queue", "opt-queue-gamma", "alternating", "fresh")
STATIC_CASES = ("full", "tree", "ragged", "q0")  # a StaticPolicy


def _kernel_case(name, seed):
    """``(net, arr, svc, make_policy, cfg)`` of one seeded case; each call
    of ``make_policy`` gives a policy in its initial state."""
    rng = np.random.default_rng([20240811, KERNEL_CASES.index(name), seed])
    if name == "tree":  # every link its source's only out-link
        net = _random_fan_in_tree(rng, (6, 3, 2, 1), float(rng.uniform(2, 6)))
    elif name == "ragged":  # a random link subset, no dangling node
        net = _mixed_net(rng, (5, 4, 6, 3), lambda r: r.uniform(1, 6))
    else:
        net = full_connection((4, 3, 3), float(rng.uniform(1, 4)))
    arr = ArrivalProfile(rng.uniform(1, 5, size=net.layer_sizes[0]))
    svc = ServiceProfile(rng.uniform(0.5, 4, size=net.layer_sizes[-1]))
    q0 = rng.uniform(0, 3, size=net.num_nodes) if name in ("q0", "opt-queue-gamma") else None
    cfg = SimConfig(horizon=1.5, dt=0.05, q0=q0)
    a = RateAssignment(net, rng.uniform(0, 1, size=net.num_links) * net.capacities)
    b = RateAssignment(net, rng.uniform(0, 1, size=net.num_links) * net.capacities)
    if name == "opt-queue":
        return net, arr, svc, QueueProportionalPolicy, cfg
    if name == "opt-queue-gamma":
        gamma = tuple(rng.uniform(0.3, 3.0, size=net.num_layers))
        return net, arr, svc, lambda: QueueProportionalPolicy(gamma), cfg
    if name == "alternating":
        return net, arr, svc, lambda: _Alternating(a, b), cfg
    if name == "fresh":
        return net, arr, svc, lambda: _Fresh(a), cfg
    return net, arr, svc, lambda: StaticPolicy(a), cfg


def _assert_within_rounding(traj, want):
    """A static fluid run, read off its exact segments, against a stepped
    one: the backlogs, link flow and service of ``want`` (field -> array)
    agree within 1e-12 of the largest backlog."""
    tol = 1e-12 * max(1.0, float(want["queues"].max()))
    for field, value in want.items():
        assert np.max(np.abs(getattr(traj, field) - value), initial=0.0) <= tol, field


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", KERNEL_CASES)
def test_run_matches_reference_step_bit_for_bit(name, seed):
    """Bit for bit under a dynamic policy; a static fluid run does not step,
    so there only the applied rates are the same bytes."""
    net, arr, svc, make, cfg = _kernel_case(name, seed)
    traj = run(net, arr, svc, make(), cfg)
    queues, applied, link_flow, served = _reference_run(net, arr, svc, make(), cfg)
    assert traj.rates.tobytes() == applied.tobytes()
    want = {"queues": queues, "link_flow": link_flow, "served": served}
    if name in STATIC_CASES:
        _assert_within_rounding(traj, want)
        return
    for field, value in want.items():
        assert getattr(traj, field).tobytes() == value.tobytes(), field


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", KERNEL_CASES)
def test_step_matches_reference_step_bit_for_bit(name, seed):
    net, arr, svc, make, cfg = _kernel_case(name, seed)
    policy, reference = make(), make()
    state = QueueState(cfg.initial_backlog(net), 0.0)
    q = state.q
    for k in range(round(cfg.horizon / cfg.dt)):
        state = step(state, policy.rates(state, net, arr, svc, cfg.dt), net, arr, svc, cfg.dt)
        rates = reference.rates(QueueState(q, 0.0), net, arr, svc, cfg.dt)
        q, _, _ = _reference_advance(q, rates.values, net, arr.rates, svc.rates, cfg.dt)
        assert state.q.tobytes() == q.tobytes(), k


# ---------------------------------------------------------------------------
# the wavefront schedule of a static assignment against the per-step one


def _integer_config(cfg):
    """The integer-mode counterpart of a kernel case's configuration:
    whole packets, unit steps and the initial backlog rounded."""
    q0 = None if cfg.q0 is None else np.round(cfg.q0)
    return SimConfig(horizon=12.0, dt=1.0, q0=q0, discretize=True)


def _assert_same_trajectory(net, arr, svc, assignment, cfg):
    """A static run and a run handed a fresh equal-valued assignment each
    step (per-step schedule) agree: to the byte in integer mode (the
    wavefront), and within rounding in fluid mode (the exact segments),
    with the applied rates to the byte."""
    static = run(net, arr, svc, StaticPolicy(assignment), cfg)
    fresh = run(net, arr, svc, _Fresh(assignment), cfg)
    assert static.rates.tobytes() == fresh.rates.tobytes()
    fields = ("queues", "link_flow", "served")
    if not cfg.discretize:
        _assert_within_rounding(static, {field: getattr(fresh, field) for field in fields})
        return static
    for field in fields:
        assert getattr(static, field).tobytes() == getattr(fresh, field).tobytes(), field
    return static


@pytest.mark.parametrize("mode", ["fluid", "integer"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["full", "tree", "ragged", "q0"])
def test_static_run_matches_per_step_schedule(name, seed, mode):
    net, arr, svc, make, cfg = _kernel_case(name, seed)
    if mode == "integer":
        cfg = _integer_config(cfg)
    _assert_same_trajectory(net, arr, svc, make().assignment, cfg)


@pytest.mark.parametrize("discretize", [False, True])
def test_static_run_rates_are_a_read_only_view_of_the_assignment(discretize):
    """Under a static policy or a bare assignment the trajectory's rates
    are a read-only broadcast of the assignment: every row is its values,
    with the bytes of a filled copy.  A dynamic run's rates stay its own
    writeable array."""
    net, arr, svc, make, cfg = _kernel_case("q0", 0)
    if discretize:
        cfg = _integer_config(cfg)
    policy = make()
    values = policy.assignment.values
    for static in (policy, policy.assignment):
        traj = run(net, arr, svc, static, cfg)
        assert not traj.rates.flags.writeable
        assert traj.rates.shape == (traj.num_steps, net.num_links)
        assert all(np.array_equal(row, values) for row in traj.rates)
        filled = np.empty((traj.num_steps, net.num_links))
        filled[:] = values
        assert traj.rates.tobytes() == filled.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            traj.rates[0, 0] = 0.0
    assert run(net, arr, svc, _Fresh(policy.assignment), cfg).rates.flags.writeable


@pytest.mark.parametrize("discretize", [False, True])
def test_static_run_matches_per_step_schedule_across_a_layer_without_links(
    monkeypatch, discretize
):
    # link layer 1 has no links, so its plan is empty; validation rejects
    # the dangling nodes this leaves, and is switched off to reach the
    # engines with such a plan
    monkeypatch.setattr("fluidq.engine.ensure_valid", lambda net, arr, svc: None)
    rng = np.random.default_rng(5)
    links = [Link(0, i, j, 3.0) for i in range(3) for j in range(2)]
    links += [Link(2, i, j, 2.0) for i in range(2) for j in range(2)]
    net = LayeredNetwork((3, 2, 2, 2), links)
    assert [layer.index for layer in net.plan] == [0, 1, 2]
    assert net.plan[1].links == slice(6, 6)
    arr, svc = ArrivalProfile([2.0, 1.0, 3.0]), ServiceProfile([1.0, 0.5])
    q0 = np.round(rng.uniform(0, 4, size=net.num_nodes))
    assignment = RateAssignment(net, rng.uniform(0, 1, size=net.num_links) * net.capacities)
    cfg = SimConfig(horizon=6.0, dt=1.0 if discretize else 0.25, q0=q0, discretize=discretize)
    traj = _assert_same_trajectory(net, arr, svc, assignment, cfg)
    assert traj.link_flow[6:].sum() > 0  # the last link layer moved packets


@pytest.mark.parametrize("discretize", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 7])
def test_static_run_matches_per_step_schedule_with_fewer_steps_than_layers(steps, discretize):
    rng = np.random.default_rng([11, steps])
    net = full_connection((3, 2, 3, 2, 2), 4.0)
    arr = ArrivalProfile(rng.uniform(1, 5, size=3))
    svc = ServiceProfile(rng.uniform(0.5, 3, size=2))
    q0 = np.round(rng.uniform(0, 5, size=net.num_nodes))
    assignment = RateAssignment(net, rng.uniform(0, 1, size=net.num_links) * net.capacities)
    dt = 1.0 if discretize else 0.1
    cfg = SimConfig(horizon=steps * dt, dt=dt, q0=q0, discretize=discretize)
    traj = _assert_same_trajectory(net, arr, svc, assignment, cfg)
    assert traj.num_steps == steps


def test_static_integer_run_fails_at_the_per_step_schedules_step_and_node(monkeypatch):
    # every short source whose supply is 3 mod 4 has one packet more granted
    # than it holds; the corruption depends only on the source's own
    # numbers, so both schedules corrupt the same (step, source) pairs, and
    # the wavefront must report the first one as the per-step schedule does
    # although its upstream layers have run ahead
    from fluidq import discrete

    original = discrete._allocate_each

    def misallocate(amounts, totals, weights, seg, pos=None):
        grant = original(amounts, totals, weights, seg, pos)
        first = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
        hit = totals[seg[first]] % 4 == 3
        grant[first[hit]] += 1
        return grant

    monkeypatch.setattr(discrete, "_allocate_each", misallocate)
    net = full_connection((3, 4, 2), 3.0)
    arr, svc = ArrivalProfile([2.0, 1.5, 1.0]), ServiceProfile([1.0, 1.0])
    cfg = SimConfig(horizon=20.0, dt=1.0, discretize=True)
    assignment = RateAssignment(net, np.full(net.num_links, 3.0))
    messages = []
    for policy in (StaticPolicy(assignment), _Fresh(assignment)):
        with pytest.raises(EngineError, match="negative backlog") as err:
            run(net, arr, svc, policy, cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # a middle node: the ingress layer had run a step ahead when it was found
    assert messages[0] == "negative backlog -1 at step 0 on (layer 2, node 1)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_queue_state_rejects_non_finite_and_negative_backlogs(bad):
    with pytest.raises(ValueError, match="^backlogs must be finite and nonnegative$"):
        QueueState(np.array([bad, 1.0]), 0.0)
    assert QueueState(np.array([0.0, 1.0]), 0.0).q.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# static fluid runs read off exact segments


def _draining_case(rng, family):
    """A seeded instance with rates near capacity and backlogs that drain
    within the horizon on most nodes."""
    if family == "tree":
        net = _random_fan_in_tree(rng, (6, 3, 2, 1), float(rng.uniform(2, 6)))
    else:
        net = full_connection(rng.integers(1, 5, size=3).tolist(), float(rng.uniform(1, 4)))
    arr = ArrivalProfile(rng.uniform(0.2, 2, size=net.layer_sizes[0]))
    svc = ServiceProfile(rng.uniform(2, 6, size=net.layer_sizes[-1]))
    assignment = RateAssignment(net, rng.uniform(0.5, 1, size=net.num_links) * net.capacities)
    cfg = SimConfig(horizon=4.0, dt=0.01, q0=rng.uniform(0, 6, size=net.num_nodes))
    return net, arr, svc, assignment, cfg


@pytest.mark.parametrize("family", ["full", "tree"])
def test_static_fluid_run_follows_the_stepped_engine_across_drain_events(family):
    """On seeded draws where backlogs drain, the run read off exact segments
    agrees with the per-step schedule within 1e-9 of the largest backlog,
    and no node empties twice."""
    rng = np.random.default_rng([31, family == "tree"])
    emptied = 0
    for _ in range(8):
        net, arr, svc, assignment, cfg = _draining_case(rng, family)
        exact = run(net, arr, svc, StaticPolicy(assignment), cfg)
        stepped = run(net, arr, svc, _Fresh(assignment), cfg)
        tol = 1e-9 * max(1.0, float(stepped.queues.max()))
        for field in ("queues", "link_flow", "served"):
            assert np.max(np.abs(getattr(exact, field) - getattr(stepped, field))) <= tol, field
        empty = exact.queues == 0
        empties = ~empty[:-1] & empty[1:]
        assert empties.sum(axis=0).max() <= 1
        emptied += int(empties.sum())
    assert emptied >= 20


def test_static_fluid_run_from_zero_backlog_is_one_segment(monkeypatch):
    """From zero backlog no node drains: one segment, so every backlog grows
    linearly over the whole run."""
    from fluidq import engine

    seen = []
    original = engine._fluid_segments

    def recorded(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(engine, "_fluid_segments", recorded)
    net, arr, svc, make, cfg = _kernel_case("full", 0)
    traj = run(net, arr, svc, make(), cfg)
    (segments,) = seen
    assert segments.start.tolist() == [0.0]
    assert np.allclose(traj.queues, traj.times[:, None] * segments.slope[0], rtol=1e-14, atol=0)


def test_static_fluid_run_checks_each_rows_mass(monkeypatch):
    """A segment whose backlogs do not match its service fails the mass
    balance at the first row it reaches."""
    from fluidq import engine

    original = engine._fluid_segments

    def corrupted(*args):
        segments = original(*args)
        slope = segments.slope.copy()
        slope[-1, 0] += 1.0
        return segments._replace(slope=slope)

    monkeypatch.setattr(engine, "_fluid_segments", corrupted)
    net, arr, svc, make, cfg = _kernel_case("full", 0)
    with pytest.raises(EngineError, match=r"^mass balance violated at step 0: residual -0\.0499"):
        run(net, arr, svc, make(), cfg)
    # a bare assignment takes the same path; a dynamic policy steps
    with pytest.raises(EngineError, match="mass balance"):
        run(net, arr, svc, make().assignment, cfg)
    run(net, arr, svc, _Fresh(make().assignment), cfg)
