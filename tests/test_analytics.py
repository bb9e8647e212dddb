import math
import os

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    PacketSinkError,
    QueueState,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    construct_rate_proportional,
    check_min_delay_layered,
    check_min_delay_single_sink,
    check_min_delay_tree,
    effective_rates,
    empirical_report,
    fan_in_tree,
    full_connection,
    load,
    packet_delay,
    path_weights,
    run,
    single_sink,
    tagged_run,
)
from fluidq.analytics import _backlog_report
from fluidq.policies import initial_backlog_weights

from conftest import single_sink_rates


def random_min_delay_gamma(rng, num_layers, ratio):
    """Per-layer ratios >= 1 multiplying to the given overload ratio."""
    while True:
        g = rng.uniform(1.0, ratio ** (1.0 / num_layers) * 1.3, size=num_layers - 1)
        if g.prod() <= ratio:
            tail = ratio / g.prod()
            if tail >= 1.0:
                return (*g.tolist(), tail)


# ---------------------------------------------------------------------------
# packet_delay


def test_packet_delay_two_node_max_form():
    # q1=4 behind rate 1, then q2=2 at service 2: max{(4+2)/2, 4/1} = 4
    net = full_connection([1, 1])
    arr, svc = ArrivalProfile([1.0]), ServiceProfile([2.0])
    rates = RateAssignment(net, [1.0])
    state = QueueState(np.array([4.0, 2.0]), 0.0)
    assert packet_delay(net, arr, svc, rates, (0, 0), 0.0, source=state) == pytest.approx(4.0)
    # and the faster-drain branch: g=3 > mu: max{6/2, 4/3} = 3
    fast = RateAssignment(net, [3.0])
    assert packet_delay(net, arr, svc, fast, (0, 0), 0.0, source=state) == pytest.approx(3.0)


def test_packet_delay_from_a_state_sees_an_empty_upstream_node():
    """Node 1 forwards its arrivals (5 < 10), so node 2 grows at 5 - 2 = 3
    (not at 10 - 2): a packet entering at t = 1 waits 3/2 at node 2 and then
    2.5/1 at egress, from a zero state as in the closed form and on a
    trajectory."""
    net = full_connection([1, 1, 1])
    arr, svc = ArrivalProfile([5.0]), ServiceProfile([1.0])
    rates = RateAssignment(net, [10.0, 2.0])
    traj = run(net, arr, svc, rates, SimConfig(horizon=10.0, dt=0.01))
    for source in (QueueState(np.zeros(3), 0.0), None, traj):
        got = packet_delay(net, arr, svc, rates, (0, 0, 0), 1.0, source=source)
        assert got == pytest.approx(4.0, rel=1e-12)


def test_packet_delay_on_a_trajectory_stops_at_its_end():
    """A packet entering at 1.9 is still queued when a horizon-2 trajectory
    ends: the walk raises instead of holding the last row (4.85), and a
    longer trajectory gives the closed form's 7.6."""
    net = full_connection([1, 1, 1])
    arr, svc = ArrivalProfile([5.0]), ServiceProfile([1.0])
    rates = RateAssignment(net, [10.0, 2.0])
    short = run(net, arr, svc, rates, SimConfig(horizon=2.0, dt=0.01))
    with pytest.raises(ValueError, match=r"^backlog wanted at 4\.75, past the trajectory's end 2\.0$"):
        packet_delay(net, arr, svc, rates, (0, 0, 0), 1.9, source=short)
    long = run(net, arr, svc, rates, SimConfig(horizon=10.0, dt=0.01))
    for source in (long, QueueState(np.zeros(3), 0.0), None):
        assert packet_delay(net, arr, svc, rates, (0, 0, 0), 1.9, source=source) == pytest.approx(7.6)


def test_packet_delay_infinite_at_a_node_without_rate_whatever_its_backlog():
    net = full_connection([1, 1])
    arr, svc = ArrivalProfile([1.0]), ServiceProfile([1.0])
    rates = RateAssignment(net, [0.0])
    traj = run(net, arr, svc, rates, SimConfig(horizon=1.0, dt=0.1))
    for source in (None, QueueState(np.zeros(2), 0.0), traj):
        assert packet_delay(net, arr, svc, rates, (0, 0), 0.0, source=source) == math.inf


class _Stepped:
    """The static rates as a policy that ``run`` steps."""

    def __init__(self, rates):
        self.assignment = rates

    def rates(self, state, net, arr, svc, dt):
        return self.assignment


def test_packet_delay_from_a_state_agrees_with_a_stepped_trajectory():
    """Seeded backlogs that drain: the delay from a state (exact segments,
    started at that state's instant) agrees with the one read off a stepped
    trajectory within its interpolation error, O(dt)."""
    rng = np.random.default_rng(31)
    dt, emptied = 0.01, 0
    for _ in range(6):
        net = full_connection([3, 2, 2], float(rng.uniform(2, 4)))
        arr = ArrivalProfile(rng.uniform(0.5, 2.0, size=3))
        svc = ServiceProfile(rng.uniform(2.0, 4.0, size=2))
        rates = RateAssignment(net, rng.uniform(0.5, 1.0, size=net.num_links) * net.capacities)
        q0 = rng.uniform(0.0, 4.0, size=net.num_nodes)
        traj = run(net, arr, svc, _Stepped(rates), SimConfig(horizon=8.0, dt=dt, q0=q0))
        k = 50  # the state half a time unit in; every packet leaves by t = 6.5
        state = QueueState(traj.queues[k], k * dt)
        emptied += int(((traj.queues[k] > 0) & (traj.queues[k + 300] == 0)).sum())
        for path in [(0, 0, 0), (1, 1, 0), (2, 0, 1)]:
            for t in (state.t, 0.8, 1.7, 3.1):
                exact = packet_delay(net, arr, svc, rates, path, t, source=state)
                sampled = packet_delay(net, arr, svc, rates, path, t, source=traj)
                assert exact == pytest.approx(sampled, abs=dt)
    assert emptied >= 6


def test_packet_delay_from_a_state_starts_at_its_instant():
    net = full_connection([1, 1])
    arr, svc = ArrivalProfile([1.0]), ServiceProfile([2.0])
    rates = RateAssignment(net, [1.0])
    state = QueueState(np.array([4.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match=r"^packet enters at 0\.5, before the state's instant 1\.0$"):
        packet_delay(net, arr, svc, rates, (0, 0), 0.5, source=state)
    with pytest.raises(ValueError, match="^backlog has 3 entries, network has 2 nodes$"):
        packet_delay(net, arr, svc, rates, (0, 0), 1.0, source=QueueState(np.zeros(3), 0.0))


def test_packet_delay_zero_when_everything_drains():
    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([1.0, 1.0]), ServiceProfile([3.0, 3.0])
    rates = RateAssignment(net, [0.5, 0.5, 0.5, 0.5])
    assert packet_delay(net, arr, svc, rates, (0, 1), 7.0) == 0.0


def test_packet_delay_closed_form_linear_growth(two_source_instance):
    net, arr, svc, rates = two_source_instance
    for t in (1.0, 10.0, 123.4):
        assert packet_delay(net, arr, svc, rates, (0, 0), t) == pytest.approx(4.5 * t)
        assert packet_delay(net, arr, svc, rates, (1, 0), t) == pytest.approx(4.5 * t)


def test_packet_delay_infinite_without_egress_rate():
    net = single_sink(2)
    arr, svc = ArrivalProfile([2.0, 1.0]), ServiceProfile([1.0])
    stuck = single_sink_rates(net, [0.0, 1.0])
    assert math.isinf(packet_delay(net, arr, svc, stuck, (0, 0), 5.0))


def test_packet_delay_rejects_bad_paths(two_source_instance):
    net, arr, svc, rates = two_source_instance
    with pytest.raises(ValueError):
        packet_delay(net, arr, svc, rates, (0,), 1.0)
    tree_net = full_connection([2, 2])
    with pytest.raises(TypeError):
        packet_delay(net, arr, svc, rates, (0, 0), 1.0, source="nope")


def test_packet_delay_names_a_missing_link_in_the_file_form():
    net = fan_in_tree((2, 2, 1), [[0, 1], [0, 0]])
    arr, svc = ArrivalProfile([1.0, 1.0]), ServiceProfile([1.0])
    rates = RateAssignment(net, np.ones(net.num_links))
    with pytest.raises(ValueError, match=r"^path uses nonexistent link 1:1:2$"):
        packet_delay(net, arr, svc, rates, (0, 1, 0), 1.0)


def _foreign_cases():
    """Per function, a call on network ``b`` with an assignment of ``a``,
    an equal-shaped network with other capacities, or of another shape."""
    a, b = full_connection((2, 2), 10.0), full_connection((2, 2), 1.0)
    arr, svc = ArrivalProfile([4.0, 4.0]), ServiceProfile([1.0, 1.0])
    g = RateAssignment(a, [3.0] * 4)
    wide = full_connection((3, 2), 10.0)
    sink, other_sink = single_sink(2, 1.0), single_sink(2, 10.0)
    tree = fan_in_tree((2, 1), [[0, 0]], 1.0)
    one = ServiceProfile([1.0])
    return {
        "analytic_report": lambda: analytic_report(b, arr, svc, g, 10.0),
        "packet_delay": lambda: packet_delay(b, arr, svc, g, (0, 0), 1.0),
        "path_weights": lambda: path_weights(b, arr, g),
        "effective_rates": lambda: effective_rates(b, arr, g),
        "layered": lambda: check_min_delay_layered(b, arr, svc, g),
        "layered_3x2": lambda: check_min_delay_layered(
            wide, ArrivalProfile([1.0, 1.0, 1.0]), svc, g
        ),
        "single_sink": lambda: check_min_delay_single_sink(
            sink, arr, one, RateAssignment(other_sink, [1.0, 1.0])
        ),
        "tree": lambda: check_min_delay_tree(
            tree, arr, one, RateAssignment(fan_in_tree((2, 1), [[0, 0]], 1.0), [1.0, 1.0])
        ),
    }


@pytest.mark.parametrize("name", list(_foreign_cases()))
def test_closed_forms_and_checkers_reject_an_assignment_of_another_network(name):
    with pytest.raises(ValueError, match="^rate assignment belongs to a different network$"):
        _foreign_cases()[name]()


# ---------------------------------------------------------------------------
# analytic metrics


def test_analytic_metrics_reproduce_two_source_closed_form(two_source_instance):
    net, arr, svc, rates = two_source_instance
    report = analytic_report(net, arr, svc, rates, horizon=200.0)
    expected = 200.0 / (2 * 2.0) * (11.0 - 2.0)
    assert report.d_avg == pytest.approx(expected, abs=1e-9)
    assert report.d_max == pytest.approx(expected, abs=1e-9)


def test_analytic_metrics_zero_when_underloaded():
    net = single_sink(2)
    arr, svc = ArrivalProfile([1.0, 2.0]), ServiceProfile([5.0])
    report = analytic_report(net, arr, svc, single_sink_rates(net, [1.0, 2.0]), 50.0)
    assert report.d_avg == 0.0 and report.d_max == 0.0


def test_analytic_metrics_multistage_closed_form():
    # overload ratio 2.5 on a 3-layer network: D = (T/2)(2.5 - 1) = 37.5
    net = full_connection([2, 2, 2])
    arr = ArrivalProfile([6.0, 4.0])
    svc = ServiceProfile([3.0, 1.0])
    rng = np.random.default_rng(3)
    gamma = random_min_delay_gamma(rng, 3, 2.5)
    rates = construct_rate_proportional(net, arr, svc, gamma)
    report = analytic_report(net, arr, svc, rates, horizon=50.0)
    assert report.d_avg == pytest.approx(37.5, abs=1e-9)
    assert report.d_max == pytest.approx(37.5, abs=1e-9)


def test_min_delay_value_invariance_across_satisfying_vectors():
    """Ten distinct region members on random 2x2 and 2x2x2 instances all
    produce the same closed-form metric value."""
    rng = np.random.default_rng(42)
    for sizes in ((2, 2), (2, 2, 2)):
        lam = rng.uniform(3.0, 9.0, size=sizes[0])
        mu_weights = rng.uniform(0.5, 1.5, size=sizes[-1])
        mu = mu_weights / mu_weights.sum() * lam.sum() * 0.4
        net = full_connection(sizes)
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        ratio = arr.total / svc.total
        expected = 25.0 * (ratio - 1.0)
        seen = set()
        for _ in range(10):
            gamma = random_min_delay_gamma(rng, len(sizes), ratio)
            rates = construct_rate_proportional(net, arr, svc, gamma)
            seen.add(tuple(np.round(rates.values, 12)))
            report = analytic_report(net, arr, svc, rates, horizon=50.0)
            assert abs(report.d_avg - expected) <= 1e-9 * expected
            assert abs(report.d_max / report.d_avg - 1.0) <= 1e-12
        assert len(seen) == 10


def test_weighted_mean_identity():
    rng = np.random.default_rng(5)
    net = full_connection([3, 2])
    lam = rng.uniform(1.0, 6.0, size=3)
    arr, svc = ArrivalProfile(lam), ServiceProfile([2.0, 1.0])
    rates = RateAssignment(net, rng.uniform(0.2, 3.0, size=net.num_links))
    report = analytic_report(net, arr, svc, rates, horizon=30.0)
    assert report.d_avg == np.dot(lam, report.d_bar) / lam.sum()
    assert report.d_max == report.d_bar.max()
    assert report.d_max >= report.d_avg >= 0.0


def test_analytic_metrics_infinite_for_stranded_traffic():
    net = single_sink(2)
    arr, svc = ArrivalProfile([2.0, 1.0]), ServiceProfile([1.0])
    report = analytic_report(net, arr, svc, single_sink_rates(net, [0.0, 1.0]), 10.0)
    assert math.isinf(report.d_max) and math.isinf(report.d_avg)
    assert math.isfinite(report.d_bar[1])


# ---------------------------------------------------------------------------
# path weights


def test_path_weights_single_path_network():
    net = full_connection([1, 1])
    table = path_weights(net, ArrivalProfile([2.0]), RateAssignment(net, [1.5]))
    assert table[0] == {(0, 0): 1.0}


def test_path_weights_equal_splits_multistage():
    net = full_connection([2, 2, 2])
    arr = ArrivalProfile([4.0, 4.0])
    rates = RateAssignment(net, np.ones(net.num_links))
    table = path_weights(net, arr, rates)
    for i in range(2):
        weights = table[i]
        assert len(weights) == 4
        assert all(w == pytest.approx(0.25) for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)


def test_path_weights_follow_effective_splits():
    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 8.0])
    rates = RateAssignment(net, [4.0, 4.0, 5.0, 15.0])
    table = path_weights(net, arr, rates)
    w = table[1]
    assert w[(1, 0)] == pytest.approx(0.25)
    assert w[(1, 1)] == pytest.approx(0.75)


def test_path_weights_error_on_packet_sink():
    net = full_connection([1, 1, 1])
    arr = ArrivalProfile([2.0])
    rates = RateAssignment.from_dict(net, {(0, 0, 0): 1.0, (1, 0, 0): 0.0})
    with pytest.raises(PacketSinkError):
        path_weights(net, arr, rates)


# ---------------------------------------------------------------------------
# empirical metrics


def test_empirical_matches_analytic_on_min_delay_instance(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=200.0, dt=1.0, discretize=True)
    report = empirical_report(tagged_run(net, arr, svc, rates, cfg), arr)
    assert abs(report.d_avg - 450.0) <= 0.05 * 450.0


def test_empirical_matches_analytic_off_optimum():
    net = full_connection([2, 2])
    arr = ArrivalProfile([5.0, 9.0])
    svc = ServiceProfile([3.0, 2.0])
    rates = RateAssignment(net, [2.0, 1.0, 3.0, 2.0])
    analytic = analytic_report(net, arr, svc, rates, horizon=150.0)
    cfg = SimConfig(horizon=150.0, dt=1.0, discretize=True)
    empirical = empirical_report(tagged_run(net, arr, svc, rates, cfg), arr)
    assert abs(empirical.d_avg - analytic.d_avg) <= 0.05 * analytic.d_avg
    assert abs(empirical.d_max - analytic.d_max) <= 0.05 * analytic.d_max


def test_empirical_zero_sojourns_without_overload():
    net = full_connection([1, 1])
    arr, svc = ArrivalProfile([1.0]), ServiceProfile([2.0])
    cfg = SimConfig(horizon=50.0, dt=1.0, discretize=True)
    report = empirical_report(
        tagged_run(net, arr, svc, RateAssignment(net, [1.0]), cfg), arr
    )
    assert report.d_avg == 0.0 and report.d_max == 0.0


def test_drain_branch_and_proportional_branch_agree():
    """Serving above the arrival rates and serving rate-proportionally are
    both minimum-delay; their measured averages coincide."""
    lam = np.array([4.0, 8.0, 6.0])
    net = single_sink(3)
    arr, svc = ArrivalProfile(lam), ServiceProfile([9.0])
    cfg = SimConfig(horizon=120.0, dt=1.0, discretize=True)
    prop = empirical_report(
        tagged_run(net, arr, svc, single_sink_rates(net, lam / 2), cfg), arr
    )
    drain = empirical_report(
        tagged_run(net, arr, svc, single_sink_rates(net, lam), cfg), arr
    )
    assert abs(prop.d_avg - drain.d_avg) <= 0.05 * drain.d_avg


# ---------------------------------------------------------------------------
# initial backlog (single-sink piecewise form)


def test_backlog_report_matches_simulation():
    lam = np.array([3.0, 7.0])
    net = single_sink(2)
    arr, svc = ArrivalProfile(lam), ServiceProfile([4.0])
    rates = single_sink_rates(net, [4.0, 3.0])  # source 1 drains, source 2 grows
    q0 = np.array([37.0, 11.0, 5.0])
    report = analytic_report(net, arr, svc, rates, horizon=60.0, q0=q0)
    cfg = SimConfig(horizon=60.0, dt=1.0, q0=q0, discretize=True)
    empirical = empirical_report(tagged_run(net, arr, svc, rates, cfg), arr)
    assert abs(report.d_avg - empirical.d_avg) <= 0.05 * empirical.d_avg
    assert abs(report.d_max - empirical.d_max) <= 0.05 * empirical.d_max


def _split_paths(net, rates, path, weight):
    """The full paths that extend ``path``, each with its share of the
    packets at ``path[0]``: the product of the set-rate splits
    values_k / c_n.  At a node with no set rate a packet stays, so its
    share goes on along node 0 of each later layer."""
    layer = len(path) - 1
    if layer == net.num_layers - 1:
        yield path, weight
        return
    nid = net.node_id(layer, path[-1])
    total = rates.node_egress(nid)
    for j in range(net.layer_sizes[layer + 1]):
        value = rates.values[net.link_index[(layer, path[-1], j)]]
        if total > 0 and value > 0:
            yield from _split_paths(net, rates, path + (j,), weight * value / total)
        elif total == 0 and j == 0:
            yield from _split_paths(net, rates, path + (j,), weight)


_FULL_CONNECTIONS = {"two-layer": (2, 3), "three-layer": (3, 2, 2), "four-layer": (2, 3, 2, 2),
                     "dead-middle": (2, 3, 2)}


@pytest.mark.parametrize("case, seed", [
    ("draining", 1), ("growing", 2), ("unserved", 3), ("sink-only", 4),
    ("two-layer", 5), ("three-layer", 6), ("four-layer", 7), ("dead-middle", 8),
])
def test_backlog_report_matches_fluid_run_packet_by_packet(case, seed):
    """The backlog form against the fluid run: each ingress's delay averaged
    over midpoint arrival instants of the window, each delay read off the
    simulated backlogs by ``packet_delay`` and weighted per path by the
    set-rate splits."""
    rng = np.random.default_rng(seed)
    horizon = 40.0
    if case in _FULL_CONNECTIONS:  # backlogs drain inside the run (checked below)
        sizes = _FULL_CONNECTIONS[case]
        net = full_connection(sizes)
        lam = rng.uniform(1.0, 4.0, size=sizes[0])
        values = rng.uniform(0.3, 2.0, size=net.num_links)
        mu = rng.uniform(0.5, 3.0, size=sizes[-1])
        q0 = rng.uniform(0.0, 15.0, size=net.num_nodes)
        if case == "dead-middle":  # middle node 2 has no set rate; ingress 1 avoids it
            values[net.link_index[(0, 0, 1)]] = 0.0
            values[[net.link_index[(1, 1, j)] for j in range(sizes[2])]] = 0.0
    else:
        lam = rng.uniform(1.0, 6.0, size=3)
        q0 = np.append(rng.uniform(5.0, 30.0, size=3), rng.uniform(0.0, 20.0))
        mu = [0.7 * lam.sum()]
        if case == "draining":  # every source empties inside the window
            values = lam * rng.uniform(1.3, 2.0, size=3)
            assert np.all(q0[:3] / (values - lam) < horizon)
        elif case == "growing":
            values = lam * rng.uniform(0.3, 0.8, size=3)
        elif case == "unserved":  # infinite on both routes
            values = lam * rng.uniform(0.5, 1.5, size=3)
            values[1] = 0.0
        else:  # the sink alone is backlogged, and empties inside the window
            values = lam * rng.uniform(0.3, 0.6, size=3)
            q0[:3] = 0.0
            assert q0[3] / (mu[0] - values.sum()) < horizon
        net = single_sink(3)
    arr, svc, rates = ArrivalProfile(lam), ServiceProfile(mu), RateAssignment(net, values)
    analytic = analytic_report(net, arr, svc, rates, horizon, q0=q0).d_bar

    # long enough for the window's last packet: packet_delay raises past the end
    traj = run(net, arr, svc, rates, SimConfig(4 * horizon, dt=0.02, q0=q0))
    if case in _FULL_CONNECTIONS:
        assert ((q0 > 0) & (traj.queues.min(axis=0) == 0)).sum() >= 2
    count = 200 if case in _FULL_CONNECTIONS else 400  # per path
    arrivals = (np.arange(count) + 0.5) * horizon / count
    simulated = np.array([
        sum(weight * np.mean([packet_delay(net, arr, svc, rates, path, t, source=traj)
                              for t in arrivals])
            for path, weight in _split_paths(net, rates, (i,), 1.0))
        for i in range(net.layer_sizes[0])
    ])
    np.testing.assert_array_equal(np.isinf(simulated), np.isinf(analytic))
    assert np.isinf(analytic).any() == (case in ("unserved", "dead-middle"))
    finite = np.isfinite(analytic)
    np.testing.assert_allclose(simulated[finite], analytic[finite], rtol=1e-5)


def test_backlog_form_from_zero_backlog_is_the_factor_product():
    """Called on a zero backlog, the backlog form gives the factor product of
    the zero-backlog branch on seeded layered draws, stranded traffic (a
    node with no set rate) included."""
    rng = np.random.default_rng(32)
    stranded = 0
    for _ in range(40):
        sizes = rng.integers(1, 5, size=int(rng.integers(2, 5))).tolist()
        net = full_connection(sizes)
        arr = ArrivalProfile(rng.uniform(0.5, 6.0, size=sizes[0]))
        svc = ServiceProfile(rng.uniform(0.2, 3.0, size=sizes[-1]))
        values = rng.uniform(0.1, 4.0, size=net.num_links) * (rng.random(net.num_links) > 0.15)
        horizon = float(rng.uniform(5.0, 80.0))
        product = analytic_report(net, arr, svc, RateAssignment(net, values), horizon).d_bar
        composed = _backlog_report(net, arr, svc, values, np.zeros(net.num_nodes), horizon).d_bar
        np.testing.assert_array_equal(np.isinf(composed), np.isinf(product))
        finite = np.isfinite(product)
        assert composed[finite] == pytest.approx(product[finite], rel=1e-12, abs=1e-12 * horizon)
        stranded += int(np.isinf(product).any())
    assert stranded >= 3


def _backlog_instance():
    net = single_sink(2)
    rates = single_sink_rates(net, [4.0, 3.0])
    return net, ArrivalProfile([3.0, 7.0]), ServiceProfile([4.0]), rates


@pytest.mark.parametrize("q0", [None, [37.0, 11.0, 5.0]])
@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -3.0])
def test_analytic_report_rejects_a_horizon_that_is_not_finite_and_positive(horizon, q0):
    net, arr, svc, rates = _backlog_instance()
    with pytest.raises(ValueError, match=f"^horizon must be finite and positive, got {horizon}$"):
        analytic_report(net, arr, svc, rates, horizon, q0=q0)


@pytest.mark.parametrize("q0, message", [
    ([37.0, math.nan, 5.0], "q0 must be finite, got nan at entry 2"),
    ([37.0, 11.0, math.inf], "q0 must be finite, got inf at entry 3"),
    ([-30.0, 11.0, 5.0], "q0 must be nonnegative"),
    ([37.0, 11.0, 5.0, 1.0], "q0 has 4 entries, network has 3 nodes"),
    ([37.0, 11.0], "q0 has 2 entries, network has 3 nodes"),
])
def test_analytic_report_checks_q0_like_the_simulation(q0, message):
    net, arr, svc, rates = _backlog_instance()
    with pytest.raises(ValueError, match=f"^{message}$"):
        analytic_report(net, arr, svc, rates, 60.0, q0=q0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(60.0, q0=q0).initial_backlog(net)


def test_backlog_adjusted_weights_contract():
    arr = ArrivalProfile([4.0, 8.0])
    # zero backlog collapses to the arrival rates
    w0 = initial_backlog_weights(arr, [0.0, 0.0], 10.0)
    assert w0[0] / w0[1] == pytest.approx(0.5)
    # worked value: sqrt(4*5 / (8*8)) = sqrt(0.3125)
    w = initial_backlog_weights(arr, [10.0, 0.0], 10.0)
    assert w[0] / w[1] == pytest.approx(math.sqrt(0.3125), abs=1e-12)
    # long horizons wash the backlog out
    w_long = initial_backlog_weights(arr, [10.0, 0.0], 1e9)
    assert w_long[0] / w_long[1] == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ValueError):
        initial_backlog_weights(arr, [1.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="^horizon must be finite and positive, got nan$"):
        initial_backlog_weights(arr, [1.0, 1.0], math.nan)
    with pytest.raises(ValueError):
        initial_backlog_weights(arr, [1.0], 5.0)


@pytest.mark.parametrize("q0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], [-1.0, 0.0]])
def test_backlog_adjusted_weights_reject_q0_not_finite_and_nonnegative(q0):
    with pytest.raises(ValueError, match="^q0 must be finite and nonnegative$"):
        initial_backlog_weights(ArrivalProfile([4.0, 8.0]), q0, 10.0)


def test_backlog_analytic_on_four_layers():
    """fourlayer.json under opt-static (every rate 1/3): each ingress ships 1
    and grows at 1, every later node forwards 1, so a packet entering
    ingress i at t waits q0_i + t there and the split means of the later
    layers' backlogs (7/3, 2/3 and 2) after it."""
    net, arr, svc = load(os.path.join(os.path.dirname(__file__), "data", "fourlayer.json"))
    rates = RateAssignment(net, np.full(net.num_links, 1.0 / 3.0))
    q0 = np.array([1, 0, 2, 4, 0, 3, 2, 0, 0, 1, 5, 0], dtype=float)
    report = analytic_report(net, arr, svc, rates, 5.0, q0=q0)
    np.testing.assert_allclose(report.d_bar, [8.5, 7.5, 9.5], rtol=1e-14)
    assert (report.d_avg, report.d_max) == pytest.approx((8.5, 9.5), rel=1e-14)


def test_tagged_run_reports_drain_extension(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=50.0, dt=1.0, discretize=True)
    tr = tagged_run(net, arr, svc, rates, cfg)
    # overloaded: the last tagged packets depart well after the window
    assert tr.extension > 0
    assert np.all(tr.origin_count == 50.0 * arr.rates)


def test_report_flags_when_effective_rates_differ():
    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 8.0])
    svc = ServiceProfile([4.0, 4.0])
    overcommitted = RateAssignment(net, [4.0, 4.0, 5.0, 5.0])
    assert analytic_report(net, arr, svc, overcommitted, 50.0).effective_differs
    exact = RateAssignment(net, [1.0, 1.0, 2.0, 2.0])
    assert not analytic_report(net, arr, svc, exact, 50.0).effective_differs


def test_three_layer_path_delay_is_the_expected_linear_combination():
    """With all queues positive, the hop recursion collapses to a linear
    combination of the on-path backlogs whose coefficients are products of
    downstream inflow/outflow ratios."""
    rng = np.random.default_rng(33)
    net = full_connection([2, 2, 2])
    for _ in range(10):
        lam = rng.uniform(6.0, 12.0, size=2)
        # layer-2 rates sit well below layer-1 column sums and mu below
        # layer-2 column sums, so every backlog keeps growing (no clamps)
        values = np.concatenate(
            [rng.uniform(0.5, 1.2, size=4), rng.uniform(0.1, 0.45, size=4)]
        )
        mu = rng.uniform(0.02, 0.15, size=2)
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        rates = RateAssignment(net, values)
        q = rng.uniform(5.0, 40.0, size=net.num_nodes)
        state = QueueState(q, 0.0)

        got = packet_delay(net, arr, svc, rates, (0, 0, 0), 0.0, source=state)

        e1 = rates.node_egress(net.node_id(0, 0))
        n3 = net.node_id(1, 0)
        i3, e3 = rates.node_ingress(n3), rates.node_egress(n3)
        n5 = net.node_id(2, 0)
        i5 = rates.node_ingress(n5)
        expected = (
            q[net.node_id(0, 0)] / e1 * (i3 / e3) * (i5 / mu[0])
            + q[n3] / e3 * (i5 / mu[0])
            + q[n5] / mu[0]
        )
        assert got == pytest.approx(expected, rel=1e-12)


def test_single_sink_queue_policy_warns_when_capacity_starves_budget(caplog):
    import logging

    from fluidq.policies import queue_proportional_rates

    net = single_sink(2, [0.5, 0.5])  # total capacity 1 < mu
    svc = ServiceProfile([4.0])
    state = QueueState(np.array([5.0, 5.0, 0.0]), 0.0)
    with caplog.at_level(logging.WARNING, logger="fluidq"):
        rates = queue_proportional_rates(state, net, svc)
    assert rates.values.sum() == pytest.approx(1.0)
    assert any("throughput clause" in r.message for r in caplog.records)
