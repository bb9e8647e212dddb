"""Integer-packet simulator: reference delays, split helpers, the tag
pass over Newell's curves, its row-FIFO reference and its balance checks."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    EngineError,
    LayeredNetwork,
    Link,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    empirical_report,
    single_sink,
    tagged_run,
)
from fluidq import discrete
from fluidq.bench import make_policy, preset, sample_instance
from fluidq.discrete import _allocate_each, _Curves, _IntegerSim, _Tags
from fluidq.engine import _CapacityCheck, _run_steps
from fluidq.engine import run as engine_run

import fifo_reference

SEED = 20240811

# (family, layer sizes, horizon, instance, policy) -> (d_avg, extension
# steps, tagged packets), recorded with the pass over Newell's curves (a take
# of m packets of a step's n carries m/n of every class, and a take goes to
# its links in proportion to the grants); the row-FIFO reference, which
# applies the same rule, agrees with it to 1e-12 and gave d_avg within 5e-15.
EXACT = {
    ("nx1-limited", None, 1.0, 0, "opt-queue"): (34.49618228341138, 63, 499),
    ("nx1-limited", None, 1.0, 0, "max"): (38.47723743306549, 98, 499),
    ("nx1-limited", None, 1.0, 1, "opt-queue"): (32.93707352867965, 47, 521),
    ("nx1-limited", None, 1.0, 1, "max"): (35.1328447624033, 66, 521),
    ("nx1-limited", None, 1.0, 2, "opt-queue"): (31.813958439384933, 59, 538),
    ("nx1-limited", None, 1.0, 2, "max"): (34.25422385854542, 85, 538),
    ("nsxnd", (16, 8), 2.0, 0, "opt-queue"): (1.6253167452936286, 5, 2614),
    ("nsxnd", (16, 8), 2.0, 0, "max"): (23.063121652639634, 318, 2614),
    ("nsxnd", (16, 8), 2.0, 1, "opt-queue"): (1.6405359067078802, 5, 2700),
    ("nsxnd", (16, 8), 2.0, 1, "max"): (8.110740740740741, 87, 2700),
    ("nsxnd", (16, 8), 2.0, 2, "opt-queue"): (1.6168507270599883, 5, 2798),
    ("nsxnd", (16, 8), 2.0, 2, "max"): (23.74982130092924, 350, 2798),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 0, "opt-queue"): (1.7740974922810142, 7, 638),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 0, "max"): (1.9404388714733547, 8, 638),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 1, "opt-queue"): (1.9790003704747294, 6, 650),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 1, "max"): (22.71846153846154, 104, 650),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 2, "opt-queue"): (1.7154025285889447, 7, 692),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 2, "max"): (2.888728323699422, 9, 692),
}

# Longer horizons, same reference.  Rows then mix packets of several arrival
# steps; d_avg is held to 1e-4 relative, extensions and counts exactly.
ROUNDED = {
    ("nx1-limited", None, 20.0, 0, "opt-queue"): (49.108493739086, 113, 9980),
    ("nx1-limited", None, 20.0, 2, "max"): (50.72769814602993, 149, 10760),
    ("nsxnd", (8, 4), 10.0, 0, "opt-queue"): (7.562471161530618, 17, 6390),
    ("nsxnd", (8, 4), 10.0, 1, "max"): (65.57381316998469, 388, 6530),
    ("multistage-16x12x8x6", (4, 3, 3, 2), 10.0, 2, "opt-queue"): (8.271752043233551, 19, 1680),
    ("multistage-16x12x8x6", (4, 3, 3, 2), 10.0, 2, "max"): (24.812499999999982, 95, 1680),
}


def _seeded_run(family, shape, horizon, k, policy):
    cfg = replace(preset(family), horizon=horizon)
    if shape is not None:
        cfg = replace(cfg, layer_sizes=shape)
    inst = sample_instance(cfg, np.random.default_rng([SEED, k]), k)
    sim = SimConfig(horizon=horizon, dt=cfg.dt, q0=inst.q0, discretize=True)
    run = tagged_run(inst.net, inst.arr, inst.svc, make_policy(policy, inst), sim)
    d_avg = empirical_report(run, inst.arr).d_avg
    return d_avg, round(run.extension / run.dt), int(run.origin_count.sum())


@pytest.mark.parametrize("case", sorted(EXACT, key=str), ids=str)
def test_short_horizon_runs_match_reference_exactly(case):
    assert _seeded_run(*case) == EXACT[case]


@pytest.mark.parametrize("case", sorted(ROUNDED, key=str), ids=str)
def test_long_horizon_runs_match_reference_up_to_rounding(case):
    d_avg, extension, count = _seeded_run(*case)
    ref_d, ref_ext, ref_count = ROUNDED[case]
    assert (extension, count) == (ref_ext, ref_count)
    assert abs(d_avg - ref_d) <= 1e-4 * ref_d


# ---------------------------------------------------------------------------
# Split helpers


def _allocate(amounts, total):
    """Reference split: ``total`` proportional to ``amounts`` (largest
    remainder, ties by position), each entry capped by ``amounts``."""
    weight = amounts.sum()
    if total <= 0 or weight <= 0:
        return np.zeros(len(amounts), dtype=np.int64)
    exact = amounts * (total / weight)
    base = np.floor(exact).astype(np.int64)
    rest = total - int(base.sum())
    if rest > 0:
        order = np.argsort(base - exact, kind="stable")
        base[order[:rest]] += 1
    return np.minimum(base, amounts)


def test_grant_split_matches_per_source_allocation():
    rng = np.random.default_rng(3)
    for _ in range(500):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 8)))
        seg = np.repeat(np.arange(sizes.size), sizes)
        want = rng.integers(0, 30, size=seg.size).astype(np.int64)
        want[np.bincount(seg, weights=want)[seg] == 0] += 1  # no empty budget
        weights = np.bincount(seg, weights=want).astype(np.int64)
        supply = rng.integers(0, weights)  # short of every budget
        starts = np.concatenate([[0], np.cumsum(sizes)])
        grant = _allocate_each(want, supply, weights, seg, np.arange(seg.size) - starts[seg])
        for s in range(sizes.size):
            part = slice(starts[s], starts[s + 1])
            reference = _allocate(want[part], int(supply[s]))
            assert np.array_equal(grant[part], reference)
            assert int(grant[part].sum()) == supply[s]
            assert np.all((grant[part] >= 0) & (grant[part] <= want[part]))
            exact = want[part] * (supply[s] / weights[s])
            assert np.all(np.abs(grant[part] - exact) < 1.0)


def _compacted_allocate_each(amounts, totals, weights, seg):
    """``_allocate_each`` as it was, on dense segment ids."""
    exact = amounts * (totals / weights)[seg]
    base = np.floor(exact).astype(np.int64)
    rest = totals - np.bincount(seg, weights=base, minlength=totals.size)
    order = np.lexsort((base - exact, seg))
    rank = np.arange(seg.size) - np.searchsorted(seg, seg)
    base[order[rank < rest[seg]]] += 1
    return np.minimum(base, amounts)


def _compacted_grant(layer, want, supply):
    """The grants of ``_IntegerSim.send`` as it computed them before the
    plan's source slots: the short sources' links compacted into dense
    segments each step.  Also returns whether a short source split over
    several links had a remainder to hand out."""
    total_want = np.add.reduceat(want, layer.starts)
    short = total_want > supply
    grant, remainder = want, False
    if short.any():
        grant = np.where(short[layer.src_of], supply[layer.src_of], want)
        links = np.flatnonzero(short[layer.src_of] & ~layer.single)
        if links.size:
            of = layer.src_of[links]
            first = np.concatenate(([True], of[1:] != of[:-1]))
            srcs, seg = of[first], np.cumsum(first) - 1
            grant[links] = _compacted_allocate_each(
                want[links], supply[srcs], total_want[srcs], seg
            )
            floors = np.floor(want[links] * (supply[srcs] / total_want[srcs])[seg])
            remainder = bool(np.any(supply[srcs] > np.bincount(seg, weights=floors)))
    return grant, remainder


def _split_net(rng):
    """A random layered net whose sources mix single out-links with fans
    over 1 to all next-layer nodes."""
    sizes = tuple(int(n) for n in rng.integers(1, 10, size=int(rng.integers(2, 6))))
    links = []
    for l in range(len(sizes) - 1):
        m = sizes[l + 1]
        for i in range(sizes[l]):
            k = 1 if rng.random() < 0.4 else int(rng.integers(1, m + 1))
            links += [Link(l, i, int(j), 10.0) for j in rng.choice(m, size=k, replace=False)]
    return LayeredNetwork(sizes, links)


def test_plan_segment_split_matches_compacted_split():
    """``send`` splits a short source's supply on the plan's own source
    slots, ranked by each link's offset from its source's first link, with
    the ranking skipped when no remainder is left; on one-layer plans and
    wavefront spans, with all, some or no sources short, it grants and
    takes exactly what the compacted split did."""
    seen = dict.fromkeys(
        ["all short", "some short", "none short", "short single link", "span",
         "remainder", "no remainder"], 0)
    for case in range(240):
        rng = np.random.default_rng([SEED, 14, case])
        net = _split_net(rng)
        sizes = net.layer_sizes
        sim = _IntegerSim(
            net, ArrivalProfile(np.ones(sizes[0])), ServiceProfile(np.ones(sizes[-1])),
            SimConfig(horizon=1.0, discretize=True),
        )
        first = int(rng.integers(net.num_layers - 1))
        last = int(rng.integers(first, net.num_layers - 1))
        span = net.plan_of(first, last)
        seen["span"] += last > first
        n = span.links.stop - span.links.start
        regime = ("all short", "some short", "none short")[case % 3]
        want = rng.integers(0 if case % 3 else 1, 9, size=n).astype(np.int64)
        total = np.add.reduceat(want, span.starts)
        if regime == "all short":
            supply = np.floor(total * rng.random(total.size)).astype(np.int64)
        elif regime == "some short":
            supply = rng.integers(0, 2 * total + 1)
        else:
            supply = total + rng.integers(0, 4, size=total.size)
        short = total > supply
        seen["all short" if short.all() else "some short" if short.any() else "none short"] += 1
        seen["short single link"] += bool((short & (span.ends - span.starts == 1)).any())
        expected, remainder = _compacted_grant(span, want.copy(), supply)
        if short.any():
            seen["remainder" if remainder else "no remainder"] += 1
        sim.q[:] = 0
        sim.q[span.srcs] = supply
        inflow = sim.send(span, want.copy())
        assert np.array_equal(sim.link_flow[span.links], expected), case
        assert np.array_equal(sim.q[span.srcs], supply - np.add.reduceat(expected, span.starts))
        if inflow is not None:
            assert np.array_equal(
                inflow, np.bincount(span.dst_local, weights=expected, minlength=span.next_width)
            )
        else:
            assert not expected.any()
    assert all(count >= 10 for count in seen.values()), seen


def test_allocate_each_on_source_slots_matches_dense_segments():
    rng = np.random.default_rng([SEED, 15])
    for _ in range(300):
        sizes = rng.integers(1, 7, size=int(rng.integers(2, 9)))
        slot = np.repeat(np.arange(sizes.size), sizes)
        pos = np.arange(slot.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        want = rng.integers(1, 30, size=slot.size).astype(np.int64)
        weights = np.bincount(slot, weights=want).astype(np.int64)
        supply = rng.integers(0, weights)
        keep = rng.random(sizes.size) < 0.6  # the short sources
        links = np.flatnonzero(keep[slot])
        if not links.size:
            continue
        seg = np.cumsum(keep) - 1
        expected = _compacted_allocate_each(
            want[links], supply[keep], weights[keep], seg[slot[links]]
        )
        for got in (
            _allocate_each(want[links], supply, weights, slot[links], pos[links]),
            _allocate_each(want[links], supply[keep], weights[keep], seg[slot[links]], pos[links]),
        ):
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# The tag pass


def test_take_carries_each_class_in_proportion():
    # a take of m packets from a row of n carries m/n of each class; whole
    # rows leave as they are, and the last column counts tagged positions
    curves = _Curves(np.array([4]), 3)
    inc = np.array([[10], [5]])
    mass = np.array([[[6.0, 2.0, 10.0]], [[5.0, 0.0, 5.0]]])
    assert curves.extend(inc, mass).tolist() == [[10.0], [15.0]]
    val = curves.at(np.array([[3], [9], [19]]))
    takes = np.diff(val[:, 0], axis=0, prepend=0.0)
    np.testing.assert_array_equal(takes, [[0, 0, 0], [3, 1, 5], [8, 1, 10]])
    np.testing.assert_array_equal(curves.end_mass - curves.gone, np.zeros((1, 3)))


def _recorded_inflow(monkeypatch):
    """Per curves object, in order of creation, the (inflow, masses) of
    every chunk the tag pass appends to it."""
    seen = {}
    extend = _Curves.extend

    def record(self, inc, mass):
        seen.setdefault(id(self), []).append((inc.copy(), mass.copy()))
        return extend(self, inc, mass)

    monkeypatch.setattr(_Curves, "extend", record)
    return seen


def test_parcel_goes_to_each_link_in_proportion_to_its_grant(monkeypatch):
    """A node that fans out over several links sends each of them the same
    class make-up per packet, since link j carries grant_j / moved of the
    take: at ingress, where a take mixes the backlog and two windows'
    classes, and past it, where it spans several partial rows.  A positional
    cut would send the oldest packets down the first link instead."""
    links = [Link(0, 0, 0, 5.0), Link(0, 0, 1, 5.0), Link(1, 0, 0, 5.0), Link(1, 1, 0, 5.0),
             Link(2, 0, 0, 5.0), Link(2, 0, 1, 5.0), Link(3, 0, 0, 5.0), Link(3, 1, 0, 5.0)]
    net = LayeredNetwork((1, 2, 1, 2, 1), links)
    rates = RateAssignment(net, [1.5, 1.2, 1.5, 1.2, 1.2, 0.7, 1.2, 0.7])
    cfg = SimConfig(horizon=12.0, dt=1.0, q0=np.array([3.0, 0, 0, 2.0, 0, 0, 0]),
                    discretize=True)
    seen = _recorded_inflow(monkeypatch)
    monkeypatch.setattr(discrete, "_CHUNK", 5)
    tagged_run(net, ArrivalProfile([3.0]), ServiceProfile([2.0]), rates, cfg, window=1.0)
    layers = list(seen.values())  # layers 2 to 5
    mixed = {}
    for layer in (0, 2):  # the two destinations of the fanned nodes
        mixed[layer] = 0
        for inc, mass in layers[layer]:
            for k in np.flatnonzero((inc > 0).all(axis=1)):
                classes = mass[k, :, :-1]
                np.testing.assert_allclose(classes[0] / inc[k, 0], classes[1] / inc[k, 1],
                                           rtol=1e-12)
                mixed[layer] += np.count_nonzero(classes[0]) > 1 or classes[0].sum() < inc[k, 0]
    assert mixed[0] >= 5 and mixed[2] >= 5, mixed


def test_window_stats_add_up_to_origin_totals(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=50.0, dt=1.0, q0=np.array([5.0, 0.0, 3.0]), discretize=True)
    run = tagged_run(net, arr, svc, rates, cfg, window=10.0)
    plain = tagged_run(net, arr, svc, rates, cfg)
    assert sorted({w for _, w in run.window_stats}) == [0, 1, 2, 3, 4]
    for i in range(2):
        cells = [v for (o, _), v in run.window_stats.items() if o == i]
        assert sum(c for _, c in cells) == run.origin_count[i]
        assert sum(s for s, _ in cells) == run.origin_sum[i]
    np.testing.assert_array_equal(run.origin_count, plain.origin_count)
    np.testing.assert_array_equal(run.origin_count, 50.0 * arr.rates)
    total = sum(s for s, _ in run.window_stats.values())
    assert total == pytest.approx(plain.origin_sum.sum())
    early, late = run.window_mean(0), run.window_mean(4)
    assert late > early  # overloaded: later arrivals wait longer


def _pass(instance, steps=6, q0=(4.0, 1.0, 2.0), window=None):
    """The kernel and the tag pass of a run of the two-source instance,
    ``steps`` steps in, and a function that runs and consumes one more
    chunk of the given length."""
    net, arr, svc, rates = instance
    cfg = SimConfig(horizon=10.0, dt=1.0, q0=np.array(q0), discretize=True)
    sim = _IntegerSim(net, arr, svc, cfg)
    tags = _Tags(net, sim.q.copy(), sim.dt, 10, window)
    at = [0]

    def chunk(size, corrupt=None):
        rows = np.empty((size + 1, net.num_nodes), np.int64)
        flows = np.empty((size + 1, net.num_links + 1), np.int64)
        rows[0], flows[0] = sim.q, np.concatenate([sim.link_flow, sim.served_total])
        _run_steps(sim, rates, _CapacityCheck(net), rows, flows, start=at[0])
        if corrupt is not None:
            corrupt(rows, flows)
        tags.consume(rows, flows, at[0])
        at[0] += size

    chunk(steps)
    tags.check()
    return sim, tags, chunk


def test_mass_balance_check_fires_on_corrupted_backlog(two_source_instance):
    sim, _, chunk = _pass(two_source_instance)
    sim.q[1] += 1
    with pytest.raises(EngineError, match="mass balance violated at step 6: residual -1"):
        chunk(1)


def test_node_balance_check_fires_on_corrupted_curves_or_flows(two_source_instance):
    # each node's cumulative inflow on its curves, less its departures,
    # holds its backlog, checked exactly every chunk
    _, tags, chunk = _pass(two_source_instance)
    tags.curves[0].end[0] += 1
    with pytest.raises(EngineError, match=r"curves of \(layer 2, node 1\) off its backlog by 1$"):
        chunk(1)

    # one served packet the flows missed
    _, _, chunk = _pass(two_source_instance)

    def unserved(rows, flows):
        flows[-1, -1] -= 1

    with pytest.raises(EngineError, match=r"curves of \(layer 2, node 1\) off its backlog by 1$"):
        chunk(2, unserved)


def test_class_balance_check_fires_on_corrupted_mass(two_source_instance):
    # per class, born = departed + in the system: beyond the tolerance of
    # 1e-9 of the class's born count it fires, within it it does not
    _, tags, _ = _pass(two_source_instance)
    held = tags.curves[0].end_mass
    c = int(np.flatnonzero(held[0, :-1] - tags.curves[0].gone[0, :-1])[0])
    born = tags.hi - tags.lo
    held[0, c] += 0.5e-9 * born[c, 0]
    tags.check()
    held[0, c] += 0.25
    with pytest.raises(EngineError, match=f"class {c}: residual -0.25"):
        tags.check()
    held[0, c] = np.nan
    with pytest.raises(EngineError, match=f"class {c}: residual nan"):
        tags.check()

    # an ingress curve at D one packet short of its departures
    _, tags, _ = _pass(two_source_instance)
    assert 0 < tags.taken[1, 0] < tags.hi[1, 0] - tags.lo[1, 0]  # class 1 leaves ingress
    tags.taken[1, 0] -= 1
    with pytest.raises(EngineError, match="class 1: residual -1$"):
        tags.check()


def test_outflow_check_fires_on_a_negative_class_take(two_source_instance):
    # the class curves of the egress node mirrored below zero: the next
    # take of each class is negative
    _, tags, chunk = _pass(two_source_instance)
    table = tags.curves[0].table  # key, rate and below per class and tagged
    table[..., [1, 2, 4, 5]] *= -1.0
    with pytest.raises(EngineError, match=r"outflow -[0-9.]+ of column 0 from \(layer 2, node 1\) "
                                          r"at step 6$"):
        chunk(4)


def test_negative_backlog_fails_the_step_that_makes_it(monkeypatch):
    # a grant moved from one short source's link to another short source's
    # link keeps the total mass, so only the per-node sign check sees that
    # the second source ships one packet more than it holds
    from fluidq import ArrivalProfile, RateAssignment, ServiceProfile, full_connection, run
    from fluidq import discrete

    original = discrete._allocate_each
    calls = []

    def misallocate(amounts, totals, weights, seg, pos=None):
        grant = original(amounts, totals, weights, seg, pos)
        if not calls:
            grant[np.flatnonzero((seg == 0) & (grant > 0))[0]] -= 1
            grant[np.flatnonzero(seg == 1)[0]] += 1
        calls.append(seg)
        return grant

    monkeypatch.setattr(discrete, "_allocate_each", misallocate)
    net = full_connection((3, 2), 5.0)
    arr, svc = ArrivalProfile([1.0, 1.0, 1.0]), ServiceProfile([1.0, 1.0])
    cfg = SimConfig(horizon=6.0, dt=1.0, discretize=True)
    with pytest.raises(
        EngineError, match=r"negative backlog -1 at step 0 on \(layer 1, node 2\)"
    ):
        run(net, arr, svc, RateAssignment(net, np.full(6, 5.0)), cfg)
    assert len(calls) == 1


def test_integer_mode_rejects_negative_rates(two_source_instance):
    # the policies hand the simulator unscanned rates, which are
    # nonnegative only on nonnegative inputs
    from fluidq import ArrivalProfile, ServiceProfile
    from fluidq.policies import QueueProportionalPolicy

    net, arr, svc, _ = two_source_instance
    cfg = SimConfig(horizon=5.0, dt=1.0, discretize=True)
    for bad_arr, bad_svc in ((arr, ServiceProfile([-1.0])), (ArrivalProfile([1.0, -1.0]), svc)):
        with pytest.raises(ValueError, match="nonnegative arrival rates, service rates"):
            tagged_run(net, bad_arr, bad_svc, QueueProportionalPolicy(), cfg)


def test_untagged_integer_run_keeps_exact_balance(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=30.0, dt=1.0, q0=np.array([4.0, 1.0, 2.0]), discretize=True)
    traj = engine_run(net, arr, svc, rates, cfg)
    born = np.floor(arr.rates * 30.0 + 1e-9).sum()
    assert traj.queues[-1].sum() == traj.queues[0].sum() + born - traj.served.sum()
    assert np.all(traj.queues == np.round(traj.queues))


@pytest.mark.parametrize("family", ["nsxnd", "tree", "multistage-16x12x8x6", "nx1-limited"])
def test_tagged_trajectory_matches_untagged_run_over_the_horizon(family):
    """A tagged run steps every policy one step at a time, and ``run``
    takes a static one along the diagonals: over the horizon both give the
    same queues and rates to the bit."""
    cfg = preset(family)
    schedules = set()
    for k in range(3):
        inst = sample_instance(cfg, np.random.default_rng([SEED, 15, k]), k)
        sim = SimConfig(horizon=6.0, dt=cfg.dt, q0=inst.q0, discretize=True)
        for name in cfg.policies:
            policy = make_policy(name, inst)
            schedules.add(type(policy).__name__)
            tagged = tagged_run(
                inst.net, inst.arr, inst.svc, policy, sim, keep_trajectory=True
            ).trajectory
            untagged = engine_run(inst.net, inst.arr, inst.svc, policy, sim)
            steps = untagged.num_steps
            assert steps == 6 and tagged.num_steps > steps
            for got, want in ((tagged.queues[: steps + 1], untagged.queues),
                              (tagged.rates[:steps], untagged.rates)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, name)
    assert "StaticPolicy" in schedules and len(schedules) > 1


@pytest.mark.parametrize("entry", [100000.5, 10.5])
def test_integer_mode_requires_an_exactly_integral_q0(two_source_instance, entry):
    # a tolerance that grows with the value would round 100000.5 silently
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=2.0, dt=1.0, q0=np.array([entry, 0.0, 0.0]), discretize=True)
    for simulate in (engine_run, tagged_run):
        with pytest.raises(ValueError, match="integer mode requires an integral q0"):
            simulate(net, arr, svc, rates, cfg)


def test_in_flight_error_names_the_mass_left_and_where():
    """The extension cap reports the tagged mass still in the network, to 3
    significant digits, and the node holding the most of it; the message is
    the same on every repeat of one input."""
    cfg = replace(preset("multistage-16x12x8x6"), layer_sizes=(8, 6, 4, 3))
    inst = sample_instance(cfg, np.random.default_rng([SEED, 2]), 2)
    sim_cfg = SimConfig(horizon=2.0, dt=cfg.dt, q0=inst.q0, discretize=True)
    messages = set()
    for _ in range(2):
        with pytest.raises(EngineError) as err:
            tagged_run(inst.net, inst.arr, inst.svc, make_policy("max", inst), sim_cfg,
                       max_extension_steps=1)
        messages.add(str(err.value))
    # the same run stepped by hand to the cap by the row-FIFO reference:
    # the horizon and one more step
    sim = fifo_reference.FifoSim(inst.net, inst.arr, inst.svc, make_policy("max", inst), sim_cfg)
    for k in range(sim._tag_steps + 1):
        sim.step(k)
    mass = sim.tagged_mass()
    assert mass.sum() == pytest.approx(sim.left.sum(), rel=1e-12) and mass.sum() > 0
    l, i = inst.net.node_coords(int(np.argmax(mass)))
    assert messages == {
        f"tagged mass {mass.sum():.3g} still in flight after 1 extension steps, "
        f"{mass.max():.3g} of it on (layer {l + 1}, node {i + 1})"
    }


@pytest.mark.parametrize("family", ["multistage-16x12x8x6", "multistage-6x8x12x16"])
def test_static_max_delays_are_balanced_as_the_closed_form_says(family):
    """Independent check against the closed form.  Under the static ``max``
    rates with q0 = 0 on a multistage network, ``analytic_report`` gives
    every origin the same delay, so d_max = d_avg.  With expected FIFO order
    the tagged run agrees to 2e-4 on instances 0-2 of both shapes; the tie
    rule it replaced left d_max 8% to 34% above d_avg there.  On nsxnd the
    same runs give d_max / d_avg - 1 of +3.0% to +6.2% against 0 in the
    closed form; that gap comes from the integer link split of short
    sources, not from FIFO order, so it is not bounded here."""
    cfg = preset(family)
    for k in range(3):
        inst = sample_instance(cfg, np.random.default_rng([SEED, k]), k)
        policy = make_policy("max", inst)
        closed = analytic_report(inst.net, inst.arr, inst.svc, policy.assignment, cfg.horizon)
        assert closed.d_max == pytest.approx(closed.d_avg, rel=1e-12)
        sim = SimConfig(horizon=cfg.horizon, dt=cfg.dt, discretize=True)
        run = empirical_report(tagged_run(inst.net, inst.arr, inst.svc, policy, sim), inst.arr)
        assert 0 <= run.d_max / run.d_avg - 1 <= 1e-3, (k, run.d_max, run.d_avg)


# ---------------------------------------------------------------------------
# Ingress corner cases.  Each case is pinned bit for bit to the values
# recorded with the pass over Newell's curves, after it matched the row-FIFO
# reference (test_ingress_cases_match_row_fifo_reference): (origin_sum,
# origin_count, extension steps, sorted window_stats).


def _ingress_case(name):
    """``(net, arr, svc, policy, cfg, window)`` of one ingress corner case."""
    from fluidq import ArrivalProfile, RateAssignment, ServiceProfile, single_sink

    if name.startswith("nsxnd"):
        # every ingress node fans out over 4 links and starts with a small
        # untagged backlog, so its first parcels mix untagged and tagged
        cfg = replace(preset("nsxnd"), layer_sizes=(8, 4))
        inst = sample_instance(cfg, np.random.default_rng([SEED, 0]), 0)
        q0 = np.full(inst.net.num_nodes, 2.0)
        sim = SimConfig(horizon=3.0, dt=cfg.dt, q0=q0, discretize=True)
        policy = make_policy(name.split(":")[1], inst)
        return inst.net, inst.arr, inst.svc, policy, sim, 1.0
    net = single_sink(2, [4.0, 2.0])
    svc = ServiceProfile([2.0])
    rates = RateAssignment.from_dict(net, {(0, 0, 0): 2.0, (0, 1, 0): 0.75})
    if name == "refill":
        # ingress 0 drains its backlog, then its arrivals (0.6 a step) and
        # its link budget (0.75 a step) fall out of phase: it empties and
        # refills several times within the horizon
        rates = RateAssignment.from_dict(net, {(0, 0, 0): 0.75, (0, 1, 0): 0.75})
        arr = ArrivalProfile([0.6, 3.0])
        cfg = SimConfig(horizon=20.0, dt=1.0, q0=np.array([1.0, 0.0, 1.0]), discretize=True)
        return net, arr, svc, rates, cfg, None
    if name == "windowed-q0":
        arr = ArrivalProfile([8.0, 3.0])
        cfg = SimConfig(horizon=20.0, dt=0.5, q0=np.array([5.0, 2.0, 3.0]), discretize=True)
        return net, arr, svc, rates, cfg, 5.0
    if name == "after-horizon":
        # both ingress nodes are overloaded, so untagged arrivals queue
        # behind tagged packets once the horizon is over
        arr = ArrivalProfile([8.0, 3.0])
        cfg = SimConfig(horizon=10.0, dt=1.0, q0=np.array([3.0, 1.0, 2.0]), discretize=True)
        return net, arr, svc, rates, cfg, None
    raise KeyError(name)


def _pinned_run(name):
    net, arr, svc, policy, cfg, window = _ingress_case(name)
    run = tagged_run(net, arr, svc, policy, cfg, window=window)
    return (
        run.origin_sum.tolist(), run.origin_count.tolist(),
        round(run.extension / run.dt), sorted(run.window_stats.items()),
    )


def _stepped_case(name, steps):
    """The row-FIFO reference stepped through one ingress corner case."""
    net, arr, svc, policy, cfg, window = _ingress_case(name)
    sim = fifo_reference.FifoSim(net, arr, svc, policy, cfg, window)
    for k in range(steps):
        sim.step(k)
        yield sim


INGRESS = {
    "after-horizon": ([2029.9999999999998, 775.0000000000001], [80.0, 30.0], 49, []),
    "nsxnd:max": ([685.5437033485857, 624.4102511653098, 890.3441381198727, 864.8671072725144,
       645.1736476610167, 573.446475511226, 875.4598611753584, 552.6817911624386],
      [231.0, 210.0, 297.0, 291.0, 216.0, 192.0, 294.0, 186.0], 11,
      [((0, 0), [82.66756261331119, 77.0]), ((0, 1), [228.23219501396608, 77.0]),
       ((0, 2), [374.6439457213085, 77.0]), ((1, 0), [74.76183857133717, 70.0]),
       ((1, 1), [208.04851899108073, 70.0]), ((1, 2), [341.5998936028918, 70.0]),
       ((2, 0), [105.09515474185467, 99.0]), ((2, 1), [297.2249568928636, 99.0]),
       ((2, 2), [488.0240264851544, 99.0]), ((3, 0), [104.03034183615863, 97.0]),
       ((3, 1), [288.0236832078254, 97.0]), ((3, 2), [472.81308222853045, 97.0]),
       ((4, 0), [76.51539873712406, 72.0]), ((4, 1), [215.24935749789364, 72.0]),
       ((4, 2), [353.4088914259991, 72.0]), ((5, 0), [67.97247646776574, 64.0]),
       ((5, 1), [191.3327622203499, 64.0]), ((5, 2), [314.1412368231103, 64.0]),
       ((6, 0), [104.66657399987203, 98.0]), ((6, 1), [291.75660246248384, 98.0]),
       ((6, 2), [479.0366847130025, 98.0]), ((7, 0), [66.21762844889864, 62.0]),
       ((7, 1), [184.131923713537, 62.0]), ((7, 2), [302.33223900000297, 62.0])]),
    "nsxnd:opt-queue": ([551.8743156635742, 502.7239347980466, 704.391844808868, 692.2765083369238,
       518.7607060113849, 460.52660507236345, 698.3446585583508, 446.54206015059304],
      [231.0, 210.0, 297.0, 291.0, 216.0, 192.0, 294.0, 186.0], 6,
      [((0, 0), [69.19037037037037, 77.0]), ((0, 1), [181.5806613756614, 77.0]),
       ((0, 2), [301.10328391754246, 77.0]), ((1, 0), [64.18142857142855, 70.0]),
       ((1, 1), [165.5048469387755, 70.0]), ((1, 2), [273.0376592878426, 70.0]),
       ((2, 0), [87.25256410256401, 99.0]), ((2, 1), [230.73626373626374, 99.0]),
       ((2, 2), [386.40301697004014, 99.0]), ((3, 0), [86.23547008547008, 97.0]),
       ((3, 1), [227.6850885225885, 97.0]), ((3, 2), [378.3559497288653, 97.0]),
       ((4, 0), [66.18279693486592, 72.0]), ((4, 1), [171.53134920634918, 72.0]),
       ((4, 2), [281.0465598701697, 72.0]), ((5, 0), [58.162083333333335, 64.0]),
       ((5, 1), [152.42939814814815, 64.0]), ((5, 2), [249.93512359088197, 64.0]),
       ((6, 0), [86.24999999999999, 98.0]), ((6, 1), [229.67599206349206, 98.0]),
       ((6, 2), [382.4186664948588, 98.0]), ((7, 0), [57.17111111111106, 62.0]),
       ((7, 1), [146.47353174603174, 62.0]), ((7, 2), [242.89741729345025, 62.0])]),
    "refill": ([5.0, 1830.0], [12.0, 60.0], 60, []),
    "windowed-q0": ([7955.0, 3040.0], [160.0, 60.0], 191,
      [((0, 0), [638.75, 40.0]), ((0, 1), [1538.75, 40.0]), ((0, 2), [2438.75, 40.0]),
       ((0, 3), [3338.75, 40.0]), ((1, 0), [253.75, 15.0]), ((1, 1), [591.25, 15.0]),
       ((1, 2), [928.75, 15.0]), ((1, 3), [1266.25, 15.0])]),
}


@pytest.mark.parametrize("case", sorted(INGRESS))
def test_ingress_corner_cases_match_fifo_rows_exactly(case):
    assert _pinned_run(case) == INGRESS[case]


def test_ingress_corner_cases_reach_their_corner():
    backlog = [int(sim.q[0]) for sim in _stepped_case("refill", 20)]
    first_empty = backlog.index(0)
    assert 0 < max(backlog[first_empty:])  # empties, then refills in the horizon

    *_, sim = _stepped_case("after-horizon", 10)
    assert np.all(sim.q[:2] > 0) and sim.held.any()

    (sim,) = _stepped_case("nsxnd:opt-queue", 1)
    ingress = sim.net.plan[0]
    fanned = ingress.ends - ingress.starts > 1
    assert np.any(fanned & (sim.out_pos > 2))  # a parcel took backlog and tagged
    assert not any(nid < sim.n_origin for nid in sim.fifo)


# ---------------------------------------------------------------------------
# Whole tagged runs, pinned.  SHA-256 over every run's origin_sum and
# origin_count bytes, extension, drain_steps and window_stats (or its
# failure message), recorded with the pass over Newell's curves after it
# matched the row-FIFO reference on the same runs
# (test_tag_pass_matches_row_fifo_reference).  Six seeded instances of each
# paper-sweep family, with q0 on every node, each with and without windows.

PINNED = {
    ("multistage-8x6x4x3", "bp"): "67e5b20e407b68e3eee2a14a63b443c83ef7cd8074e9185eeedddd3682c0a8dd",
    ("multistage-8x6x4x3", "max"): "e3f1ea656a3f6ba8fb6dadb5623f5d957d28f9827fa81670b814b5baa226b7f5",
    ("multistage-8x6x4x3", "opt-queue"): "b428c61a46e358250e31b155f2060a3af4721441c72adc7fffce83af1b86abe5",
    ("nsxnd-16x8", "bp"): "54e24b3c80532b51514643cafb083e509ac8a3d021616bbcae5086156ef2f01f",
    ("nsxnd-16x8", "max"): "07a2ebd921b603f7c0266d87144af04148aee9f7242ddf99bad59dac37e9bcd6",
    ("nsxnd-16x8", "opt-queue"): "520f7b7c1afe05f804d47cab2a7303c661eb4870ab430287c31301a111d67d47",
    ("nx1-limited", "bp"): "6a38f98f8abe89388ab8e5bf542f137d1ad8dec6fb44a09d82626d3a64f24d87",
    ("nx1-limited", "max"): "b8a07ab0dcbe6e640373b594d5f21c886d0e8d178abb40c8e016f1bff35c8ff1",
    ("nx1-limited", "opt-queue"): "431819fe237a4a22542849313d10e6407ab6cc4986dd80376047a05055855bc9",
    ("tree", "bp"): "72309037bc7c60712da7401c1649db52c4e2491c8f76cb79d017d66ba41a4034",
    ("tree", "max"): "26fab82e573a30624d617d303938dd8f98915dad8ab1d53e111eaa90c71fe18d",
    ("tree", "opt-tree"): "1eeac36385fad20f552a0764634202de326e2b281d26be2f8b5ff9648b3ba11d",
}


@pytest.mark.parametrize("family, policy", sorted(PINNED), ids=str)
def test_tagged_runs_match_pinned_digests(family, policy):
    digest = hashlib.sha256()
    for k in range(6):
        inst, cfg = _drain_case(family, k)
        for window in (None, cfg.horizon / 4):
            try:
                run = tagged_run(inst.net, inst.arr, inst.svc, make_policy(policy, inst), cfg,
                                 window=window)
            except EngineError as exc:
                digest.update(str(exc).encode())
                continue
            digest.update(run.origin_sum.astype("<f8").tobytes())
            digest.update(run.origin_count.astype("<f8").tobytes())
            digest.update(repr((run.extension, run.drain_steps,
                                sorted(run.window_stats.items()))).encode())
    assert digest.hexdigest() == PINNED[family, policy]


# ---------------------------------------------------------------------------
# Egress drain.  Once every tagged packet is at egress, tagged_run serves the
# egress layer alone; keep_trajectory=True steps the whole network to the
# end, so it is the full-step reference.

DRAIN_FAMILIES = {
    "nx1-limited": ("nx1-limited", None, 1.0),
    "nsxnd-16x8": ("nsxnd", (16, 8), 2.0),
    "tree": ("tree", None, 5.0),
    "multistage-8x6x4x3": ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0),
}


def _drain_case(family, k):
    """A seeded instance of one family with q0 drawn on every node."""
    name, shape, horizon = DRAIN_FAMILIES[family]
    cfg = replace(preset(name), horizon=horizon)
    if shape is not None:
        cfg = replace(cfg, layer_sizes=shape)
    rng = np.random.default_rng([SEED, 6, k])
    inst = sample_instance(cfg, rng, k)
    q0 = rng.integers(0, 6, size=inst.net.num_nodes).astype(float)
    return inst, SimConfig(horizon=horizon, dt=cfg.dt, q0=q0, discretize=True)


@pytest.mark.parametrize("policy", ["opt-queue", "bp", "max"])
@pytest.mark.parametrize("family", sorted(DRAIN_FAMILIES))
def test_drain_matches_full_steps_exactly(family, policy):
    drained = 0
    for k in range(2):
        inst, cfg = _drain_case(family, k)
        for window in (None, cfg.horizon / 4):
            fast, full = (
                tagged_run(inst.net, inst.arr, inst.svc, make_policy(policy, inst), cfg,
                           window=window, keep_trajectory=keep)
                for keep in (False, True)
            )
            assert np.array_equal(fast.origin_sum, full.origin_sum)
            assert np.array_equal(fast.origin_count, full.origin_count)
            assert fast.window_stats == full.window_stats
            assert fast.extension == full.extension
            assert full.drain_steps == 0
            assert fast.drain_steps <= round(fast.extension / fast.dt)
            drained += fast.drain_steps
    if policy != "opt-queue":
        assert drained > 0  # the baselines' runs end in the drain


def test_extension_cap_allows_exactly_its_steps(monkeypatch):
    # every packet goes to an egress node that never serves: both paths stop
    # after exactly max_extension_steps extension steps, with the same error
    from fluidq import ArrivalProfile, RateAssignment, ServiceProfile, full_connection

    net = full_connection((2, 2))
    svc = ServiceProfile([1.0, 0.0])
    rates = RateAssignment(net, np.array([0.0, 1.0, 0.0, 1.0]))
    arr = ArrivalProfile([1.0, 1.0])
    cfg = SimConfig(horizon=2.0, dt=1.0, discretize=True)

    calls = []  # steps taken per call: 1 per full step (its settle), n per drain
    settle, drain = _IntegerSim.settle, _Tags.drain

    def counted_settle(sim, k, served, row):
        calls.append(1)
        settle(sim, k, served, row)

    def counted_drain(tags, sim, steps):
        taken, done = drain(tags, sim, steps)
        calls.append(taken)
        return taken, done

    monkeypatch.setattr(_IntegerSim, "settle", counted_settle)
    monkeypatch.setattr(_Tags, "drain", counted_drain)
    for keep, n_calls in ((True, 7), (False, 3)):
        calls.clear()
        with pytest.raises(EngineError) as err:
            tagged_run(net, arr, svc, rates, cfg, keep_trajectory=keep,
                       max_extension_steps=5)
        assert str(err.value) == (
            "tagged mass 4 still in flight after 5 extension steps, 4 of it on (layer 2, node 2)"
        )
        assert sum(calls) == 2 + 5
        assert len(calls) == n_calls  # the drain takes all 5 extension steps at once


# ---------------------------------------------------------------------------
# The row-FIFO reference (tests/fifo_reference.py): the per-step bookkeeping
# the tag pass replaced.  Both carry m/n of a row's classes per take and
# split each take over the links in proportion to the grants, so they agree
# up to float rounding, and exactly on everything counted in integers.


def _outcome(simulate, *args, **kwargs):
    try:
        return simulate(*args, **kwargs)
    except EngineError as exc:
        return str(exc)


def _assert_matches_reference(net, arr, svc, policy, cfg, window):
    got = _outcome(tagged_run, net, arr, svc, policy, cfg, window=window)
    want = _outcome(fifo_reference.tagged_run, net, arr, svc, policy, cfg, window=window)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want  # the cap's message
        return
    np.testing.assert_array_equal(got.origin_count, want.origin_count)
    assert (got.extension, got.drain_steps) == (want.extension, want.drain_steps)
    np.testing.assert_allclose(got.origin_sum, want.origin_sum, rtol=1e-12, atol=0)
    assert got.window_stats.keys() == want.window_stats.keys()
    for key, (total, count) in want.window_stats.items():
        assert got.window_stats[key][1] == count
        assert got.window_stats[key][0] == pytest.approx(total, rel=1e-12, abs=0)


@pytest.mark.parametrize("family, policy", sorted(PINNED), ids=str)
def test_tag_pass_matches_row_fifo_reference(family, policy):
    for k in range(6):
        inst, cfg = _drain_case(family, k)
        for window in (None, cfg.horizon / 4):
            _assert_matches_reference(inst.net, inst.arr, inst.svc, make_policy(policy, inst),
                                      cfg, window)


@pytest.mark.parametrize("case", sorted(INGRESS))
def test_ingress_cases_match_row_fifo_reference(case):
    net, arr, svc, policy, cfg, window = _ingress_case(case)
    for w in (window, None if window else cfg.horizon / 4):
        _assert_matches_reference(net, arr, svc, policy, cfg, w)


def test_row_fifo_reference_reaches_the_cap():
    # the cap's message is compared above only if some case reaches it
    inst, cfg = _drain_case("tree", 0)
    for policy in ("bp", "max"):
        run = _outcome(fifo_reference.tagged_run, inst.net, inst.arr, inst.svc,
                       make_policy(policy, inst), cfg, max_extension_steps=3)
        assert run.startswith("tagged mass ") and run == _outcome(
            tagged_run, inst.net, inst.arr, inst.svc, make_policy(policy, inst), cfg,
            max_extension_steps=3)


# ---------------------------------------------------------------------------
# Chunks.  The kernel runs in chunks of at most discrete._CHUNK steps, and
# the pass consumes each as a whole; the outputs do not depend on where the
# chunks end.


def _run_bytes(run):
    return (run.origin_sum.tobytes(), run.origin_count.tobytes(), run.extension,
            run.drain_steps, sorted(run.window_stats.items()))


@pytest.mark.parametrize("family", sorted(DRAIN_FAMILIES))
def test_outputs_do_not_depend_on_chunk_length(family, monkeypatch):
    for k in range(2):
        inst, cfg = _drain_case(family, k)
        for policy in preset(DRAIN_FAMILIES[family][0]).policies:
            for window in (None, cfg.horizon / 4):
                seen = set()
                for chunk in (1, 7, 10**9):
                    monkeypatch.setattr(discrete, "_CHUNK", chunk)
                    run = _outcome(tagged_run, inst.net, inst.arr, inst.svc,
                                   make_policy(policy, inst), cfg, window=window)
                    seen.add(run if isinstance(run, str) else repr(_run_bytes(run)))
                assert len(seen) == 1, (k, policy, window)


def test_one_chunk_of_the_whole_run_matches_single_steps(two_source_instance):
    """The pass fed a whole run at once, or one step at a time, or 7 steps
    at a time, leaves the same class sums, and the same pending positions
    after the horizon (within it they count to the chunk's last arrival),
    to the bit."""
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=12.0, dt=1.0, q0=np.array([4.0, 1.0, 2.0]), discretize=True)
    steps = round(tagged_run(net, arr, svc, rates, cfg, window=4.0).extension) + 12
    sim = _IntegerSim(net, arr, svc, cfg)
    rows = np.empty((steps + 1, net.num_nodes), np.int64)
    flows = np.empty((steps + 1, net.num_links + 1), np.int64)
    rows[0], flows[0] = sim.q, 0
    _run_steps(sim, rates, _CapacityCheck(net), rows, flows)
    results = []
    for size in (1, 7, steps):
        tags = _Tags(net, rows[0].copy(), 1.0, 12, 4.0)
        pending = []
        for k in range(0, steps, size):
            part, _ = tags.consume(rows[k : k + size + 1], flows[k : k + size + 1], k)
            pending.append(part)
        tags.check()
        results.append((tags.class_steps.tobytes(), np.concatenate(pending)[11:].tobytes()))
        assert not np.concatenate(pending)[-1].any()  # every tagged packet has left
    assert results[0] == results[1] == results[2]
