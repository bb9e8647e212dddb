"""Integer-packet simulator: reference delays, split helpers, tagged
bookkeeping and its balance checks."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    EngineError,
    LayeredNetwork,
    Link,
    ServiceProfile,
    SimConfig,
    empirical_report,
    tagged_run,
)
from fluidq.bench import make_policy, preset, sample_instance
from fluidq.discrete import _allocate_each, _IntegerSim, _take
from fluidq.engine import run as engine_run

SEED = 20240811

# (family, layer sizes, horizon, instance, policy) -> (d_avg, extension
# steps, tagged packets), recorded with the per-packet-stamp simulator that
# preceded the FIFO-row one.  At these short horizons every tie a split
# resolves lies within one arrival step, so both simulators agree exactly.
EXACT = {
    ("nx1-limited", None, 1.0, 0, "opt-queue"): (34.50701402805611, 63, 499),
    ("nx1-limited", None, 1.0, 0, "max"): (38.4749498997996, 98, 499),
    ("nx1-limited", None, 1.0, 1, "opt-queue"): (32.93474088291747, 47, 521),
    ("nx1-limited", None, 1.0, 1, "max"): (35.1362763915547, 66, 521),
    ("nx1-limited", None, 1.0, 2, "opt-queue"): (31.817843866171003, 58, 538),
    ("nx1-limited", None, 1.0, 2, "max"): (34.25836431226766, 84, 538),
    ("nsxnd", (16, 8), 2.0, 0, "opt-queue"): (1.6247130833970926, 4, 2614),
    ("nsxnd", (16, 8), 2.0, 0, "max"): (23.063121652639634, 318, 2614),
    ("nsxnd", (16, 8), 2.0, 1, "opt-queue"): (1.64, 5, 2700),
    ("nsxnd", (16, 8), 2.0, 1, "max"): (8.110740740740741, 87, 2700),
    ("nsxnd", (16, 8), 2.0, 2, "opt-queue"): (1.6165117941386704, 4, 2798),
    ("nsxnd", (16, 8), 2.0, 2, "max"): (23.749821300929234, 350, 2798),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 0, "opt-queue"): (1.7758620689655173, 5, 638),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 0, "max"): (1.9404388714733543, 8, 638),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 1, "opt-queue"): (1.9753846153846153, 5, 650),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 1, "max"): (22.71846153846154, 104, 650),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 2, "opt-queue"): (1.7095375722543353, 4, 692),
    ("multistage-16x12x8x6", (8, 6, 4, 3), 2.0, 2, "max"): (2.888728323699422, 9, 692),
}

# Longer horizons, same reference.  Rows then mix packets of several arrival
# steps, and splits now round over origins instead of (stamp, origin)
# cells, so d_avg may move by rounding (at most 3.8e-5 relative here);
# extensions and counts stay exact.
ROUNDED = {
    ("nx1-limited", None, 20.0, 0, "opt-queue"): (49.10841683366734, 113, 9980),
    ("nx1-limited", None, 20.0, 2, "max"): (50.72788104089219, 148, 10760),
    ("nsxnd", (8, 4), 10.0, 0, "opt-queue"): (7.56244131455399, 16, 6390),
    ("nsxnd", (8, 4), 10.0, 1, "max"): (65.57381316998467, 388, 6530),
    ("multistage-16x12x8x6", (4, 3, 3, 2), 10.0, 2, "opt-queue"): (8.270238095238096, 17, 1680),
    ("multistage-16x12x8x6", (4, 3, 3, 2), 10.0, 2, "max"): (24.8125, 95, 1680),
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


def _reference_take(row, count):
    """The multi-pass take the one-pass ``_take`` replaced: a shortcut for
    single-class rows, else :func:`_allocate` plus a top-up where the caps
    bind.  Returns ``(take, path)``, ``path`` naming the branch taken."""
    if count >= row.sum():
        take = row.copy()
        row[:] = 0
        return take, "whole"
    filled = np.flatnonzero(row)
    path = "split"
    if filled.size == 1:
        take = np.zeros_like(row)
        take[filled] = count
        path = "one-class"
    else:
        take = _allocate(row, count)
        short = count - int(take.sum())
        if short > 0:
            room = row - take
            order = np.argsort(-room, kind="stable")
            before = np.cumsum(room[order]) - room[order]
            take[order] += np.clip(short - before, 0, room[order])
            path = "top-up"
    row -= take
    return take, "empty" if count == 0 else path


def _random_row(rng, width):
    row = rng.integers(0, 50, size=width)
    row[rng.random(width) < 0.4] = 0
    return row.astype(np.int64)


def test_take_matches_reference_bit_for_bit():
    # Rows as FIFOs hold them: a few dozen classes of up to a few hundred
    # packets, many of them empty.  The caps never bind there (the float
    # products lose no whole unit), so the top-up is reached with rows of
    # entries near 2**62, drawn with two filled entries or more: at that
    # size the reference's single-class shortcut is a different formula
    # from the general split, and the two differ by whole units.
    rng = np.random.default_rng(9)
    paths = {}
    for n in range(100_000):
        huge = n % 20 == 0
        width = int(rng.integers(2 if huge else 1, 34))
        row = rng.integers(0, 2**62 // width if huge else 300, size=width, dtype=np.int64)
        row[rng.random(width) < rng.random()] = 0
        if huge and np.count_nonzero(row) < 2:
            row[:2] = 2**61 // width
        total = int(row.sum())
        count = int(rng.integers(0, total + 3))
        ref_row, new_row = row.copy(), row.copy()
        ref, path = _reference_take(ref_row, count)
        take = _take(new_row, count, total if n % 2 else None)
        if ref.sum() > count:
            # past 2**53 the reference's floors can round up past count:
            # the take is the reference's with the excess trimmed off
            assert huge and take.dtype == ref.dtype and int(take.sum()) == count
            assert np.all(take >= 0) and np.all(take <= ref), (row, count)
            assert np.array_equal(new_row, row - take)
            path = "trimmed"
        else:
            assert take.dtype == ref.dtype and np.array_equal(take, ref), (row, count)
            assert np.array_equal(new_row, ref_row)
        paths[path] = paths.get(path, 0) + 1
    assert set(paths) == {"whole", "one-class", "split", "top-up", "empty", "trimmed"}, paths


def test_take_never_takes_more_than_asked_past_2_53():
    # rows of entries up to 2**62 / width: the float products round the
    # floors up past count in many of them, and the take trims the excess
    rng = np.random.default_rng(12)
    over = 0
    for _ in range(2000):
        width = int(rng.integers(2, 34))
        row = rng.integers(0, 2**62 // width, size=width, dtype=np.int64)
        count = int(rng.integers(0, int(row.sum())))
        before = row.copy()
        take = _take(row, count)
        assert int(take.sum()) == count
        assert np.all(take >= 0) and np.all(take <= before)
        assert np.array_equal(row, before - take)
        over += int(_reference_take(before.copy(), count)[0].sum()) > count
    assert over >= 500  # the reference over-takes on these rows


def test_take_removes_count_proportionally():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        row = _random_row(rng, int(rng.integers(1, 20)))
        total = int(row.sum())
        count = int(rng.integers(0, total + 3))
        before = row.copy()
        take = _take(row, count)
        assert int(take.sum()) == min(count, total)
        assert np.all(take >= 0) and np.all(row >= 0)
        assert np.array_equal(take + row, before)
        if 0 < count < total:
            assert np.all(np.abs(take - before * (count / total)) < 1.0)


def test_sequential_split_covers_parcel():
    # a parcel leaving a node is split over its out-links in grant order
    rng = np.random.default_rng(2)
    for _ in range(500):
        parcel = _random_row(rng, int(rng.integers(2, 12)))
        total = int(parcel.sum())
        if not total:
            continue
        cuts = np.sort(rng.integers(0, total + 1, size=int(rng.integers(1, 6))))
        grants = np.diff(np.concatenate([[0], cuts, [total]]))
        rest = parcel.copy()
        parts = [_take(rest, int(g)) for g in grants]
        assert [int(p.sum()) for p in parts] == [int(g) for g in grants]
        assert np.array_equal(np.sum(parts, axis=0), parcel)
        assert all(np.all(p >= 0) for p in parts)


def test_grant_split_matches_per_source_allocation():
    rng = np.random.default_rng(3)
    for _ in range(500):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 8)))
        seg = np.repeat(np.arange(sizes.size), sizes)
        want = rng.integers(0, 30, size=seg.size).astype(np.int64)
        want[np.bincount(seg, weights=want)[seg] == 0] += 1  # no empty budget
        weights = np.bincount(seg, weights=want).astype(np.int64)
        supply = rng.integers(0, weights)  # short of every budget
        grant = _allocate_each(want, supply, weights, seg)
        starts = np.concatenate([[0], np.cumsum(sizes)])
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
            None, SimConfig(horizon=1.0, discretize=True), track_packets=False,
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
            _allocate_each(want[links], supply, weights, slot[links]),
            _allocate_each(want[links], supply[keep], weights[keep], seg[slot[links]]),
        ):
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Tagged bookkeeping


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


def _stepped_sim(instance, steps=6):
    net, arr, svc, rates = instance
    cfg = SimConfig(horizon=10.0, dt=1.0, q0=np.array([4.0, 1.0, 2.0]), discretize=True)
    sim = _IntegerSim(net, arr, svc, rates, cfg, track_packets=True, keep_trajectory=False)
    for k in range(steps):
        sim.step(k)
    sim.check_classes()
    return sim


def test_mass_balance_check_fires_on_corrupted_backlog(two_source_instance):
    sim = _stepped_sim(two_source_instance)
    sim.q[1] += 1
    with pytest.raises(EngineError, match="mass balance violated at step 6: residual -1"):
        sim.step(6)


def test_class_balance_check_fires_on_corrupted_fifo(two_source_instance):
    sim = _stepped_sim(two_source_instance)
    nid = next(iter(sim.fifo))
    sim.fifo[nid][-1][-1] += 1  # one untagged packet too many in a FIFO
    with pytest.raises(EngineError, match="off its backlog by -1"):
        sim.check_classes()

    sim = _stepped_sim(two_source_instance)
    row = sim.fifo[nid][-1]
    c = int(np.flatnonzero(row[:-1])[0])
    row[c] -= 1  # a tagged packet relabelled untagged
    row[-1] += 1
    with pytest.raises(EngineError, match=f"class {c}: residual 1"):
        sim.check_classes()

    sim = _stepped_sim(two_source_instance)
    sim.held[nid] += 2
    with pytest.raises(EngineError, match="held off outstanding by -2"):
        sim.check_classes()


def test_class_balance_check_fires_on_corrupted_outstanding_count(two_source_instance):
    sim = _stepped_sim(two_source_instance)
    assert sim.outstanding == int(sim.born.sum() - sim.departed.sum()) > 0
    sim.outstanding += 1  # a departure the running count missed
    with pytest.raises(EngineError, match="outstanding count off born - departed by 1"):
        sim.check_classes()


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
    sim = _IntegerSim(net, arr, svc, rates, cfg, track_packets=False)
    sim.run_horizon()
    traj = sim.trajectory()
    born = np.floor(arr.rates * 30.0 + 1e-9).sum()
    assert traj.queues[-1].sum() == traj.queues[0].sum() + born - traj.served.sum()
    assert not sim.fifo and sim.outstanding == 0


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


# ---------------------------------------------------------------------------
# Ingress corner cases.  Each case is pinned bit for bit to the values that
# the FIFO-row ingress (before the position counters) recorded:
# (origin_sum, origin_count, extension steps, sorted window_stats).


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
    net, arr, svc, policy, cfg, window = _ingress_case(name)
    sim = _IntegerSim(net, arr, svc, policy, cfg, track_packets=True, window=window,
                      keep_trajectory=False)
    for k in range(steps):
        sim.step(k)
        yield sim


INGRESS = {
    "windowed-q0": ([7941.5, 3053.0], [160.0, 60.0], 190,
                    [((0, 0), [635.0, 40.0]), ((0, 1), [1535.5, 40.0]),
                     ((0, 2), [2435.5, 40.0]), ((0, 3), [3335.5, 40.0]),
                     ((1, 0), [257.0, 15.0]), ((1, 1), [594.5, 15.0]),
                     ((1, 2), [932.0, 15.0]), ((1, 3), [1269.5, 15.0])]),
    "refill": ([5.0, 1830.0], [12.0, 60.0], 60, []),
    "after-horizon": ([2029.0, 775.0], [80.0, 30.0], 48, []),
    "nsxnd:opt-queue": ([550.0, 501.0, 706.0, 693.0, 517.0, 459.0, 703.0, 445.0],
                        [231.0, 210.0, 297.0, 291.0, 216.0, 192.0, 294.0, 186.0], 6,
                        [((0, 0), [69.0, 77.0]), ((0, 1), [181.0, 77.0]),
                         ((0, 2), [300.0, 77.0]), ((1, 0), [64.0, 70.0]),
                         ((1, 1), [165.0, 70.0]), ((1, 2), [272.0, 70.0]),
                         ((2, 0), [87.0, 99.0]), ((2, 1), [232.0, 99.0]),
                         ((2, 2), [387.0, 99.0]), ((3, 0), [86.0, 97.0]),
                         ((3, 1), [228.0, 97.0]), ((3, 2), [379.0, 97.0]),
                         ((4, 0), [66.0, 72.0]), ((4, 1), [171.0, 72.0]),
                         ((4, 2), [280.0, 72.0]), ((5, 0), [58.0, 64.0]),
                         ((5, 1), [152.0, 64.0]), ((5, 2), [249.0, 64.0]),
                         ((6, 0), [88.0, 98.0]), ((6, 1), [230.0, 98.0]),
                         ((6, 2), [385.0, 98.0]), ((7, 0), [57.0, 62.0]),
                         ((7, 1), [146.0, 62.0]), ((7, 2), [242.0, 62.0])]),
    "nsxnd:max": ([686.0, 617.0, 885.0, 866.0, 651.0, 571.0, 884.0, 557.0],
                  [231.0, 210.0, 297.0, 291.0, 216.0, 192.0, 294.0, 186.0], 11,
                  [((0, 0), [84.0, 77.0]), ((0, 1), [227.0, 77.0]),
                   ((0, 2), [375.0, 77.0]), ((1, 0), [70.0, 70.0]),
                   ((1, 1), [206.0, 70.0]), ((1, 2), [341.0, 70.0]),
                   ((2, 0), [106.0, 99.0]), ((2, 1), [294.0, 99.0]),
                   ((2, 2), [485.0, 99.0]), ((3, 0), [104.0, 97.0]),
                   ((3, 1), [288.0, 97.0]), ((3, 2), [474.0, 97.0]),
                   ((4, 0), [78.0, 72.0]), ((4, 1), [218.0, 72.0]),
                   ((4, 2), [355.0, 72.0]), ((5, 0), [69.0, 64.0]),
                   ((5, 1), [190.0, 64.0]), ((5, 2), [312.0, 64.0]),
                   ((6, 0), [107.0, 98.0]), ((6, 1), [296.0, 98.0]),
                   ((6, 2), [481.0, 98.0]), ((7, 0), [69.0, 62.0]),
                   ((7, 1), [185.0, 62.0]), ((7, 2), [303.0, 62.0])]),
}


@pytest.mark.parametrize("case", sorted(INGRESS))
def test_ingress_corner_cases_match_fifo_rows_exactly(case):
    assert _pinned_run(case) == INGRESS[case]


def test_ingress_corner_cases_reach_their_corner():
    backlog = [int(sim.q[0]) for sim in _stepped_case("refill", 20)]
    first_empty = backlog.index(0)
    assert 0 < max(backlog[first_empty:])  # empties, then refills in the horizon

    *_, sim = _stepped_case("after-horizon", 10)
    assert np.all(sim.q[:2] > 0) and sim.outstanding > 0

    (sim,) = _stepped_case("nsxnd:opt-queue", 1)
    ingress = sim.net.plan[0]
    fanned = ingress.ends - ingress.starts > 1
    assert np.any(fanned & (sim.out_pos > 2))  # a parcel took backlog and tagged
    assert not any(nid < sim.n_origin for nid in sim.fifo)


def test_class_balance_check_fires_on_corrupted_ingress_counters():
    def sim_after_horizon():
        *_, sim = _stepped_case("after-horizon", 10)
        sim.check_classes()
        return sim

    sim = sim_after_horizon()
    sim.out_pos[1] += 1
    with pytest.raises(EngineError, match="ingress node 1 counters off its backlog by -1"):
        sim.check_classes()

    sim = sim_after_horizon()
    assert sim.out_pos[0] < sim.cls_hi[0]  # class 0 still has packets at ingress
    sim.cls_hi[0] -= 1
    with pytest.raises(EngineError, match="class 0: residual 1"):
        sim.check_classes()


# ---------------------------------------------------------------------------
# Whole tagged runs, pinned.  SHA-256 over every run's origin_sum and
# origin_count bytes, extension, drain_steps and window_stats (or its
# failure message), recorded with the multi-pass take, the summed
# outstanding count and the per-source ingress split that preceded the
# one-pass versions.  Six seeded instances of each paper-sweep family, with
# q0 on every node, each with and without windows.

PINNED = {
    ("nx1-limited", "opt-queue"): "ac9d8e7b612f0af2d9abde1b207593d3f1b213fc35efb3243e19a9b918837471",
    ("nx1-limited", "bp"): "bcd9927e5a4b0afec2ea8cffba592706c9cc67df63e2966dfc1701d3d415a2fd",
    ("nx1-limited", "max"): "b97b90c106d37531a420ba02a56f37a8bf636d267a65d2b303b9d38ba55c4988",
    ("nsxnd-16x8", "opt-queue"): "83c4b8ebb17530c68325842c52f429f17b340b45340d390227b14e7926afec85",
    ("nsxnd-16x8", "bp"): "13dd219d9530043d7a506876e4df792dea7ccabd08a9874720bc8cda1c1c1f67",
    ("nsxnd-16x8", "max"): "3540df772c5ae8d51ec1ee4d73d4db533c040f655fcadb5f95d9aae6ce6c6dcb",
    ("tree", "opt-tree"): "bd2dcd9446c857b4783ae4767cfe9e88ce1ed645dd7e7924610c5b860a156445",
    ("tree", "bp"): "27f7c527bfa9270f16c96a538daf11f05f5ace578676f324ccf513558c0f7c60",
    ("tree", "max"): "25f87003806b786c45a8458658f0c808f2133b34aa70fe41f604a4be265ae9e9",
    ("multistage-8x6x4x3", "opt-queue"): "759ded648645de2dcae0e59e575d84e3e7005511c37c9cf02224e0eb64032532",
    ("multistage-8x6x4x3", "bp"): "aadcb58a6e502e2b7e58c8d5146e13568084649dd82ebde672cb08de76661a0f",
    ("multistage-8x6x4x3", "max"): "3396c364bb424ea953d9657b421e3f32988c3beca558fcf8f7ba231ff82b9f70",
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

    calls = []  # steps taken per call: 1 per full step, n per drain
    step, drain = _IntegerSim.step, _IntegerSim.drain

    def counted_step(sim, k):
        calls.append(1)
        step(sim, k)

    def counted_drain(sim, steps):
        calls.append(drain(sim, steps))
        return calls[-1]

    monkeypatch.setattr(_IntegerSim, "step", counted_step)
    monkeypatch.setattr(_IntegerSim, "drain", counted_drain)
    for keep, n_calls in ((True, 7), (False, 3)):
        calls.clear()
        with pytest.raises(EngineError) as err:
            tagged_run(net, arr, svc, rates, cfg, keep_trajectory=keep,
                       max_extension_steps=5)
        assert str(err.value) == "4 tagged packets still in flight after 5 extension steps"
        assert sum(calls) == 2 + 5
        assert len(calls) == n_calls  # the drain takes all 5 extension steps at once
