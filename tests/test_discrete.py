"""Integer-packet simulator: reference delays, split helpers, tagged
bookkeeping and its balance checks."""
from dataclasses import replace

import numpy as np
import pytest

from fluidq import EngineError, SimConfig, empirical_report, tagged_run
from fluidq.bench import make_policy, preset, sample_instance
from fluidq.discrete import _allocate, _allocate_each, _IntegerSim, _take

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


def _random_row(rng, width):
    row = rng.integers(0, 50, size=width)
    row[rng.random(width) < 0.4] = 0
    return row.astype(np.int64)


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


def test_untagged_integer_run_keeps_exact_balance(two_source_instance):
    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(horizon=30.0, dt=1.0, q0=np.array([4.0, 1.0, 2.0]), discretize=True)
    sim = _IntegerSim(net, arr, svc, rates, cfg, track_packets=False)
    sim.run_horizon()
    traj = sim.trajectory()
    born = np.floor(arr.rates * 30.0 + 1e-9).sum()
    assert traj.queues[-1].sum() == traj.queues[0].sum() + born - traj.served.sum()
    assert not sim.fifo and sim.outstanding == 0
