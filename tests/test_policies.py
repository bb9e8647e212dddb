import math

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    QueueState,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    backpressure_rates,
    check_min_delay_layered,
    check_min_delay_single_sink,
    check_min_delay_tree,
    construct_rate_proportional,
    fan_in_tree,
    full_connection,
    max_link_rate_rates,
    parent_source_set,
    queue_proportional_rates,
    run,
    single_sink,
    tree_rate_proportional,
)
from fluidq.policies import QueueProportionalPolicy, proportional_fill

from conftest import adjacency, single_sink_rates
from test_analytics import random_min_delay_gamma


# ---------------------------------------------------------------------------
# single-sink region


def test_region_accepts_rate_proportional_point(two_source_instance):
    net, arr, svc, rates = two_source_instance
    assert check_min_delay_single_sink(net, arr, svc, rates).ok


def test_region_accepts_drain_branch_boundary():
    lam = np.array([4.0, 8.0, 6.0])
    net = single_sink(3, lam)
    arr, svc = ArrivalProfile(lam), ServiceProfile([9.0])
    result = check_min_delay_single_sink(net, arr, svc, single_sink_rates(net, lam))
    assert result.ok


def test_region_rejects_unbalanced_rates():
    lam = np.array([4.0, 8.0, 6.0])
    net = single_sink(3, 10.0)
    arr, svc = ArrivalProfile(lam), ServiceProfile([9.0])
    result = check_min_delay_single_sink(net, arr, svc, single_sink_rates(net, [3.0, 5.0, 4.0]))
    assert not result.ok
    assert "unequal ingress/egress ratios at layer 1" in result.reason


def test_region_rejects_capacity_and_throughput_violations(two_source_instance):
    net, arr, svc, _ = two_source_instance
    over = single_sink_rates(net, [4.0, 2.5])
    assert "capacity" in check_min_delay_single_sink(net, arr, svc, over).reason
    starved = single_sink_rates(net, [1.0, 0.375])
    assert "throughput" in check_min_delay_single_sink(net, arr, svc, starved).reason


def _nx1_region(lam, mu, caps, g):
    """The N x 1 min-delay region stated directly: inside the capacity box,
    and either the drain branch (every g_i >= lambda_i) or the proportional
    branch (one ratio g_i / lambda_i, total at least mu).  Returns the
    branch name, or None outside, and the branch's gamma."""
    if np.any(g > caps):
        return None, None
    if np.all(g >= lam):
        return "drain", (1.0, lam.sum() / mu)
    c = g / lam
    if np.ptp(c) <= 1e-12 * c.max() and g.sum() >= mu:
        return "proportional", (lam.sum() / g.sum(), g.sum() / mu)
    return None, None


def test_single_sink_check_is_the_nx1_region():
    """The layered wrapper agrees with the region on seeded draws that hit
    both branches, zero-rate sources, g == lambda and sum g == mu exactly,
    and the capacity box; its gamma is the branch's gamma."""
    rng = np.random.default_rng(20240811)
    seen = {"drain": 0, "proportional": 0, None: 0}
    for case in range(2500):
        n = int(rng.integers(1, 8))
        lam = rng.integers(1, 12, size=n).astype(float)
        caps = np.where(rng.random(n) < 0.5, math.inf, rng.uniform(0.5, 15.0, n))
        mu = float(rng.uniform(0.2, 1.2) * lam.sum())
        kind = case % 5
        if kind == 0:  # drain, often with g == lambda exactly
            g = lam * rng.choice([1.0, 1.5, 3.0], size=n)
        elif kind == 1:  # proportional; half with sum g == mu exactly
            c = float(rng.choice([0.25, 0.5, 0.75]))
            g = c * lam
            if case % 2:
                mu = float(g.sum())
        elif kind == 2:  # proportional but one source at zero
            g = rng.uniform(0.1, 1.0) * lam
            g[int(rng.integers(n))] = 0.0
        elif kind == 3:  # unstructured
            g = rng.uniform(0.0, 2.0, n) * lam
        else:  # some sources pinned at their capacity
            g = np.where(np.isinf(caps), lam, np.minimum(caps, lam * rng.uniform(0.5, 2.0)))
        net = single_sink(n, caps)
        arr, svc = ArrivalProfile(lam), ServiceProfile([mu])
        branch, gamma = _nx1_region(lam, mu, caps, g)
        result = check_min_delay_single_sink(net, arr, svc, single_sink_rates(net, g))
        assert result.ok == (branch is not None), (case, lam, g, mu, result)
        if branch is not None:
            assert np.allclose(result.gamma, gamma, rtol=1e-9, atol=0.0), case
        seen[branch] += 1
    assert min(seen.values()) >= 200


# ---------------------------------------------------------------------------
# 2-layer networks: the layered condition


def _outer_product_rates(net, lam, mu, scale=1.0):
    values = np.zeros(net.num_links)
    for k, link in enumerate(net.links):
        values[k] = scale * lam[link.src] * mu[link.dst] / lam.sum()
    return RateAssignment(net, values)


def test_two_layer_check_accepts_outer_product_construction():
    net = full_connection([2, 2])
    lam, mu = np.array([4.0, 8.0]), np.array([3.0, 2.0])
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    result = check_min_delay_layered(net, arr, svc, _outer_product_rates(net, lam, mu))
    assert result.ok
    # ingress ratio gamma_1 = sum(lam)/sum(mu), egress fed exactly mu
    assert result.gamma[0] == pytest.approx(lam.sum() / mu.sum())
    assert result.gamma[1] == pytest.approx(1.0)


def test_two_layer_check_rejects_wrong_egress_ratio():
    net = full_connection([2, 2])
    lam, mu = np.array([4.0, 8.0]), np.array([3.0, 2.0])
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    values = _outer_product_rates(net, lam, mu).values.copy()
    values[2] += 0.5
    values[3] -= 0.5  # row sums intact, column sums now off mu proportions
    result = check_min_delay_layered(net, arr, svc, RateAssignment(net, values))
    assert not result.ok
    assert result.reason == "unequal ingress/egress ratios at layer 2"
    assert result.residuals["layer_2_ratio_spread"] > 1e-3


def test_two_layer_check_rejects_starved_egress():
    net = full_connection([2, 2])
    lam, mu = np.array([4.0, 8.0]), np.array([3.0, 2.0])
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    result = check_min_delay_layered(
        net, arr, svc, _outer_product_rates(net, lam, mu, scale=0.5)
    )
    assert not result.ok and result.reason == "maximum throughput not achieved"


# ---------------------------------------------------------------------------
# layered condition


def test_layered_check_infers_worked_gamma_values():
    net = full_connection([3, 3, 3, 3])
    arr, svc = ArrivalProfile([2.0, 2.0, 2.0]), ServiceProfile([1.0, 1.0, 1.0])
    gamma = (1.0, 6 / 5, 5 / 4, 4 / 3)
    rates = construct_rate_proportional(net, arr, svc, gamma)
    result = check_min_delay_layered(net, arr, svc, rates)
    assert result.ok
    assert np.allclose(result.gamma, gamma, atol=1e-12)


def test_layered_check_single_sink_trivial_gamma(two_source_instance):
    _, arr, svc, _ = two_source_instance
    net = single_sink(2)  # unbounded so g = lambda fits
    rates = single_sink_rates(net, arr.rates)
    result = check_min_delay_layered(net, arr, svc, rates)
    assert result.ok
    assert result.gamma[0] == pytest.approx(1.0)
    assert result.gamma[1] == pytest.approx(arr.total / svc.total)


def test_layered_check_rejects_perturbed_link():
    net = full_connection([2, 2, 2])
    arr, svc = ArrivalProfile([6.0, 4.0]), ServiceProfile([3.0, 1.0])
    gamma = random_min_delay_gamma(np.random.default_rng(0), 3, 2.5)
    values = construct_rate_proportional(net, arr, svc, gamma).values.copy()
    values[2] *= 1.1
    result = check_min_delay_layered(net, arr, svc, RateAssignment(net, values))
    assert not result.ok and "unequal ingress/egress ratios" in result.reason


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_gamma_must_be_positive_and_finite(bad):
    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([6.0, 3.0]), ServiceProfile([2.0, 1.0])
    rates = construct_rate_proportional(net, arr, svc, (3.0, 1.0))
    with pytest.raises(ValueError, match="positive and finite"):
        check_min_delay_layered(net, arr, svc, rates, gamma=(bad, 1.0))


def test_checkers_fail_on_nan_deviations():
    """A NaN arrival rate makes the ratio deviations NaN; every checker
    must then fail instead of passing."""
    net = full_connection([2, 2])
    svc = ServiceProfile([2.0, 1.0])
    rates = construct_rate_proportional(net, ArrivalProfile([6.0, 3.0]), svc, (3.0, 1.0))
    nan_arr = ArrivalProfile([math.nan, 3.0])
    assert not check_min_delay_layered(net, nan_arr, svc, rates).ok
    sink = single_sink(2, [4.0, 2.0])
    verdict = check_min_delay_single_sink(
        sink, ArrivalProfile([8.0, math.nan]), ServiceProfile([2.0]),
        single_sink_rates(sink, [2.0, 0.75]),
    )
    assert not verdict.ok and math.isnan(verdict.residuals["layer_2_ratio_spread"])
    tree = fan_in_tree([2, 1], [[0, 0]], 10.0)
    assert not check_min_delay_tree(
        tree, ArrivalProfile([math.nan, 1.0]), ServiceProfile([1.0]),
        RateAssignment(tree, [1.0, 1.0]),
    ).ok


def test_construction_rejects_zero_total_service():
    with pytest.raises(ValueError, match="total service rate of mu must be positive, got 0"):
        construct_rate_proportional(
            full_connection([2, 1]), ArrivalProfile([1.0, 1.0]), ServiceProfile([0.0]), (1, 1)
        )


def test_construct_single_sink_identity():
    lam = np.array([4.0, 8.0])
    net = single_sink(2)
    arr, svc = ArrivalProfile(lam), ServiceProfile([3.0])
    rates = construct_rate_proportional(net, arr, svc, (1.0, lam.sum() / 3.0))
    assert np.allclose(rates.values, lam)


def test_construct_random_three_layer_passes_checker():
    rng = np.random.default_rng(9)
    net = full_connection([3, 3, 3])
    for _ in range(5):
        lam = rng.uniform(2.0, 9.0, size=3)
        mu = rng.uniform(0.5, 2.0, size=3)
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        gamma = random_min_delay_gamma(rng, 3, lam.sum() / mu.sum())
        rates = construct_rate_proportional(net, arr, svc, gamma)
        result = check_min_delay_layered(net, arr, svc, rates, gamma)
        assert result.ok
        assert max(result.residuals.values()) <= 1e-9


def test_construct_rejects_inconsistent_gamma_and_tight_capacity():
    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([2.0, 2.0])
    with pytest.raises(ValueError, match="gamma product"):
        construct_rate_proportional(net, arr, svc, (1.0, 1.0))
    tight = full_connection([2, 2], 0.5)
    with pytest.raises(ValueError, match="capacities"):
        construct_rate_proportional(tight, arr, svc, (3.0, 1.0))


# ---------------------------------------------------------------------------
# queue-proportional policy


def test_queue_proportional_minimal_budget_split(two_source_instance):
    net, _, svc, _ = two_source_instance
    state = QueueState(np.array([6.0, 3.0, 0.0]), 0.0)
    rates = queue_proportional_rates(state, net, svc)
    assert np.allclose(rates.values, [4 / 3, 2 / 3])


def test_queue_proportional_equal_queues_equal_rates():
    net = full_connection([3, 2])
    svc = ServiceProfile([2.0, 2.0])
    state = QueueState(np.array([5.0, 5.0, 5.0, 0.0, 0.0]), 0.0)
    rates = queue_proportional_rates(state, net, svc)
    egress = [rates.node_egress(n) for n in range(3)]
    assert np.allclose(egress, egress[0])
    assert sum(egress) == pytest.approx(4.0)


def test_queue_proportional_gamma_literal_with_throughput_floor():
    net = single_sink(2)
    svc = ServiceProfile([2.0])
    big = QueueState(np.array([60.0, 30.0, 0.0]), 0.0)
    rates = queue_proportional_rates(big, net, svc, gamma=(10.0, 1.0))
    assert np.allclose(rates.values, [6.0, 3.0])  # q/gamma above the floor
    small = QueueState(np.array([6.0, 3.0, 0.0]), 0.0)
    rates = queue_proportional_rates(small, net, svc, gamma=(10.0, 1.0))
    assert np.allclose(rates.values, [4 / 3, 2 / 3])  # floored to serve mu


def test_queue_proportional_ratio_converges_from_any_backlog():
    lam = np.array([8.0, 3.0])
    net = single_sink(2, 100.0)
    arr, svc = ArrivalProfile(lam), ServiceProfile([2.0])
    q0 = np.array([50.0, 10.0, 0.0])
    horizon = 100.0 * q0.max() / lam.min()
    traj = run(net, arr, svc, QueueProportionalPolicy(),
               SimConfig(horizon=horizon, dt=1.0, q0=q0, discretize=True))
    q = traj.final.q
    assert abs(q[0] / q[1] - lam[0] / lam[1]) / (lam[0] / lam[1]) < 0.01
    # the applied rates converge to the same proportion
    g_last = traj.rates[-1]
    assert abs(g_last[0] / g_last[1] - lam[0] / lam[1]) / (lam[0] / lam[1]) < 0.01


def test_queue_proportional_zero_backlog_matches_static_proportional():
    lam = np.array([8.0, 3.0])
    net = single_sink(2, 100.0)
    arr, svc = ArrivalProfile(lam), ServiceProfile([2.0])
    cfg = SimConfig(horizon=50.0, dt=0.01)
    dynamic = run(net, arr, svc, QueueProportionalPolicy(), cfg)
    static = run(net, arr, svc, single_sink_rates(net, lam * 2.0 / lam.sum()), cfg)
    assert np.allclose(dynamic.queues[-1], static.queues[-1], atol=1e-6)


def test_queue_proportional_waterfills_capacity_on_single_sink():
    net = single_sink(2, [1.0, 100.0])
    svc = ServiceProfile([3.0])
    state = QueueState(np.array([50.0, 10.0, 0.0]), 0.0)
    rates = queue_proportional_rates(state, net, svc)
    assert rates.values[0] == pytest.approx(1.0)  # saturated
    assert rates.values[1] == pytest.approx(2.0)  # picks up the slack
    assert rates.values.sum() == pytest.approx(3.0)


def _clip_warnings(caplog):
    return sum("throughput clause" in r.message for r in caplog.records)


def test_each_clipping_run_logs_its_own_warning(caplog):
    """Every run that clips logs a warning, not just the first in the
    process; a policy logs once per network and counts the clipped steps."""
    import logging

    net = single_sink(2, [0.5, 0.5])  # total capacity 1 < mu
    arr, svc = ArrivalProfile([3.0, 3.0]), ServiceProfile([4.0])
    cfg = SimConfig(horizon=5.0, dt=1.0, discretize=True)
    with caplog.at_level(logging.WARNING, logger="fluidq"):
        for expected in (1, 2):
            policy = QueueProportionalPolicy()
            run(net, arr, svc, policy, cfg)
            assert policy.clipped_steps == 5
            assert _clip_warnings(caplog) == expected
        other = single_sink(2, [0.5, 0.5])
        run(other, arr, svc, policy, cfg)  # same policy, new network
        assert policy.clipped_steps == 5
        assert _clip_warnings(caplog) == 3


def test_queue_proportional_rates_warns_on_every_clipped_call(caplog):
    import logging

    net = full_connection([2, 2], 0.5)  # per-link caps bind
    svc = ServiceProfile([2.0, 2.0])
    state = QueueState(np.array([4.0, 4.0, 0.0, 0.0]), 0.0)
    with caplog.at_level(logging.WARNING, logger="fluidq"):
        for _ in range(2):
            rates = queue_proportional_rates(state, net, svc)
            assert rates.values.max() == pytest.approx(0.5)
    assert _clip_warnings(caplog) == 2
    roomy = full_connection([2, 2], 10.0)
    caplog.clear()
    queue_proportional_rates(state, roomy, svc)
    assert _clip_warnings(caplog) == 0


# ---------------------------------------------------------------------------
# baselines


def test_backpressure_rule_and_ties():
    net = full_connection([1, 1], 7.0)
    svc = ServiceProfile([2.0])
    on = backpressure_rates(QueueState(np.array([5.0, 2.0]), 0.0), net, svc)
    assert on.values[0] == 7.0
    tie = backpressure_rates(QueueState(np.array([2.0, 2.0]), 0.0), net, svc)
    assert tie.values[0] == 0.0


def test_backpressure_two_source_activation_pattern(two_source_instance):
    net, arr, svc, _ = two_source_instance
    from fluidq import BackpressurePolicy

    traj = run(net, arr, svc, BackpressurePolicy(), SimConfig(horizon=10.0, dt=1.0))
    active = traj.rates > 0
    assert active[1:, 0].all()  # fast source always active once backlogged
    assert active[1:, 1].any() and not active[1:, 1].all()  # slow source toggles


def test_backpressure_requires_finite_capacity():
    net = single_sink(2)
    with pytest.raises(ValueError, match="unbounded"):
        backpressure_rates(QueueState(np.zeros(3), 0.0), net, ServiceProfile([1.0]))


def test_public_constructors_reject_nan_and_negative_rates():
    # the policy objects skip these scans inside a run; the public
    # functions and the run's capacity check keep rejecting bad vectors
    from fluidq import BackpressurePolicy, EngineError, Link, LayeredNetwork, tagged_run

    state = QueueState(np.array([5.0, 2.0]), 0.0)
    for cap, reason in ((math.nan, "non-finite rate nan"), (-1.0, "negative rate")):
        net = LayeredNetwork([1, 1], [Link(0, 0, 0, cap)])
        with pytest.raises(ValueError, match=reason):
            backpressure_rates(state, net, ServiceProfile([1.0]))
    net = full_connection([2, 2], 10.0)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite rate nan"):
        queue_proportional_rates(QueueState(q, 0.0), net, ServiceProfile([math.nan, 1.0]))
    with pytest.raises(ValueError, match="negative rate"):
        queue_proportional_rates(QueueState(q, 0.0), net, ServiceProfile([-1.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite rate nan"):
        RateAssignment(net, [math.nan, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="negative rate"):
        RateAssignment(net, [-1.0, 1.0, 1.0, 1.0])

    nan_net = LayeredNetwork([2, 1], [Link(0, 0, 0, math.nan), Link(0, 1, 0, 1.0)])
    arr = ArrivalProfile([1.0, 1.0])
    runs = (
        (nan_net, ServiceProfile([1.0]), BackpressurePolicy()),
        (net, ServiceProfile([math.nan, 1.0]), QueueProportionalPolicy()),
    )
    for run_net, svc, policy in runs:
        q0 = np.ones(run_net.num_nodes)
        with pytest.raises(EngineError, match="policy rates exceed capacity"):
            tagged_run(run_net, arr, svc, policy,
                       SimConfig(horizon=3.0, dt=1.0, q0=q0, discretize=True))


def test_max_link_rate_values_and_region_membership(two_source_instance):
    net, arr, svc, _ = two_source_instance
    rates = max_link_rate_rates(net)
    assert np.allclose(rates.values, [4.0, 2.0])
    # limited capacity with unequal c_i / lambda_i: outside the region
    assert not check_min_delay_single_sink(net, arr, svc, rates).ok
    # sufficient capacity (c_i >= lambda_i): inside
    roomy = single_sink(2, [9.0, 4.0])
    assert check_min_delay_single_sink(
        roomy, arr, svc, max_link_rate_rates(roomy)
    ).ok
    with pytest.raises(ValueError, match="unbounded"):
        max_link_rate_rates(single_sink(2))


# ---------------------------------------------------------------------------
# trees


@pytest.fixture
def three_layer_tree():
    net = fan_in_tree([6, 3, 1], [[0, 0, 1, 1, 2, 2], [0, 0, 0]])
    arr = ArrivalProfile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    svc = ServiceProfile([7.0])
    return net, arr, svc


def test_parent_source_sets(three_layer_tree):
    net, _, _ = three_layer_tree
    pss = parent_source_set(net)
    assert pss[net.node_id(1, 0)] == frozenset({0, 1})
    assert pss[net.node_id(1, 2)] == frozenset({4, 5})
    assert pss[net.node_id(2, 0)] == frozenset(range(6))


def test_tree_construction_matches_subtree_ratios(three_layer_tree):
    net, arr, svc = three_layer_tree
    rates = tree_rate_proportional(net, arr, svc)
    top = [rates[(1, i, 0)] for i in range(3)]
    assert np.allclose(np.array(top) / top[0], [1.0, 7.0 / 3.0, 11.0 / 3.0])
    assert check_min_delay_tree(net, arr, svc, rates).ok
    # scaled to serve the sink at full rate
    assert sum(top) == pytest.approx(7.0)


def test_single_chain_accepts_any_positive_max_throughput_rates():
    net = fan_in_tree([1, 1, 1], [[0], [0]])
    arr, svc = ArrivalProfile([5.0]), ServiceProfile([2.0])
    rates = RateAssignment(net, [4.0, 3.0])
    assert check_min_delay_tree(net, arr, svc, rates).ok
    starved = RateAssignment(net, [4.0, 1.0])
    assert not check_min_delay_tree(net, arr, svc, starved).ok


def test_layered_condition_implies_tree_condition():
    rng = np.random.default_rng(21)
    for _ in range(20):
        shape = [int(n) for n in sorted(rng.integers(1, 7, size=rng.integers(2, 5)))][::-1]
        shape[-1] = 1
        child_of = []
        for l in range(len(shape) - 1):
            row = [int(c) for c in rng.integers(0, shape[l + 1], size=shape[l])]
            for j in set(range(shape[l + 1])) - set(row):
                row[int(rng.integers(0, shape[l]))] = j
            if set(row) != set(range(shape[l + 1])):
                row = (list(range(shape[l + 1])) * shape[l])[: shape[l]]
            child_of.append(row)
        net = fan_in_tree(shape, child_of)
        if not net.is_fan_in_tree():
            continue
        lam = rng.uniform(1.0, 5.0, size=shape[0])
        arr = ArrivalProfile(lam)
        gamma = [float(g) for g in rng.uniform(1.0, 1.6, size=len(shape))]
        # choose mu so the egress clause closes with this gamma
        values = np.zeros(net.num_links)
        ingress = lam.copy()
        adj = adjacency(net)
        for l in range(len(shape) - 1):
            egress = ingress / gamma[l]
            nxt = np.zeros(shape[l + 1])
            for nid in net.layer_nodes(l):
                _, i = net.node_coords(nid)
                lk = adj.out[nid][0]
                values[lk] = egress[i]
                nxt[net.links[lk].dst] += egress[i]
            ingress = nxt
        mu = ingress / gamma[-1]
        svc = ServiceProfile(mu)
        rates = RateAssignment(net, values)
        assert check_min_delay_layered(net, arr, svc, rates).ok
        assert check_min_delay_tree(net, arr, svc, rates).ok


def test_tree_check_rejects_non_tree():
    net = full_connection([2, 2])
    with pytest.raises(ValueError, match="tree"):
        check_min_delay_tree(
            net, ArrivalProfile([1.0, 1.0]), ServiceProfile([1.0, 1.0]),
            RateAssignment(net, np.ones(4)),
        )


# ---------------------------------------------------------------------------
# region soundness against a brute-force oracle


def region_distance(point, lam, mu):
    """Euclidean distance from a 2-vector to the min-delay region."""
    lam = np.asarray(lam, dtype=float)
    p0 = lam * mu / lam.sum()
    seg = lam - p0
    t = np.clip(np.dot(point - p0, seg) / np.dot(seg, seg), 0.0, 1.0)
    d_segment = np.linalg.norm(point - (p0 + t * seg))
    d_polytope = np.linalg.norm(np.maximum(lam - point, 0.0))
    return min(d_segment, d_polytope)


def test_lattice_minima_sit_on_the_region():
    """Brute-force oracle: analytic metric minima over a rate lattice land
    within one cell of the region, and the region value is the lattice
    minimum."""
    rng = np.random.default_rng(17)
    for _ in range(2):
        lam = np.round(rng.uniform(12, 20, size=2))
        caps = np.round(rng.uniform(20, 35, size=2))
        mu = float(np.round(0.4 * lam.sum()))
        net = single_sink(2, caps)
        arr, svc = ArrivalProfile(lam), ServiceProfile([mu])
        grid1 = np.linspace(0.0, caps[0], 50)
        grid2 = np.linspace(0.0, caps[1], 50)
        closed_form = 100.0 / mu * max(lam.sum() - mu, 0.0)  # T=200
        best = math.inf
        argmins = []
        for g1 in grid1:
            for g2 in grid2:
                value = analytic_report(
                    net, arr, svc, single_sink_rates(net, [g1, g2]), 200.0
                ).d_avg
                if value < best - 1e-9:
                    best = value
                    argmins = [(g1, g2)]
                elif value <= best + 1e-9:
                    argmins.append((g1, g2))
        cell = math.hypot(caps[0] / 49, caps[1] / 49)
        assert best >= closed_form - 1e-9
        assert best <= closed_form + 1e-9  # some lattice point hits the region
        for point in argmins:
            assert region_distance(np.array(point), lam, mu) <= cell + 1e-9


def test_proportional_fill_waterfills_deterministically():
    x = proportional_fill([2.0, 1.0, 1.0], [10.0, 10.0, 10.0], 8.0)
    assert np.allclose(x, [4.0, 2.0, 2.0])
    x = proportional_fill([2.0, 1.0, 1.0], [1.0, 10.0, 10.0], 8.0)
    assert np.allclose(x, [1.0, 3.5, 3.5])
    x = proportional_fill([1.0, 0.0], [0.5, 5.0], 4.0)
    assert np.allclose(x, [0.5, 0.0])  # zero-weight entries stay unused
    assert proportional_fill([1.0, 1.0], [1.0, 1.0], 0.0).sum() == 0.0


def test_queue_ratio_error_decreases_after_burn_in():
    lam = np.array([8.0, 3.0])
    net = single_sink(2, 100.0)
    arr, svc = ArrivalProfile(lam), ServiceProfile([2.0])
    q0 = np.array([40.0, 25.0, 0.0])
    traj = run(net, arr, svc, QueueProportionalPolicy(),
               SimConfig(horizon=400.0, dt=0.1, q0=q0))
    target = lam[0] / lam[1]
    checkpoints = [int(k / traj.dt) for k in (50, 100, 200, 400)]
    errors = [
        abs(traj.queues[k, 0] / traj.queues[k, 1] - target) for k in checkpoints
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.01 * target
