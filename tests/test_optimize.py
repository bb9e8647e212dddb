import os
import re

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    InfeasibleError,
    ObjectiveSpec,
    ServiceProfile,
    SimConfig,
    balanced_growth_gamma,
    check_min_delay_layered,
    co_optimize,
    construct_rate_proportional,
    full_connection,
    load,
    overload_check,
    run,
    single_sink,
    throughput_tight_gamma,
)
from fluidq import lp, optimize

from conftest import ratio_rows


# ---------------------------------------------------------------------------
# simplex


def test_lp_solves_small_problem():
    # min -x - 2y  s.t.  x + y <= 4, x <= 2
    result = lp.solve_lp([-1.0, -2.0], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2])
    assert result.status == lp.OPTIMAL
    assert np.allclose(result.x, [0, 4])
    assert result.objective == pytest.approx(-8.0)
    # Bland's rule: x enters (x = 2), then y (y = 2), then the slack of
    # x <= 2, which drives x out
    assert (result.pivots, result.flips) == (3, 0)


def test_lp_handles_equalities_and_degenerate_rows():
    # min x + y  s.t.  x + y = 3, x - y <= 0
    result = lp.solve_lp([1.0, 1.0], a_ub=[[1, -1]], b_ub=[0], a_eq=[[1, 1]], b_eq=[3])
    assert result.status == lp.OPTIMAL
    assert result.objective == pytest.approx(3.0)
    # duplicated equality rows (redundant) still solve
    result = lp.solve_lp([1.0, 0.0], a_eq=[[1, 1], [1, 1]], b_eq=[2, 2])
    assert result.status == lp.OPTIMAL
    assert result.objective == pytest.approx(0.0)


def test_lp_detects_infeasible_and_unbounded():
    bad = lp.solve_lp([1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[3.0])
    assert bad.status == lp.INFEASIBLE
    assert bad.infeasible_rows
    free = lp.solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert free.status == lp.UNBOUNDED


def test_lp_negative_rhs_normalization():
    # x >= 2 encoded as -x <= -2
    result = lp.solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    assert result.status == lp.OPTIMAL
    assert result.x[0] == pytest.approx(2.0)


def test_lp_upper_bounds_replace_rows():
    # the first test's problem with x <= 2 as a bound instead of a row
    result = lp.solve_lp([-1.0, -2.0], a_ub=[[1, 1]], b_ub=[4], upper=[2.0, np.inf])
    assert result.status == lp.OPTIMAL
    assert np.allclose(result.x, [0, 4])
    # y <= 3 binds: x takes the rest of the row
    result = lp.solve_lp([-1.0, -2.0], a_ub=[[1, 1]], b_ub=[4], upper=[2.0, 3.0])
    assert np.allclose(result.x, [1, 3])
    assert result.objective == pytest.approx(-7.0)
    # a bound of 0 fixes the variable
    result = lp.solve_lp([-1.0, -2.0], a_ub=[[1, 1]], b_ub=[4], upper=[2.0, 0.0])
    assert np.allclose(result.x, [2, 0])


def test_lp_without_rows_goes_to_the_cheaper_end_of_each_range():
    result = lp.solve_lp([-1.0, 2.0, 0.0], upper=[3.0, 4.0, np.inf])
    assert result.status == lp.OPTIMAL
    assert np.array_equal(result.x, [3.0, 0.0, 0.0])
    assert result.objective == -3.0
    assert lp.solve_lp([-1.0, 2.0]).status == lp.UNBOUNDED


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": [np.nan, 1.0], "a_ub": [[1, 1]], "b_ub": [1]},
        {"c": [1.0, 1.0], "a_ub": [[1, np.inf]], "b_ub": [1]},
        {"c": [1.0, 1.0], "a_eq": [[1, 1]], "b_eq": [np.nan]},
        {"c": [1.0, 1.0], "a_ub": [[1, 1]], "b_ub": [1], "upper": [1.0, np.nan]},
        {"c": [1.0, 1.0], "a_ub": [[1, 1]], "b_ub": [1], "upper": [1.0, -1.0]},
        {"c": [1.0, 1.0], "a_ub": [[1, 1]], "b_ub": [1], "upper": [1.0]},
    ],
)
def test_lp_rejects_non_finite_input_and_bad_bounds(kwargs):
    with pytest.raises(ValueError):
        lp.solve_lp(**kwargs)


# ---------------------------------------------------------------------------
# overload verdicts


def test_capacity_bound_instance_is_overloaded(two_source_instance):
    net, arr, svc, _ = two_source_instance
    verdict = overload_check(net, arr, svc)
    assert verdict.overloaded and verdict.witness is None


def test_underloaded_instance_has_valid_witness():
    net = single_sink(2)
    arr, svc = ArrivalProfile([1.0, 1.0]), ServiceProfile([3.0])
    verdict = overload_check(net, arr, svc)
    assert not verdict.overloaded
    w = verdict.witness
    assert w.node_egress(0) >= 1.0 - 1e-9 and w.node_egress(1) >= 1.0 - 1e-9
    assert w.node_ingress(2) <= 3.0 + 1e-9


def test_boundary_feasible_counts_as_not_overloaded():
    net = single_sink(1, 2.0)
    verdict = overload_check(net, ArrivalProfile([2.0]), ServiceProfile([2.0]))
    assert not verdict.overloaded


def test_demand_above_service_is_overloaded_at_scale():
    rng = np.random.default_rng(1)
    lam = np.round(rng.uniform(12, 20, size=32))
    net = single_sink(32, np.round(rng.uniform(20, 35, size=32)))
    arr = ArrivalProfile(lam)
    svc = ServiceProfile([np.round(0.4 * lam.sum())])
    assert overload_check(net, arr, svc).overloaded


def test_witness_keeps_queues_bounded():
    net = full_connection([2, 2, 2], 4.0)
    arr, svc = ArrivalProfile([1.5, 2.0]), ServiceProfile([3.0, 3.0])
    verdict = overload_check(net, arr, svc)
    assert not verdict.overloaded
    cfg = SimConfig(horizon=100.0, dt=0.01)
    traj = run(net, arr, svc, verdict.witness, cfg)
    assert traj.queues.max() <= 0.1  # transient only; nothing accumulates


@pytest.mark.parametrize("bad", [np.nan, 5.0])
def test_overload_witness_is_checked_against_rows_and_bounds(monkeypatch, bad):
    """A max flow that reaches the total arrival rate but carries a NaN link
    flow, or one above its link's capacity (a bound, not a row), fails the
    residual check."""
    net = single_sink(2, [4.0, 4.0])
    arr, svc = ArrivalProfile([1.0, 1.0]), ServiceProfile([10.0])
    x = np.array([bad, 1.0])
    monkeypatch.setattr(optimize, "_max_flow", lambda *a: (arr.total, x, []))
    with pytest.raises(lp.SimplexError, match="witness violates"):
        overload_check(net, arr, svc)


def test_overload_check_rejects_infinite_rates():
    net = single_sink(1)
    for arr, svc in [([np.inf], [1.0]), ([1.0], [np.inf])]:
        with pytest.raises(ValueError, match="non-finite rate"):
            overload_check(net, ArrivalProfile(arr), ServiceProfile(svc))


# ---------------------------------------------------------------------------
# gamma choices


def test_balanced_gamma_worked_values():
    assert balanced_growth_gamma(ArrivalProfile([10.0]), ServiceProfile([4.0]), 2) == (
        pytest.approx(10 / 7),
        pytest.approx(7 / 4),
    )
    assert balanced_growth_gamma(ArrivalProfile([12.0]), ServiceProfile([4.0]), 4) == (
        pytest.approx(12 / 10),
        pytest.approx(10 / 8),
        pytest.approx(8 / 6),
        pytest.approx(6 / 4),
    )
    assert balanced_growth_gamma(ArrivalProfile([5.0]), ServiceProfile([5.0]), 3) == (
        1.0,
        1.0,
        1.0,
    )


def test_balanced_gamma_rejects_a_nan_total():
    # NaN passes a "<= 0" test; the ratios would all be NaN
    with pytest.raises(ValueError, match="balanced-growth ratios undefined"):
        balanced_growth_gamma(ArrivalProfile([np.nan, 1.0]), ServiceProfile([1.0]), 3)


def test_tight_gamma_rejects_a_zero_service_total():
    with pytest.raises(ValueError, match="^total service rate of mu must be positive, got 0$"):
        throughput_tight_gamma(ArrivalProfile([2.0]), ServiceProfile([0.0]), 2)


def test_balanced_gamma_equalizes_layer_growth():
    rng = np.random.default_rng(2)
    for _ in range(5):
        lam = rng.uniform(2.0, 8.0, size=3)
        mu = rng.uniform(0.3, 1.0, size=3)
        net = full_connection([3, 2, 3])
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        gamma = balanced_growth_gamma(arr, svc, 3)
        rates = construct_rate_proportional(net, arr, svc, gamma)
        target = (lam.sum() - mu.sum()) / 3
        ingress_growth = lam.sum() - sum(rates.node_egress(n) for n in net.layer_nodes(0))
        middle_growth = sum(
            rates.node_ingress(n) - rates.node_egress(n) for n in net.layer_nodes(1)
        )
        egress_growth = sum(rates.node_ingress(n) for n in net.layer_nodes(2)) - mu.sum()
        for growth in (ingress_growth, middle_growth, egress_growth):
            assert abs(growth - target) <= 1e-9


# ---------------------------------------------------------------------------
# co-optimization


def test_total_bandwidth_single_sink_hits_service_rate(two_source_instance):
    _, arr, svc, _ = two_source_instance
    net = single_sink(2)
    rates, value = co_optimize(net, arr, svc, ObjectiveSpec("total_bandwidth"))
    assert value == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(rates.values, [16 / 11, 6 / 11], atol=1e-8)


def test_total_bandwidth_equals_service_total_per_layer():
    rng = np.random.default_rng(3)
    for sizes in ((4, 1), (2, 2, 2)):
        lam = rng.uniform(2.0, 9.0, size=sizes[0])
        mu = rng.uniform(0.4, 1.2, size=sizes[-1])
        net = full_connection(sizes)
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        rates, value = co_optimize(net, arr, svc, ObjectiveSpec("total_bandwidth"))
        assert value == pytest.approx((len(sizes) - 1) * mu.sum(), abs=1e-8)
        for l in range(len(sizes) - 1):
            layer_total = sum(rates.node_egress(n) for n in net.layer_nodes(l))
            assert layer_total == pytest.approx(mu.sum(), abs=1e-8)


def test_optimizer_output_passes_the_checker():
    net = full_connection([2, 2, 2])
    arr, svc = ArrivalProfile([6.0, 4.0]), ServiceProfile([3.0, 1.0])
    gamma = balanced_growth_gamma(arr, svc, 3)
    rates, _ = co_optimize(net, arr, svc, ObjectiveSpec("total_bandwidth"), gamma)
    result = check_min_delay_layered(net, arr, svc, rates, gamma, tol=1e-8)
    assert result.ok


def test_forced_zero_reroutes_while_preserving_clauses():
    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    spec = ObjectiveSpec("total_bandwidth", forced_zero=((0, 0, 0),))
    rates, _ = co_optimize(net, arr, svc, spec)
    assert rates[(0, 0, 0)] == pytest.approx(0.0, abs=1e-9)
    assert check_min_delay_layered(net, arr, svc, rates, tol=1e-8).ok


def test_nonexistent_forced_zero_link_is_named_in_file_form():
    net = full_connection([2, 2], 5.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    spec = ObjectiveSpec("total_bandwidth", forced_zero=((8, 8, 8),))
    with pytest.raises(ValueError, match="^forced-zero link 9:9:9 does not exist$"):
        co_optimize(net, arr, svc, spec)


def test_infeasible_routing_is_reported_with_binding_constraints():
    net = full_connection([1, 2])
    arr, svc = ArrivalProfile([6.0]), ServiceProfile([2.0, 2.0])
    # the only source cannot reach d1 yet d1 must be fed mu_1
    spec = ObjectiveSpec("total_bandwidth", forced_zero=((0, 0, 0),))
    with pytest.raises(InfeasibleError) as exc:
        co_optimize(net, arr, svc, spec)
    assert exc.value.binding


def test_gamma_product_mismatch_is_rejected():
    net = single_sink(2)
    arr, svc = ArrivalProfile([8.0, 3.0]), ServiceProfile([2.0])
    with pytest.raises(InfeasibleError, match="gamma product"):
        co_optimize(net, arr, svc, ObjectiveSpec("total_bandwidth"), gamma=(2.0, 2.0))


def test_lp_homogeneity_in_traffic_scale():
    net = full_connection([2, 2])
    lam, mu = np.array([4.0, 8.0]), np.array([3.0, 2.0])
    base, _ = co_optimize(
        net, ArrivalProfile(lam), ServiceProfile(mu), ObjectiveSpec("total_bandwidth")
    )
    scaled, _ = co_optimize(
        net, ArrivalProfile(3 * lam), ServiceProfile(3 * mu),
        ObjectiveSpec("total_bandwidth"),
    )
    assert np.allclose(scaled.values, 3 * base.values, atol=1e-8)


def test_max_utilization_objective_spreads_load():
    net = full_connection([2, 2], 4.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    rates, value = co_optimize(net, arr, svc, ObjectiveSpec("max_utilization"))
    assert value == pytest.approx(np.max(rates.values / 4.0), abs=1e-8)
    # any single-link utilization is a lower bound certificate
    assert value <= 1.0 + 1e-9
    assert check_min_delay_layered(net, arr, svc, rates, tol=1e-8).ok


def test_avg_utilization_and_caps():
    net = full_connection([2, 2], 6.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    spec = ObjectiveSpec("avg_utilization", utilization_cap=0.9, split_cap=0.8)
    rates, value = co_optimize(net, arr, svc, spec)
    assert value == pytest.approx(np.mean(rates.values / 6.0), abs=1e-8)
    assert np.all(rates.values <= 0.9 * 6.0 + 1e-8)
    # split cap: no link carries more than 80% of its source's inflow
    for k, link in enumerate(net.links):
        assert rates.values[k] <= 0.8 * arr.rates[link.src] + 1e-8


def test_max_overload_and_layer_growth_objectives():
    net = full_connection([2, 2, 2])
    arr, svc = ArrivalProfile([6.0, 4.0]), ServiceProfile([3.0, 1.0])
    rates, value = co_optimize(net, arr, svc, ObjectiveSpec("max_overload_rate"))
    growths = []
    for nid in range(net.num_nodes):
        l, i = net.node_coords(nid)
        inflow = arr.rates[i] if l == 0 else rates.node_ingress(nid)
        outflow = svc.rates[i] if l == 2 else rates.node_egress(nid)
        growths.append(inflow - outflow)
    assert value == pytest.approx(max(growths), abs=1e-8)

    rates, value = co_optimize(net, arr, svc, ObjectiveSpec("max_layer_growth"))
    # balanced-growth default gamma: every layer grows at the same rate
    assert value == pytest.approx((arr.total - svc.total) / 3, abs=1e-8)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec("nope")
    with pytest.raises(ValueError):
        ObjectiveSpec("total_bandwidth", split_cap=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec("total_bandwidth", utilization_cap=1.5)


def test_objective_spec_rejects_a_malformed_forced_zero():
    """A string was formatted character by character, and a short key was
    named as a link that does not exist."""
    with pytest.raises(
        ValueError, match=r"^forced_zero must be a tuple of \(l, i, j\) link keys, got '1:1:1'$"
    ):
        ObjectiveSpec("total_bandwidth", forced_zero="1:1:1")
    for bad in ((0, 0), (-1, 0, 0), (0, 0, True), (0, 0, 0.0), [0, 0, 0]):
        with pytest.raises(ValueError, match=(
            r"^forced-zero link key must be three nonnegative ints \(l, i, j\), got "
            + re.escape(repr(bad)) + "$"
        )):
            ObjectiveSpec("total_bandwidth", forced_zero=(bad,))
    key = (np.int64(0), 1, 1)
    assert ObjectiveSpec("total_bandwidth", forced_zero=(key,)).forced_zero == (key,)


@pytest.mark.parametrize("field", ["split_cap", "utilization_cap"])
def test_objective_spec_caps_must_be_real_numbers(field):
    name = field.replace("_", " ")
    for bad in ("x", True, [0.5], 0.5j):
        with pytest.raises(ValueError, match=rf"^{name} must be a number in \(0, 1\], got "):
            ObjectiveSpec("total_bandwidth", **{field: bad})
    with pytest.raises(ValueError, match=rf"^{name} must be in \(0, 1\]$"):
        ObjectiveSpec("total_bandwidth", **{field: float("nan")})
    for good in (1, 0.5, np.float64(0.25)):
        assert getattr(ObjectiveSpec("total_bandwidth", **{field: good}), field) == good


def test_max_utilization_on_multistage_instance_matches_highs():
    """Round-off left on unused middle nodes used to fail the ratio check
    (SimplexError) on this instance; the rates are now snapped to zero.
    The value is HiGHS's optimum of the epigraph form, min t with
    g_k <= c_k t over the throughput-tight ratio rows, both written here
    from the instance."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    from dataclasses import replace

    from fluidq.bench import preset, sample_instance

    cfg = replace(preset("multistage-16x12x8x6"), layer_sizes=(8, 6, 4, 3))
    inst = sample_instance(cfg, np.random.default_rng([20240811, 1, 0]), 0)
    rates, value = co_optimize(inst.net, inst.arr, inst.svc, ObjectiveSpec("max_utilization"))
    net, m = inst.net, inst.net.num_links
    gamma = throughput_tight_gamma(inst.arr, inst.svc, net.num_layers)
    a_eq, b_eq = ratio_rows(net, inst.arr, inst.svc, gamma)
    finite = np.flatnonzero(np.isfinite(net.capacities))
    epi = np.zeros((finite.size, m + 1))
    epi[np.arange(finite.size), finite] = 1.0
    epi[:, m] = -net.capacities[finite]
    caps = [(0.0, None if np.isinf(u) else u) for u in net.capacities]
    epigraph = scipy_opt.linprog(
        np.eye(m + 1)[m], A_ub=epi, b_ub=np.zeros(finite.size),
        A_eq=np.column_stack([a_eq, np.zeros(len(a_eq))]), b_eq=b_eq,
        bounds=caps + [(0.0, None)], method="highs",
    )
    assert epigraph.status == 0
    assert value == pytest.approx(epigraph.fun, rel=1e-9, abs=1e-12)
    # the value is what the returned rates realize
    assert value == pytest.approx(float(np.max(rates.values / inst.net.capacities)), rel=1e-9)
    assert check_min_delay_layered(inst.net, inst.arr, inst.svc, rates, gamma, tol=1e-8)


def _capture_lps(monkeypatch):
    """Record the rows of every ``lp.solve_lp`` call made by the optimizer."""
    problems = []
    solve = lp.solve_lp

    def capture(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, upper=None):
        problems.append({
            "width": len(c),
            "ub_rows": 0 if a_ub is None else len(a_ub),
            "eq_rows": 0 if a_eq is None else len(a_eq),
        })
        return solve(c, a_ub, b_ub, a_eq, b_eq, upper=upper)

    monkeypatch.setattr(lp, "solve_lp", capture)
    return problems


@pytest.mark.parametrize("sizes", [(3, 2), (3, 4, 2), (2, 3, 3, 2)])
@pytest.mark.parametrize("split_cap", [None, 0.9])
def test_epigraph_objectives_pass_only_node_middle_and_split_rows(monkeypatch, sizes, split_cap):
    """Under a split cap max_utilization's LP has one epigraph row per
    finite link and max_overload_rate one per middle node, each with one t
    column.  Without a split cap Newton's method over max-flows solves
    both (the balanced-growth gamma of these overloaded instances has
    every middle gamma_l > 1) and no LP runs.  Without middle nodes gamma
    fixes max_overload_rate at t_lo: with a split cap it solves the gamma
    system alone (no t column and no epigraph row)."""
    net = full_connection(list(sizes), 6.0)
    arr = ArrivalProfile([4.0, 3.0, 5.0][: sizes[0]])
    svc = ServiceProfile([2.0, 1.5][: sizes[-1]])
    m, nodes = net.num_links, net.num_nodes
    split_rows = m if split_cap else 0
    middle = nodes - sizes[0] - sizes[-1]
    problems = _capture_lps(monkeypatch)
    for kind, width, ub_rows in (("max_utilization", m + 1, split_rows + m),
                                 ("max_overload_rate", m + (middle > 0), split_rows + middle)):
        problems.clear()
        rates, value = co_optimize(net, arr, svc, ObjectiveSpec(kind, split_cap=split_cap))
        expected = [] if split_cap is None else [{"width": width, "ub_rows": ub_rows, "eq_rows": nodes}]
        assert problems == expected
        gamma = (balanced_growth_gamma(arr, svc, len(sizes)) if kind == "max_overload_rate"
                 else throughput_tight_gamma(arr, svc, len(sizes)))
        assert check_min_delay_layered(net, arr, svc, rates, gamma, tol=1e-8)
        if kind == "max_utilization":
            assert value == pytest.approx(float(np.max(rates.values / 6.0)), rel=1e-12)


def test_max_overload_rate_keeps_its_lp_under_a_middle_gamma_at_most_one(monkeypatch):
    """A middle node of a layer with gamma_l <= 1 grows by
    (1 - 1/gamma_l) * inflow <= 0, which no node arc can bound, so the
    throughput-tight gamma (1 past layer 1) keeps the epigraph LP with one
    row per middle node; the balanced-growth gamma solves none."""
    net = full_connection([3, 4, 2], 6.0)
    arr, svc = ArrivalProfile([4.0, 3.0, 5.0]), ServiceProfile([2.0, 1.5])
    problems = _capture_lps(monkeypatch)
    spec = ObjectiveSpec("max_overload_rate")
    values = {}
    for name, gamma, expected in (
        ("tight", throughput_tight_gamma(arr, svc, 3),
         [{"width": net.num_links + 1, "ub_rows": 4, "eq_rows": net.num_nodes}]),
        ("balanced", balanced_growth_gamma(arr, svc, 3), []),
    ):
        problems.clear()
        rates, values[name] = co_optimize(net, arr, svc, spec, gamma)
        assert problems == expected, name
        assert check_min_delay_layered(net, arr, svc, rates, gamma, tol=1e-8)
    # tight: no middle node grows, so the value is t_lo, node 3's
    # ingress growth 5 - 5 / gamma_1
    assert values["tight"] == pytest.approx(5.0 - 5.0 / (12.0 / 3.5), rel=1e-12)


def test_max_utilization_is_zero_when_unbounded_links_carry_the_demand(monkeypatch):
    """t* = 0: the first Newton flow, with every finite link at capacity 0,
    already carries the demand; no LP runs."""
    inf = np.inf
    mixed = full_connection([2, 2, 2], [
        np.array([[inf, 3.0], [3.0, inf]]), np.array([[inf, 2.0], [2.0, inf]]),
    ])
    # lambda_i / total lambda == mu_i / total mu, so the two unbounded
    # paths carry the demand at the throughput-tight ratios
    cases = [
        load(os.path.join(os.path.dirname(__file__), "data", "fourlayer.json")),
        (mixed, ArrivalProfile([4.0, 8.0]), ServiceProfile([1.0, 2.0])),
    ]
    problems = _capture_lps(monkeypatch)
    for net, arr, svc in cases:
        problems.clear()
        rates, value = co_optimize(net, arr, svc, ObjectiveSpec("max_utilization"))
        assert value == 0.0
        assert problems == []
        assert np.all(rates.values[np.isfinite(net.capacities)] == 0.0)
        gamma = throughput_tight_gamma(arr, svc, net.num_layers)
        assert check_min_delay_layered(net, arr, svc, rates, gamma, tol=1e-8)


def _short_after_the_first_flow(monkeypatch, net, cut):
    """Let the feasibility flow run, then answer every later flow short of
    the total with ``cut``; returns the list of graphs run."""
    run = optimize._FlowGraph.run
    seen = []

    def short_after_the_first(graph):
        seen.append(graph)
        if len(seen) == 1:
            return run(graph)
        return 0.0, np.zeros(net.num_links), cut

    monkeypatch.setattr(optimize._FlowGraph, "run", short_after_the_first)
    return seen


@pytest.mark.parametrize("cut, t, calls", [([0], "0.0", 2), ([0, 1, 2], "0.0", 2), ([2], "1.0", 3)])
def test_max_utilization_newton_step_never_spins(monkeypatch, cut, t, calls):
    """After the feasibility flow at t = rho, a Newton flow that falls short
    with a cut holding no link (B = 0), a cut whose line A + t B already
    carries the total at t, or any short flow at t = rho contradicts that
    flow: SimplexError, not another step."""
    net = full_connection([2, 2], 4.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    seen = _short_after_the_first_flow(monkeypatch, net, cut)
    with pytest.raises(lp.SimplexError, match=f"^max_utilization Newton step stalls at t = {t}$"):
        co_optimize(net, arr, svc, ObjectiveSpec("max_utilization"))
    assert len(seen) == calls


@pytest.mark.parametrize("cut, at, calls", [
    ([0], "t_lo", 2), ([0, 1, 12], "t_lo", 2), ([12], "step", 3),
])
def test_max_overload_newton_step_never_spins(monkeypatch, cut, at, calls):
    """max_overload_rate's Newton flows on full_connection([2, 2, 2]): arc
    12 is the node arc of middle node 1.  A short cut without a node arc
    (B = 0), one whose line already carries the total at t (all lambda
    arcs), or the same cut again after its step contradicts the
    feasibility flow: SimplexError, not another step."""
    net = full_connection([2, 2, 2], 4.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    gamma = balanced_growth_gamma(arr, svc, 3)
    t = max(8.0 - 8.0 / gamma[0], gamma[2] * 4.0 - 4.0)
    if at == "step":
        # the node arc's capacity is s_1 t / (1 - 1/gamma_2)
        t = arr.total / (gamma[0] / (1.0 - 1.0 / gamma[1]))
    seen = _short_after_the_first_flow(monkeypatch, net, cut)
    with pytest.raises(lp.SimplexError,
                       match=f"^max_overload_rate Newton step stalls at t = {re.escape(repr(t))}$"):
        co_optimize(net, arr, svc, ObjectiveSpec("max_overload_rate"))
    assert len(seen) == calls


def test_infeasible_utilization_cap_is_decided_before_any_newton_step(monkeypatch):
    """An infeasible utilization cap raises the feasibility flow's minimum
    cut, the words total_bandwidth names for the same system, after one
    max-flow and no LP."""
    net, arr, svc = load(os.path.join(os.path.dirname(__file__), "data", "bounded.json"))
    problems = _capture_lps(monkeypatch)
    max_flow = optimize._max_flow
    flows = []
    monkeypatch.setattr(optimize, "_max_flow", lambda *a: flows.append(a) or max_flow(*a))
    errors = {}
    for kind in ("total_bandwidth", "max_utilization"):
        flows.clear()
        with pytest.raises(InfeasibleError) as exc:
            co_optimize(net, arr, svc, ObjectiveSpec(kind, utilization_cap=0.01))
        errors[kind] = str(exc.value)
        assert len(flows) == 1 and problems == []
        assert exc.value.binding == [
            f"utilization cap on link 2:{i}:{j}" for i in (1, 2) for j in (1, 2)
        ]
    assert errors["max_utilization"] == errors["total_bandwidth"]


_CAPPED = ("utilization cap on link 1:2:1", "utilization cap on link 1:2:2")
_CAPPED_LAYER_2 = tuple(f"utilization cap on link 2:{i}:{j}" for i in (1, 2) for j in (1, 2))


@pytest.mark.parametrize("kind, caps, binding", [
    ("max_utilization", [4.0, 4.0], ("ingress ratio at layer 1 node 1",) + _CAPPED),
    ("max_overload_rate", [4.0, 4.0], ("ingress ratio at layer 1 node 1",) + _CAPPED),
    ("max_utilization", [np.inf, 3.0], _CAPPED_LAYER_2),
    ("max_overload_rate", [np.inf, 3.0], _CAPPED_LAYER_2),
])
def test_binding_utilization_cap_names_the_capped_links(kind, caps, binding):
    """Half the capacity cannot carry node 2's arrivals.  The names are
    the minimum cut of the gamma system's flow closest to the source: node
    1's arrivals and node 2's capped out-links, or the whole capped second
    layer when the first is unbounded."""
    net = full_connection([2, 2, 2], [np.full((2, 2), c) for c in caps])
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    with pytest.raises(InfeasibleError) as exc:
        co_optimize(net, arr, svc, ObjectiveSpec(kind, utilization_cap=0.5))
    assert exc.value.binding == list(binding)


def test_fixed_gamma_objectives_solve_no_lp(monkeypatch):
    """total_bandwidth, max_layer_growth and, without middle nodes,
    max_overload_rate read their value off the max-flow's rates, feasible
    or not: no ``lp.solve_lp`` call.  A split cap is no flow bound, so with
    one each solves the gamma system by one LP."""
    cases = [
        (full_connection([2, 2, 2], 4.0), ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])),
        (full_connection([3, 2], 6.0), ArrivalProfile([4.0, 3.0, 5.0]), ServiceProfile([2.0, 1.5])),
        # node 2's arrivals exceed its out-links: infeasible
        (full_connection([2, 2], [np.array([[4.0, 4.0], [1.0, 1.0]])]), ArrivalProfile([1.0, 8.0]),
         ServiceProfile([2.0, 2.0])),
    ]
    problems = _capture_lps(monkeypatch)
    outcomes = set()
    for net, arr, svc in cases:
        kinds = ["total_bandwidth", "max_layer_growth"]
        if net.num_layers == 2:
            kinds.append("max_overload_rate")
        for kind in kinds:
            for split_cap, calls in ((None, 0), (1.0, 1)):
                problems.clear()
                try:
                    co_optimize(net, arr, svc, ObjectiveSpec(kind, split_cap=split_cap))
                    outcomes.add("feasible")
                except InfeasibleError:
                    outcomes.add("infeasible")
                assert len(problems) == calls, (kind, split_cap)
    assert outcomes == {"feasible", "infeasible"}


def test_optimizer_output_is_judged_against_its_bounds(monkeypatch):
    """A rate outside [0, bound] fails on both routes, named by its bound:
    a NaN link flow from the max-flow, and simplex rates above a
    utilization cap or on a forced-zero link."""
    net = full_connection([2, 2], 4.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    max_flow = optimize._max_flow

    def nan_flow(*args):
        value, f, cut = max_flow(*args)
        f[0] = np.nan
        return value, f, cut

    monkeypatch.setattr(optimize, "_max_flow", nan_flow)
    with pytest.raises(lp.SimplexError,
                       match="^optimizer output breaks the capacity of link 1:1:1: rate nan$"):
        co_optimize(net, arr, svc, ObjectiveSpec("total_bandwidth"))
    monkeypatch.setattr(
        lp, "solve_lp", lambda *args, **kwargs: lp.LPResult(lp.OPTIMAL, np.full(4, 3.0), 0.0)
    )
    for extra, bound in (({"utilization_cap": 0.5}, "utilization cap on"),
                         ({"forced_zero": ((0, 0, 0),)}, "forced zero on")):
        spec = ObjectiveSpec("total_bandwidth", split_cap=0.9, **extra)
        with pytest.raises(lp.SimplexError,
                           match=f"^optimizer output breaks the {bound} link 1:1:1: rate 3$"):
            co_optimize(net, arr, svc, spec)


def test_lp_objectives_raise_simplex_error_when_the_lp_contradicts_the_flow(monkeypatch):
    """The LP objectives run on a system the max-flow found feasible, so an
    infeasible LP is the solver's fault, not the input's.  max_utilization
    runs no LP without a split cap, nor does max_overload_rate when every
    middle gamma_l > 1.  Under a split cap an infeasible epigraph LP is
    solved again as the bare system, and a feasible answer to that second
    solve contradicts the first; no LP here has a negative cost, so an
    unbounded answer is the solver's fault too."""
    net = full_connection([2, 2, 2], 4.0)
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    monkeypatch.setattr(lp, "solve_lp", lambda *args, **kwargs: lp.LPResult(lp.INFEASIBLE))
    # max_overload_rate keeps its LP under a middle gamma_l <= 1
    tight = throughput_tight_gamma(arr, svc, 3)
    for kind, gamma in (("avg_utilization", None), ("max_overload_rate", tight)):
        with pytest.raises(lp.SimplexError, match=f"^{kind} LP is infeasible on a feasible"):
            co_optimize(net, arr, svc, ObjectiveSpec(kind), gamma)
    feasible = lp.LPResult(lp.OPTIMAL, np.zeros(net.num_links), 0.0)
    answers = iter([lp.LPResult(lp.INFEASIBLE), feasible])
    monkeypatch.setattr(lp, "solve_lp", lambda *args, **kwargs: next(answers))
    with pytest.raises(lp.SimplexError, match="^max_utilization LP is infeasible on a feasible"):
        co_optimize(net, arr, svc, ObjectiveSpec("max_utilization", split_cap=0.9))
    monkeypatch.setattr(lp, "solve_lp", lambda *args, **kwargs: lp.LPResult(lp.UNBOUNDED))
    for kind in ("avg_utilization", "max_utilization", "total_bandwidth"):
        with pytest.raises(lp.SimplexError, match=f"^{kind} LP returned unbounded$"):
            co_optimize(net, arr, svc, ObjectiveSpec(kind, split_cap=0.9))
