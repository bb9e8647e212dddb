"""Cross-checks of one implementation route against an independent one:
closed forms vs simulation, membership checks vs value suboptimality, the
in-tree simplex vs an external solver, and the max-flow overload verdict vs
the LP feasibility system and networkx."""
import dataclasses
import re

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    InfeasibleError,
    Link,
    LayeredNetwork,
    ObjectiveSpec,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    balanced_growth_gamma,
    check_min_delay_layered,
    check_min_delay_single_sink,
    co_optimize,
    full_connection,
    overload_check,
    packet_delay,
    run,
    single_sink,
    throughput_tight_gamma,
)
from fluidq import lp, optimize
from fluidq.network import node_growth
from fluidq.optimize import OBJECTIVE_KINDS
from fluidq.bench import preset, sample_instance

from conftest import ratio_rows, single_sink_rates


def test_region_failure_means_strictly_higher_delay():
    # the worked 3x1 non-member: g=(3,5,4) against lambda=(4,8,6), mu=9
    lam = np.array([4.0, 8.0, 6.0])
    net = single_sink(3)
    arr, svc = ArrivalProfile(lam), ServiceProfile([9.0])
    rates = single_sink_rates(net, [3.0, 5.0, 4.0])
    assert not check_min_delay_single_sink(net, arr, svc, rates).ok
    report = analytic_report(net, arr, svc, rates, horizon=100.0)
    minimum = 50.0 / 9.0 * (lam.sum() - 9.0)
    assert report.d_avg > minimum * 1.001
    assert report.d_max > report.d_avg


def test_two_layer_clear_failures_cost_delay():
    """Vectors on a 2 x 2 network that fail the layered condition beyond
    the resolution band are measurably worse than the closed-form minimum."""
    rng = np.random.default_rng(91)
    net = full_connection([2, 2])
    lam = np.array([5.0, 9.0])
    mu = np.array([3.0, 2.0])
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    minimum = 25.0 * (lam.sum() / mu.sum() - 1.0)
    tested = 0
    while tested < 50:
        values = rng.uniform(0.05, 1.0, size=4) * lam.max()
        rates = RateAssignment(net, values)
        rows = np.array([rates.node_egress(n) for n in net.ingress_nodes])
        if np.any(rows > lam):  # stay in the family where (12) is necessary
            continue
        strict = check_min_delay_layered(net, arr, svc, rates, tol=1e-9)
        loose = check_min_delay_layered(net, arr, svc, rates, tol=1e-2)
        if strict.ok or loose.ok:
            continue
        report = analytic_report(net, arr, svc, rates, horizon=50.0)
        assert report.d_avg > minimum * (1.0 + 1e-6)
        tested += 1


def test_three_layer_empirical_matches_analytic_off_optimum():
    net = full_connection([2, 2, 2])
    arr = ArrivalProfile([7.0, 11.0])
    svc = ServiceProfile([3.0, 2.0])
    values = np.array([3.0, 2.0, 4.0, 3.0, 2.0, 3.0, 3.0, 2.0])
    rates = RateAssignment(net, values)
    analytic = analytic_report(net, arr, svc, rates, horizon=120.0)
    from fluidq import empirical_report, tagged_run

    cfg = SimConfig(horizon=120.0, dt=1.0, discretize=True)
    empirical = empirical_report(tagged_run(net, arr, svc, rates, cfg), arr)
    assert abs(empirical.d_avg - analytic.d_avg) <= 0.05 * analytic.d_avg
    assert abs(empirical.d_max - analytic.d_max) <= 0.05 * analytic.d_max


def test_backlog_closed_form_matches_fine_grained_fluid_integration():
    """The piecewise single-sink evaluator agrees with numerically
    integrating packet delays over a fine-step fluid trajectory."""
    lam = np.array([3.0, 7.0])
    net = single_sink(2)
    arr, svc = ArrivalProfile(lam), ServiceProfile([4.0])
    rates = single_sink_rates(net, [4.0, 3.0])
    q0 = np.array([37.0, 11.0, 5.0])
    horizon = 60.0
    closed = analytic_report(net, arr, svc, rates, horizon, q0=q0)

    dt = 0.005
    traj = run(net, arr, svc, rates, SimConfig(horizon=horizon * 3, dt=dt, q0=q0))
    grid = np.linspace(0.0, horizon, 1201)
    for i in range(2):
        samples = [
            packet_delay(net, arr, svc, rates, (i, 0), t, source=traj) for t in grid
        ]
        numeric = np.trapezoid(samples, grid) / horizon
        assert numeric == pytest.approx(closed.d_bar[i], rel=2e-3)


def test_overload_check_detects_middle_layer_cut():
    # generous edges but a 1-unit choke through the middle layer
    links = [Link(0, 0, 0, 10.0), Link(0, 1, 0, 10.0), Link(1, 0, 0, 1.0), Link(1, 0, 1, 1.0)]
    net = LayeredNetwork([2, 1, 2], links)
    arr = ArrivalProfile([1.5, 1.0])
    svc = ServiceProfile([4.0, 4.0])
    verdict = overload_check(net, arr, svc)
    assert verdict.overloaded  # 2.5 in, at most 2 through the middle
    assert verdict.detail == "minimum cut 2 < total arrival rate 2.5: 2:1:1, 2:1:2"
    roomier = LayeredNetwork(
        [2, 1, 2],
        [Link(0, 0, 0, 10.0), Link(0, 1, 0, 10.0), Link(1, 0, 0, 2.0), Link(1, 0, 1, 2.0)],
    )
    assert not overload_check(roomier, arr, svc).overloaded


def test_simplex_against_external_solver_on_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(123)
    solved = 0
    while solved < 25:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-1.0, 2.0, size=n)
        a_ub = rng.uniform(-1.0, 2.0, size=(m, n))
        b_ub = rng.uniform(0.5, 4.0, size=m)
        # a box keeps every instance bounded
        a_box = np.eye(n)
        b_box = np.full(n, 10.0)
        ours = lp.solve_lp(
            c, a_ub=np.vstack([a_ub, a_box]), b_ub=np.concatenate([b_ub, b_box])
        )
        ref = scipy_opt.linprog(
            c, A_ub=np.vstack([a_ub, a_box]), b_ub=np.concatenate([b_ub, b_box]),
            bounds=[(0, None)] * n, method="highs",
        )
        assert ours.status == lp.OPTIMAL and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        solved += 1


def _lp_overloaded(net, arr, svc) -> bool:
    """The LP reference for the overload verdict: no g in [0, c] with
    inflow - outflow at most -lambda_i at each ingress node, 0 at each
    middle node and mu_j at each egress node."""
    a_ub = np.zeros((net.num_nodes, net.num_links))
    cols = np.arange(net.num_links)
    a_ub[net.link_dst, cols] = 1.0
    a_ub[net.link_src, cols] = -1.0
    b_ub = np.zeros(net.num_nodes)
    b_ub[: net.layer_sizes[0]] = -arr.rates
    b_ub[net.num_nodes - net.layer_sizes[-1] :] = svc.rates
    result = lp.solve_lp(np.zeros(net.num_links), a_ub=a_ub, b_ub=b_ub, upper=net.capacities)
    assert result.status in (lp.OPTIMAL, lp.INFEASIBLE)
    return result.status == lp.INFEASIBLE


def _flow_graph(nx, net, arr, svc):
    """Source "s" with arc lambda_i into each ingress node, the links, and
    arc mu_j from each egress node to sink "t"."""
    graph = nx.DiGraph()
    egress_lo = net.num_nodes - net.layer_sizes[-1]
    for i, rate in enumerate(arr.rates):
        graph.add_edge("s", i, capacity=float(rate))
    for j, rate in enumerate(svc.rates):
        graph.add_edge(egress_lo + j, "t", capacity=float(rate))
    for k, cap in enumerate(net.capacities):
        # networkx reads an edge without a capacity as unbounded
        attrs = {} if np.isinf(cap) else {"capacity": float(cap)}
        graph.add_edge(int(net.link_src[k]), int(net.link_dst[k]), **attrs)
    return graph


def _named_cut(net, detail):
    """Cut capacity and arcs, as graph edges, read off an overloaded
    verdict's detail."""
    match = re.fullmatch(r"minimum cut (\S+) < total arrival rate \S+: (.+)", detail)
    assert match, detail
    egress_lo = net.num_nodes - net.layer_sizes[-1]
    edges = []
    for name in match[2].split(", "):
        if name.startswith("lambda["):
            edges.append(("s", int(name[7:-1]) - 1))
        elif name.startswith("mu["):
            edges.append((egress_lo + int(name[3:-1]) - 1, "t"))
        else:
            k = net.link_index[tuple(int(v) - 1 for v in name.split(":"))]
            edges.append((int(net.link_src[k]), int(net.link_dst[k])))
    return float(match[1]), edges


def _check_overloaded(nx, net, arr, svc, verdict, closest=False):
    """The overloaded verdict's named arcs are a minimum cut (see
    :func:`_check_cut`) of the overload flow graph."""
    printed, edges = _named_cut(net, verdict.detail)
    _check_cut(nx, _flow_graph(nx, net, arr, svc), edges, printed, arr.total, closest)


def _check_cut(nx, graph, edges, printed, total, closest=False):
    """The named arcs separate source from sink, their capacities sum to the
    max flow (networkx), which is below the total arrival rate and is the
    printed cut capacity; with ``closest``, they are the arcs leaving the
    nodes that networkx's own max flow leaves reachable from the source."""
    value, flows = nx.maximum_flow(graph, "s", "t")
    capacity = sum(graph.edges[e]["capacity"] for e in edges)
    assert capacity == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert printed == pytest.approx(value, rel=1e-8)
    assert value < total - 1e-9 * max(1.0, total)
    if closest:
        residual = nx.DiGraph()
        for u, v, data in graph.edges(data=True):
            if flows[u][v] < data.get("capacity", np.inf):
                residual.add_edge(u, v)
            if flows[u][v] > 0:
                residual.add_edge(v, u)
        side = nx.descendants(residual, "s") | {"s"}
        assert sorted(edges, key=str) == sorted(
            [(u, v) for u, v in graph.edges if u in side and v not in side], key=str
        )
    graph.remove_edges_from(edges)
    assert not nx.has_path(graph, "s", "t")


def _check_witness(net, arr, svc, verdict):
    """The witness ships lambda_i out of each ingress node, conserves flow
    at middle nodes, keeps egress inflow within mu_j and stays in [0, c]."""
    x = verdict.witness.values
    tol = 1e-9 * max(1.0, arr.total)
    n0, n_egress = net.layer_sizes[0], net.layer_sizes[-1]
    inflow = np.bincount(net.link_dst, x, minlength=net.num_nodes)
    outflow = np.bincount(net.link_src, x, minlength=net.num_nodes)
    assert np.all(x >= 0) and np.all(x <= net.capacities + tol)
    assert np.abs(outflow[:n0] - arr.rates).max() <= tol
    middle = slice(n0, net.num_nodes - n_egress)
    assert np.all(np.abs(inflow[middle] - outflow[middle]) <= tol)
    assert np.all(inflow[net.num_nodes - n_egress :] <= svc.rates + tol)


def test_overload_verdict_against_networkx_max_flow():
    """Overloaded exactly when the max-flow from a source (arc capacity
    lambda_i into each ingress) to a sink (mu_j out of each egress) falls
    short of the total arrival rate; the LP reference agrees."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(20):
        sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
        caps = [rng.integers(1, 4, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        net = full_connection(sizes, caps)
        arr = ArrivalProfile(rng.integers(1, 5, size=sizes[0]).astype(float))
        svc = ServiceProfile(rng.integers(1, 5, size=sizes[-1]).astype(float))
        flow = nx.maximum_flow_value(_flow_graph(nx, net, arr, svc), "s", "t")
        overloaded = overload_check(net, arr, svc).overloaded
        assert overloaded == (flow < arr.total - 1e-9)
        assert overloaded == _lp_overloaded(net, arr, svc)
        verdicts.add(overloaded)
    assert verdicts == {True, False}


#: the optimizer benchmark's families: bench presets at these layer sizes
OPTIMIZER_FAMILIES = (
    ("nsxnd", (16, 8)),
    ("multistage-16x12x8x6", (8, 6, 4, 3)),
    ("multistage-12x12x12x12x12", (6, 6, 6, 6, 6)),
    ("tree", None),
    ("nx1-limited", None),
)


@pytest.mark.parametrize("seed", [20240811, 41, 7])
def test_overload_verdict_against_lp_on_optimizer_families(seed):
    """Eight seeded draws of each family, keyed (seed, family, draw) as the
    optimizer benchmark keys them: the verdict matches the LP reference,
    and each overloaded one names the minimum cut closest to the source."""
    nx = pytest.importorskip("networkx")
    for stream, (name, sizes) in enumerate(OPTIMIZER_FAMILIES):
        cfg = preset(name)
        if sizes is not None:
            cfg = dataclasses.replace(cfg, layer_sizes=sizes)
        for k in range(8):
            inst = sample_instance(cfg, np.random.default_rng([seed, stream, k]), k)
            verdict = overload_check(inst.net, inst.arr, inst.svc)
            assert verdict.overloaded == _lp_overloaded(inst.net, inst.arr, inst.svc)
            if verdict.overloaded:
                _check_overloaded(nx, inst.net, inst.arr, inst.svc, verdict, closest=True)
            else:
                _check_witness(inst.net, inst.arr, inst.svc, verdict)


def test_overload_verdict_against_lp_on_fractional_full_connections():
    """Random full connections with fractional rates and capacities, a
    fifth of the links unbounded: verdicts match the LP reference and
    networkx, witnesses meet the system, and named cuts carry the max flow."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(20)
    counts = {True: 0, False: 0}
    for _ in range(240):
        sizes = [int(n) for n in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
        caps = [
            np.where(rng.random((a, b)) < 0.2, np.inf, rng.uniform(0.2, 3.0, size=(a, b)))
            for a, b in zip(sizes, sizes[1:])
        ]
        net = full_connection(sizes, caps)
        arr = ArrivalProfile(rng.uniform(0.2, 4.0, size=sizes[0]))
        svc = ServiceProfile(rng.uniform(0.2, 4.0, size=sizes[-1]))
        verdict = overload_check(net, arr, svc)
        assert verdict.overloaded == _lp_overloaded(net, arr, svc)
        if verdict.overloaded:
            _check_overloaded(nx, net, arr, svc, verdict)
        else:
            _check_witness(net, arr, svc, verdict)
        counts[verdict.overloaded] += 1
    assert min(counts.values()) >= 40


def test_overload_check_on_a_long_chain():
    """A 1200-layer single-node chain: the search is iterative, so depth
    does not hit the recursion limit."""
    net = full_connection([1] * 1200, 5.0)
    verdict = overload_check(net, ArrivalProfile([3.0]), ServiceProfile([4.0]))
    assert not verdict.overloaded
    assert np.all(verdict.witness.values == 3.0)
    verdict = overload_check(net, ArrivalProfile([6.0]), ServiceProfile([5.5]))
    assert verdict.detail == "minimum cut 5 < total arrival rate 6: 1:1:1"


def _highs_bounds(upper):
    return [(0.0, None if np.isinf(u) else float(u)) for u in upper]


def _highs_status(ref):
    return {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[ref.status]


#: HiGHS's presolve can report an unbounded LP as infeasible
_NO_PRESOLVE = {"presolve": False}


def test_bounded_simplex_against_external_solver_on_random_instances():
    """Random LPs with inequality and equality rows (right-hand sides of
    either sign) and upper bounds that are finite, infinite or 0: the
    status always matches HiGHS, and so does the optimum."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        n_ub = int(rng.integers(0, 4))
        n_eq = int(rng.integers(0, 3))
        c = rng.integers(-3, 4, size=n).astype(float)
        a_ub = rng.integers(-2, 3, size=(n_ub, n)).astype(float)
        a_eq = rng.integers(-2, 3, size=(n_eq, n)).astype(float)
        upper = rng.choice([0.0, 1.0, 2.5, 4.0, np.inf], size=n)
        if rng.random() < 0.6:
            # a point within the bounds satisfies every row
            x0 = np.minimum(upper, rng.integers(0, 3, size=n))
            b_ub = a_ub @ x0 + rng.integers(0, 2, size=n_ub)
            b_eq = a_eq @ x0
        else:
            b_ub = rng.integers(-3, 6, size=n_ub).astype(float)
            b_eq = rng.integers(-3, 6, size=n_eq).astype(float)
        ours = lp.solve_lp(
            c, a_ub if n_ub else None, b_ub if n_ub else None,
            a_eq if n_eq else None, b_eq if n_eq else None, upper=upper,
        )
        ref = scipy_opt.linprog(
            c, A_ub=a_ub if n_ub else None, b_ub=b_ub if n_ub else None,
            A_eq=a_eq if n_eq else None, b_eq=b_eq if n_eq else None,
            bounds=_highs_bounds(upper), method="highs", options=_NO_PRESOLVE,
        )
        assert ours.status == _highs_status(ref)
        seen.add(ours.status)
        if ours.status == lp.OPTIMAL:
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            x = ours.x
            assert np.all(x >= 0.0) and np.all(x <= upper)
            assert np.all(a_ub @ x <= b_ub + 1e-9)
            assert np.allclose(a_eq @ x, b_eq, atol=1e-9)
    assert seen == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_bounds_alone_make_an_lp_infeasible():
    scipy_opt = pytest.importorskip("scipy.optimize")
    c, a_eq, b_eq = [1.0, 1.0], [[1.0, 1.0]], [5.0]
    assert lp.solve_lp(c, a_eq=a_eq, b_eq=b_eq).status == lp.OPTIMAL
    for upper, a_ub, b_ub in (
        ([2.0, 2.0], None, None),
        # x1 >= 3 written as -x1 <= -3, with x1 <= 2
        ([2.0, np.inf], [[-1.0, 0.0]], [-3.0]),
    ):
        ours = lp.solve_lp(c, a_ub, b_ub, a_eq, b_eq, upper=upper)
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=_highs_bounds(upper), method="highs", options=_NO_PRESOLVE,
        )
        assert ours.status == _highs_status(ref) == lp.INFEASIBLE
        assert ours.infeasible_rows
        # raising x1's bound is what would help
        assert 0 in ours.infeasible_bounds


def test_bounded_lp_can_still_be_unbounded():
    scipy_opt = pytest.importorskip("scipy.optimize")
    c, a_ub, b_ub, upper = [-1.0, -1.0], [[1.0, -1.0]], [1.0], [np.inf, 3.0]
    # x2 is bounded, and x1 <= 1 + x2 only while x2 is; drop the bound
    ours = lp.solve_lp(c, a_ub, b_ub, upper=upper)
    assert ours.status == lp.OPTIMAL and ours.objective == pytest.approx(-7.0)
    for upper in ([np.inf, np.inf], [5.0, np.inf]):
        ours = lp.solve_lp(c, a_ub, b_ub, upper=upper)
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=_highs_bounds(upper), method="highs",
            options=_NO_PRESOLVE,
        )
        assert ours.status == _highs_status(ref) == lp.UNBOUNDED


def test_optimum_reached_by_bound_flips_without_a_pivot(monkeypatch):
    """Both variables stop at their own bounds before the row binds: the
    solver flips them there and never pivots."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(args[2:]) or pivot(*args))
    c, a_ub, b_ub, upper = [-1.0, -2.0], [[1.0, 1.0]], [10.0], [2.0, 3.0]
    ours = lp.solve_lp(c, a_ub, b_ub, upper=upper)
    assert pivots == []
    assert ours.status == lp.OPTIMAL
    assert (ours.pivots, ours.flips) == (0, 2)
    assert np.array_equal(ours.x, [2.0, 3.0])
    ref = scipy_opt.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=_highs_bounds(upper), method="highs")
    assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def _highs_co_optimum(kind, net, lam, mu, spec):
    """The min-delay co-optimization solved by HiGHS, written node by node
    from the model: default per-layer ratios gamma, every ingress node
    sends lambda_i / gamma_1, a middle node of layer l receives gamma_l
    times what it sends, every egress node receives gamma_L * mu_j, and
    0 <= g_k <= c_k (times the utilization cap; 0 when forced).  Returns
    the HiGHS status (0 optimal, 2 infeasible) and the optimum."""
    from scipy.optimize import linprog

    layers = net.num_layers
    total_lam, total_mu = float(lam.sum()), float(mu.sum())
    if kind in ("max_overload_rate", "max_layer_growth"):
        excess = total_lam - total_mu
        gamma = [
            (total_lam - (l - 1) / layers * excess) / (total_lam - l / layers * excess)
            for l in range(1, layers + 1)
        ]
    else:
        gamma = [total_lam / total_mu] + [1.0] * (layers - 1)
    links = net.links
    m = len(links)
    width = m + (kind not in ("total_bandwidth", "avg_utilization"))

    def out_of(l, i):
        return [k for k, ln in enumerate(links) if ln.layer == l and ln.src == i]

    def into(l, i):
        return [k for k, ln in enumerate(links) if ln.layer == l - 1 and ln.dst == i]

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    growth = []  # per node: (row of inflow - outflow, constant part)
    for l, size in enumerate(net.layer_sizes):
        for i in range(size):
            row = np.zeros(width)
            grow = np.zeros(width)
            const = 0.0
            if l == 0:
                row[out_of(l, i)] = 1.0
                b_eq.append(lam[i] / gamma[0])
                const += lam[i]
            else:
                row[into(l, i)] = 1.0
                grow[into(l, i)] = 1.0
                b_eq.append(gamma[-1] * mu[i] if l == layers - 1 else 0.0)
            if l == layers - 1:
                const -= mu[i]
            else:
                grow[out_of(l, i)] = -1.0
                if l > 0:
                    row[out_of(l, i)] = -gamma[l]
            a_eq.append(row)
            growth.append((l, grow, const))
    forced = {tuple(key) for key in spec.forced_zero}
    bounds = []
    for k, ln in enumerate(links):
        cap = ln.capacity * (spec.utilization_cap or 1.0)
        bounds.append((0.0, 0.0 if ln.key in forced else None if np.isinf(cap) else cap))
        if spec.split_cap is not None:
            row = np.zeros(width)
            row[k] = 1.0
            if ln.layer == 0:
                b_ub.append(spec.split_cap * lam[ln.src])
            else:
                row[into(ln.layer, ln.src)] -= spec.split_cap
                b_ub.append(0.0)
            a_ub.append(row)
    finite = [k for k, ln in enumerate(links) if not ln.unbounded]
    c = np.zeros(width)
    if kind == "total_bandwidth":
        c[:m] = 1.0
    elif kind == "avg_utilization":
        for k in finite:
            c[k] = 1.0 / (links[k].capacity * len(finite))
    else:
        c[m] = 1.0
        bounds.append((0.0, None) if kind == "max_utilization" else (None, None))
    if kind == "max_utilization":
        for k in finite:
            row = np.zeros(width)
            row[k] = 1.0
            row[m] = -links[k].capacity
            a_ub.append(row)
            b_ub.append(0.0)
    elif kind == "max_overload_rate":
        for _, grow, const in growth:
            grow = grow.copy()
            grow[m] = -1.0
            a_ub.append(grow)
            b_ub.append(-const)
    elif kind == "max_layer_growth":
        for l in range(layers):
            row = sum(g for gl, g, _ in growth if gl == l)
            row[m] = -1.0
            a_ub.append(row)
            b_ub.append(-sum(const for gl, _, const in growth if gl == l))
    res = linprog(
        c, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub if b_ub else None,
        A_eq=np.array(a_eq), b_eq=b_eq, bounds=bounds, method="highs",
    )
    return res.status, (float(res.x[m] if width > m else res.fun) if res.status == 0 else None)


def test_every_objective_against_external_solver_on_random_instances():
    """All five objectives, with and without a utilization cap, a split cap
    and a forced-zero link: the optimum matches HiGHS to 1e-6, and
    InfeasibleError is raised exactly when HiGHS finds no solution.  The
    later draws make most links unbounded, so that max_utilization reaches
    t* = 0, and 2-layer draws give max_overload_rate no middle node."""
    pytest.importorskip("scipy.optimize")
    from fluidq.optimize import OBJECTIVE_KINDS

    rng = np.random.default_rng(31)
    outcomes = set()
    paths = set()
    for trial in range(20):
        sizes = [int(v) for v in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
        caps = [rng.integers(2, 9, size=(a, b)).astype(float) for a, b in zip(sizes, sizes[1:])]
        for block in caps[1:] if trial < 12 else caps:
            block[rng.random(block.shape) < (0.2 if trial < 12 else 0.7)] = np.inf
        net = full_connection(sizes, caps)
        lam = rng.integers(2, 9, size=sizes[0]).astype(float)
        mu = rng.uniform(0.5, 2.0, size=sizes[-1])
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        forced = (net.links[int(rng.integers(net.num_links))].key,)
        variants = (
            {},
            {"utilization_cap": 0.5},
            {"split_cap": 0.6},
            {"forced_zero": forced},
            {"utilization_cap": 0.7, "split_cap": 0.8, "forced_zero": forced},
        )
        for kind in OBJECTIVE_KINDS:
            for extra in variants:
                spec = ObjectiveSpec(kind, **extra)
                if kind == "avg_utilization" and np.all(np.isinf(net.capacities)):
                    with pytest.raises(ValueError, match="finite capacity"):
                        co_optimize(net, arr, svc, spec)
                    continue
                status, best = _highs_co_optimum(kind, net, lam, mu, spec)
                assert status in (0, 2)
                outcomes.add(status)
                if status == 2:
                    with pytest.raises(InfeasibleError) as exc:
                        co_optimize(net, arr, svc, spec)
                    assert exc.value.binding
                    continue
                rates, value = co_optimize(net, arr, svc, spec)
                assert value == pytest.approx(best, rel=1e-6, abs=1e-6), (kind, extra)
                g = rates.values
                bound = net.capacities * (spec.utilization_cap or 1.0)
                assert np.all(g <= bound + 1e-9)
                for key in spec.forced_zero:
                    assert rates[key] == 0.0
                if kind == "max_utilization" and best == 0.0:
                    paths.add("t* = 0")
                    assert value == 0.0
                    assert np.all(g[np.isfinite(net.capacities)] == 0.0)
                if kind == "max_overload_rate":
                    paths.add("middle nodes" if len(sizes) > 2 else "no middle node")
    assert outcomes == {0, 2}
    assert paths == {"t* = 0", "middle nodes", "no middle node"}


def test_objectives_given_one_gamma_name_one_binding_list():
    """Infeasibility is a property of the gamma system (ratio rows, split
    caps, capacity or utilization-cap bounds), not of the objective: on
    seeded draws of 2-3 layer full connections with finite capacities,
    all five objectives given the same gamma raise InfeasibleError with
    the same binding list exactly when HiGHS finds that system
    infeasible, and succeed otherwise.  HiGHS checks the throughput-tight
    system as total_bandwidth and the balanced-growth one as
    max_layer_growth, whose epigraph column is free."""
    pytest.importorskip("scipy.optimize")
    from fluidq.optimize import OBJECTIVE_KINDS

    variants = (
        {},
        {"utilization_cap": 0.5},
        {"split_cap": 0.6},
        {"utilization_cap": 0.7, "split_cap": 0.8},
    )
    rng = np.random.default_rng(1)
    infeasible = 0
    for trial in range(12):
        sizes = [int(v) for v in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
        caps = [rng.integers(1, 7, size=(a, b)).astype(float) for a, b in zip(sizes, sizes[1:])]
        net = full_connection(sizes, caps)
        lam = rng.integers(2, 9, size=sizes[0]).astype(float)
        mu = rng.uniform(0.5, 3.0, size=sizes[-1])
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        systems = (
            ("total_bandwidth", throughput_tight_gamma(arr, svc, len(sizes))),
            ("max_layer_growth", balanced_growth_gamma(arr, svc, len(sizes))),
        )
        for highs_kind, gamma in systems:
            for extra in variants:
                spec = ObjectiveSpec(highs_kind, **extra)
                status, _ = _highs_co_optimum(highs_kind, net, lam, mu, spec)
                assert status in (0, 2)
                bindings = {}
                for kind in OBJECTIVE_KINDS:
                    try:
                        co_optimize(net, arr, svc, ObjectiveSpec(kind, **extra), gamma)
                    except InfeasibleError as exc:
                        bindings[kind] = exc.binding
                    else:
                        bindings[kind] = None
                if status == 0:
                    assert all(b is None for b in bindings.values()), (trial, extra, bindings)
                    continue
                infeasible += 1
                first = bindings["total_bandwidth"]
                assert first, (trial, extra)
                assert all(b == first for b in bindings.values()), (trial, gamma, extra, bindings)
    assert infeasible >= 40


def _split_cap_system(net, arr, svc, gamma, spec):
    """A split-cap gamma system written link by link, in the optimizer's
    row order: one row g_k <= beta * (inflow of k's source node; lambda_i
    in layer 1) per link, the ratio rows, and each link's capacity,
    utilization-cap or forced-zero bound.  Returns the rows, the bounds
    and their names."""
    a_eq, b_eq = ratio_rows(net, arr, svc, gamma)
    m, beta = net.num_links, spec.split_cap
    a_ub, b_ub = np.eye(m), np.zeros(m)
    for k, ln in enumerate(net.links):
        if ln.layer == 0:
            b_ub[k] = beta * arr.rates[ln.src]
        else:
            into = [j for j, x in enumerate(net.links) if x.layer == ln.layer - 1 and x.dst == ln.src]
            a_ub[k, into] = -beta
    forced = {net.link_index[key] for key in spec.forced_zero}
    upper = net.capacities.copy()
    upper[list(forced)] = 0.0
    if spec.utilization_cap is not None:
        upper = upper * spec.utilization_cap
    last = net.num_layers - 1
    rows = [f"split cap on link {name}" for name in net.link_names] + [
        f"ingress ratio at layer 1 node {i + 1}" if l == 0
        else f"egress ratio at node {i + 1}" if l == last
        else f"ratio at layer {l + 1} node {i + 1}"
        for l, size in enumerate(net.layer_sizes) for i in range(size)
    ]
    cap_name = "capacity of" if spec.utilization_cap is None else "utilization cap on"
    bounds = [f"forced zero on link {name}" if k in forced else f"{cap_name} link {name}"
              for k, name in enumerate(net.link_names)]
    return (a_ub, b_ub, a_eq, b_eq, upper), rows, bounds


def _read_off(kind, net, arr, svc, g):
    """The value of rates ``g`` under objective ``kind``."""
    growth = node_growth(net, arr, svc, g)
    finite = np.isfinite(net.capacities)
    if kind == "total_bandwidth":
        return g.sum()
    if kind == "max_layer_growth":
        return max(growth[net.layer_nodes(l).start : net.layer_nodes(l).stop].sum()
                   for l in range(net.num_layers))
    if kind == "max_overload_rate":
        return growth.max()
    utilization = g[finite] / net.capacities[finite]
    if kind == "avg_utilization":
        return np.mean(utilization)
    return np.max(utilization, initial=0.0)


def test_split_cap_objectives_solve_one_lp_shape():
    """Under a split cap every objective solves the gamma system by the
    in-tree simplex, with epigraph rows and one t column only for
    max_utilization (g_k <= c_k t on each finite link, t <= the
    utilization cap) and max_overload_rate with middle nodes.  On seeded
    draws (2-4 layers of 1-4 nodes, capacities 2-12, 30% with an unbounded
    first layer): an infeasible system raises the bare system's phase-1
    list for every objective; the objectives without epigraph rows return,
    bit for bit, the rates of the bare system's LP at their own cost (the
    mean utilization, or zero when gamma fixes the value); and the
    epigraph objectives' values are within 1e-9 of HiGHS's epigraph LP."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        highs = False
    else:
        highs = True
    rng = np.random.default_rng(30)
    seen = set()
    for draw in range(16):
        sizes = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
        caps = [rng.integers(2, 13, size=(a, b)).astype(float) for a, b in zip(sizes, sizes[1:])]
        if rng.random() < 0.3:
            caps[0][:] = np.inf
        net = full_connection(sizes, caps)
        lam = rng.integers(2, 9, size=sizes[0]).astype(float)
        mu = rng.uniform(0.5, 3.0, size=sizes[-1])
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
        finite = np.flatnonzero(np.isfinite(net.capacities))
        forced = (net.links[int(rng.integers(net.num_links))].key,)
        variants = (
            {"split_cap": 0.6},
            {"split_cap": 0.9, "utilization_cap": 0.8},
            {"split_cap": 0.8, "forced_zero": forced},
        )
        for extra in variants:
            for kind in OBJECTIVE_KINDS:
                spec = ObjectiveSpec(kind, **extra)
                if kind == "avg_utilization" and not finite.size:
                    with pytest.raises(ValueError, match="finite capacity"):
                        co_optimize(net, arr, svc, spec)
                    continue
                gamma = _default_gamma(kind, arr, svc, len(sizes))
                system, rows, bounds = _split_cap_system(net, arr, svc, gamma, spec)
                bare = lp.solve_lp(np.zeros(net.num_links), *system[:4], upper=system[4])
                if bare.status == lp.INFEASIBLE:
                    with pytest.raises(InfeasibleError) as exc:
                        co_optimize(net, arr, svc, spec)
                    assert exc.value.binding == (
                        [rows[i] for i in bare.infeasible_rows]
                        + [bounds[k] for k in bare.infeasible_bounds]
                    ), (draw, kind, extra)
                    seen.add("infeasible")
                    continue
                rates, value = co_optimize(net, arr, svc, spec)
                fixed = _single_out_link(net) or kind in ("total_bandwidth", "max_layer_growth") or (
                    kind == "max_overload_rate" and len(sizes) == 2
                )
                if fixed or kind == "max_utilization" and not finite.size:
                    assert rates.values.tobytes() == bare.x.tobytes(), (draw, kind, extra)
                    assert value == pytest.approx(
                        _read_off(kind, net, arr, svc, bare.x), rel=1e-12, abs=1e-12
                    )
                    seen.add("no rows")
                elif kind == "avg_utilization":
                    c = np.zeros(net.num_links)
                    c[finite] = 1.0 / (net.capacities[finite] * finite.size)
                    result = lp.solve_lp(c, *system[:4], upper=system[4])
                    assert rates.values.tobytes() == result.x.tobytes(), (draw, extra)
                    assert value == result.objective
                    seen.add("mean utilization")
                else:
                    assert value == pytest.approx(
                        _read_off(kind, net, arr, svc, rates.values), rel=1e-9, abs=1e-12
                    )
                    if highs:
                        status, best = _highs_co_optimum(kind, net, lam, mu, spec)
                        assert status == 0
                        assert value == pytest.approx(best, rel=1e-9, abs=1e-12), (draw, kind, extra)
                    seen.add(kind)
    assert seen == {"infeasible", "no rows", "mean utilization", "max_utilization",
                    "max_overload_rate"}


def _default_gamma(kind, arr, svc, layers):
    if kind in ("max_overload_rate", "max_layer_growth"):
        return balanced_growth_gamma(arr, svc, layers)
    return throughput_tight_gamma(arr, svc, layers)


def _gamma_flow_graph(nx, net, lam, mu, gamma, spec):
    """The gamma system without split caps as a flow, written from the
    model: source "s" with arc lambda_i into each ingress node, each link
    of layer l at its bound (capacity times the utilization cap, 0 when
    forced) times gamma_1 ... gamma_l, and arc mu_j * total lambda / total
    mu from each egress node to sink "t"."""
    graph = nx.DiGraph()
    egress_lo = net.num_nodes - net.layer_sizes[-1]
    for i, rate in enumerate(lam):
        graph.add_edge("s", i, capacity=float(rate))
    for j, rate in enumerate(mu):
        graph.add_edge(egress_lo + j, "t", capacity=float(rate * lam.sum() / mu.sum()))
    forced = {tuple(key) for key in spec.forced_zero}
    for ln in net.links:
        scale = float(np.prod(gamma[: ln.layer + 1]))
        cap = 0.0 if ln.key in forced else ln.capacity * (spec.utilization_cap or 1.0) * scale
        attrs = {} if np.isinf(cap) else {"capacity": cap}
        graph.add_edge(net.node_id(ln.layer, ln.src), net.node_id(ln.layer + 1, ln.dst), **attrs)
    return graph


def _gamma_cut_edges(net, spec, binding):
    """The graph edges an infeasible gamma system's binding names denote;
    each link is named by the bound it has under ``spec``."""
    egress_lo = net.num_nodes - net.layer_sizes[-1]
    forced = {tuple(key) for key in spec.forced_zero}
    edges = []
    for name in binding:
        if match := re.fullmatch(r"ingress ratio at layer 1 node (\d+)", name):
            edges.append(("s", int(match[1]) - 1))
        elif match := re.fullmatch(r"egress ratio at node (\d+)", name):
            edges.append((egress_lo + int(match[1]) - 1, "t"))
        else:
            match = re.fullmatch(r"(.+) link (\d+):(\d+):(\d+)", name)
            assert match, name
            key = tuple(int(v) - 1 for v in match.group(2, 3, 4))
            bound = ("forced zero on" if key in forced else
                     "capacity of" if spec.utilization_cap is None else "utilization cap on")
            assert match[1] == bound, name
            k = net.link_index[key]
            edges.append((int(net.link_src[k]), int(net.link_dst[k])))
    return edges


def _check_gamma_cut(nx, net, arr, svc, gamma, spec, exc):
    """An infeasible gamma system's named cut is a minimum cut of its flow
    closest to the source, with the printed capacity."""
    match = re.search(r": minimum cut (\S+) < total arrival rate ", str(exc))
    assert match, str(exc)
    graph = _gamma_flow_graph(nx, net, arr.rates, svc.rates, gamma, spec)
    edges = _gamma_cut_edges(net, spec, exc.binding)
    _check_cut(nx, graph, edges, float(match[1]), arr.total, closest=True)


def _simplex_fixed_value(kind, net, arr, svc, gamma):
    """The value gamma fixes, read off the in-tree simplex's zero-cost
    solve of the gamma system."""
    lam, mu = arr.rates, svc.rates
    n0, egress_lo = net.layer_sizes[0], net.num_nodes - net.layer_sizes[-1]
    a_eq, b_eq = ratio_rows(net, arr, svc, gamma)
    result = lp.solve_lp(np.zeros(net.num_links), a_eq=a_eq, b_eq=b_eq, upper=net.capacities)
    assert result.status == lp.OPTIMAL
    g = result.x
    inflow = np.bincount(net.link_dst, g, minlength=net.num_nodes)
    outflow = np.bincount(net.link_src, g, minlength=net.num_nodes)
    inflow[:n0] = lam
    outflow[egress_lo:] = mu
    growth = inflow - outflow
    if kind == "total_bandwidth":
        return float(g.sum())
    if kind == "max_overload_rate":
        return float(growth.max())
    return max(float(growth[net.layer_nodes(l).start : net.layer_nodes(l).stop].sum())
               for l in range(net.num_layers))


@pytest.mark.parametrize("seed", [20240811, 41, 7])
def test_flow_verdicts_and_values_against_the_lp_on_optimizer_families(seed):
    """Every objective on eight seeded draws of each optimizer family,
    keyed as the optimizer benchmark keys them: InfeasibleError exactly
    when HiGHS finds the system infeasible, and then the named cut is a
    minimum cut of the scaled flow (networkx) closest to the source; a
    feasible value is HiGHS's optimum, and the values gamma fixes are
    within 1e-12 relative of the in-tree simplex's solve of the system."""
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy.optimize")
    outcomes = {"infeasible": 0, "fixed": 0, "lp": 0}
    for stream, (name, sizes) in enumerate(OPTIMIZER_FAMILIES):
        cfg = preset(name)
        if sizes is not None:
            cfg = dataclasses.replace(cfg, layer_sizes=sizes)
        for k in range(8):
            inst = sample_instance(cfg, np.random.default_rng([seed, stream, k]), k)
            net, arr, svc = inst.net, inst.arr, inst.svc
            for kind in OBJECTIVE_KINDS:
                spec = ObjectiveSpec(kind)
                gamma = _default_gamma(kind, arr, svc, net.num_layers)
                status, best = _highs_co_optimum(kind, net, arr.rates, svc.rates, spec)
                assert status in (0, 2)
                if status == 2:
                    with pytest.raises(InfeasibleError) as exc:
                        co_optimize(net, arr, svc, spec)
                    _check_gamma_cut(nx, net, arr, svc, gamma, spec, exc.value)
                    outcomes["infeasible"] += 1
                    continue
                _, value = co_optimize(net, arr, svc, spec)
                assert value == pytest.approx(best, rel=1e-6, abs=1e-6), (name, k, kind)
                if kind in ("total_bandwidth", "max_layer_growth") or (
                    kind == "max_overload_rate" and net.num_layers == 2
                ):
                    ref = _simplex_fixed_value(kind, net, arr, svc, gamma)
                    assert abs(value - ref) <= 1e-12 * abs(ref), (name, k, kind, value, ref)
                    outcomes["fixed"] += 1
                else:
                    outcomes["lp"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _charnes_cooper_value(net, arr, svc, gamma):
    """Least largest link utilization over the gamma system, by the
    in-tree simplex in Charnes-Cooper form: with s = 1/t and h = g s,
    maximize s' over h_k <= c_k and the ratio rows homogenised in
    s = 1 + s', at value 1 / s; 0 when that LP is unbounded."""
    a_eq, b_eq = ratio_rows(net, arr, svc, gamma)
    m = net.num_links
    result = lp.solve_lp(
        -np.eye(m + 1)[m], a_eq=np.column_stack([a_eq, -b_eq]), b_eq=b_eq,
        upper=np.append(net.capacities, np.inf),
    )
    if result.status == lp.UNBOUNDED:
        return 0.0
    assert result.status == lp.OPTIMAL
    return 1.0 / (1.0 + result.x[m])


@pytest.mark.parametrize("seed", [20240811, 41, 7])
def test_max_utilization_by_newton_on_optimizer_families(seed, monkeypatch):
    """max_utilization on the 40 optimizer inputs: no LP call, one
    feasibility flow and then at most 7 Newton flows (3 to 5 per input
    at these seeds), none on a network with one out-link per node, whose
    value is read off the feasibility flow.  An infeasible system raises
    the feasibility flow's verdict after that one flow, exactly when HiGHS
    finds none.  A feasible value t* is within 1e-12 relative of the
    Charnes-Cooper simplex and 1e-9 of HiGHS's epigraph LP, and the cut of
    the last flow short of the total has capacity total lambda at t*, so
    no smaller t can carry the total."""
    pytest.importorskip("scipy.optimize")
    calls = []
    run, solve = optimize._FlowGraph.run, lp.solve_lp

    def recorded(graph):
        out = run(graph)
        calls.append(out[2])
        return out

    monkeypatch.setattr(optimize._FlowGraph, "run", recorded)
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append("lp") or solve(*a, **k))
    spec = ObjectiveSpec("max_utilization")
    outcomes = {"infeasible": 0, "feasible": 0, "single": 0}
    for stream, (name, sizes) in enumerate(OPTIMIZER_FAMILIES):
        cfg = preset(name)
        if sizes is not None:
            cfg = dataclasses.replace(cfg, layer_sizes=sizes)
        for k in range(8):
            inst = sample_instance(cfg, np.random.default_rng([seed, stream, k]), k)
            net, arr, svc = inst.net, inst.arr, inst.svc
            status, best = _highs_co_optimum("max_utilization", net, arr.rates, svc.rates, spec)
            calls.clear()
            try:
                _, value = co_optimize(net, arr, svc, spec)
            except InfeasibleError:
                assert len(calls) == 1 and calls[0] != "lp" and calls[0], (name, k)
                assert status == 2
                outcomes["infeasible"] += 1
                continue
            flows = list(calls)
            assert "lp" not in flows, (name, k)
            assert status == 0
            assert abs(value - best) <= 1e-9, (name, k, value, best)
            gamma = throughput_tight_gamma(arr, svc, net.num_layers)
            ref = _charnes_cooper_value(net, arr, svc, gamma)
            assert abs(value - ref) <= 1e-12 * abs(ref), (name, k, value, ref)
            if _single_out_link(net):
                assert flows == [[]], (name, k)
                outcomes["single"] += 1
                continue
            assert 2 <= len(flows) <= 8, (name, k, len(flows))
            # the cut of the last short flow, at t*, in the flow graph
            # written from the model
            cut = [c for c in flows[1:] if c][-1]
            scale = np.cumprod(gamma)[[ln.layer for ln in net.links]]
            arcs = np.concatenate([
                arr.rates, net.capacities * value * scale, svc.rates * arr.total / svc.total,
            ])
            assert abs(arcs[cut].sum() - arr.total) <= 1e-12 * arr.total, (name, k)
            outcomes["feasible"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _single_out_link(net):
    return bool(np.all(net.out_degree[: net.num_nodes - net.layer_sizes[-1]] == 1))


def _epigraph_overload_value(net, arr, svc, gamma):
    """Least largest node growth over the gamma system, by the in-tree
    simplex: minimize t = t+ - t- over (g, t+, t-) with every node's
    growth (lambda_i in at an ingress node, mu_j out at an egress node) at
    most t, the ratio rows and 0 <= g <= c, all written from the model."""
    a_eq, b_eq = ratio_rows(net, arr, svc, gamma)
    m, n = net.num_links, net.num_nodes
    a_ub = np.zeros((n, m + 2))
    b_ub = np.zeros(n)
    for k, ln in enumerate(net.links):
        a_ub[net.node_id(ln.layer + 1, ln.dst), k] += 1.0
        a_ub[net.node_id(ln.layer, ln.src), k] -= 1.0
    a_ub[:, m : m + 2] = [-1.0, 1.0]
    b_ub[: net.layer_sizes[0]] = -arr.rates
    b_ub[n - net.layer_sizes[-1] :] = svc.rates
    result = lp.solve_lp(
        np.append(np.zeros(m), [1.0, -1.0]), a_ub, b_ub, np.column_stack([a_eq, np.zeros((n, 2))]),
        b_eq, upper=np.append(net.capacities, [np.inf, np.inf]),
    )
    assert result.status == lp.OPTIMAL
    return float(result.x[m] - result.x[m + 1])


def _check_overload_route(net, arr, svc, calls):
    """max_overload_rate under the balanced-growth gamma on one input, with
    ``calls`` recording the solve_lp calls.  Returns "infeasible"; "no
    middle node", where gamma fixes the value at t_lo; "lp"
    when a middle gamma_l <= 1 keeps the epigraph LP; "single" on a
    network with one out-link per node, whose value is read off the
    feasibility flow; otherwise "t_lo" when Newton's method stops at t_lo,
    or "binds" when a middle node's bound lifts the value above it.  The
    verdict and value are HiGHS's, the value is within 1e-12 relative of
    the in-tree epigraph simplex, only the "lp" route calls solve_lp, and
    the rates attain the value."""
    spec = ObjectiveSpec("max_overload_rate")
    status, best = _highs_co_optimum(spec.kind, net, arr.rates, svc.rates, spec)
    assert status in (0, 2)
    calls.clear()
    try:
        rates, value = co_optimize(net, arr, svc, spec)
    except InfeasibleError:
        assert status == 2
        return "infeasible"
    gamma = balanced_growth_gamma(arr, svc, net.num_layers)
    t_lo = max(float(np.max(arr.rates - arr.rates / gamma[0])),
               float(np.max(gamma[-1] * svc.rates - svc.rates)))
    route = ("single" if _single_out_link(net) else
             "no middle node" if net.num_layers == 2 else
             "lp" if min(gamma[1:-1]) <= 1 else
             "binds" if value > t_lo + 1e-9 * max(1.0, abs(t_lo)) else "t_lo")
    assert (calls != []) == (route == "lp"), (route, calls)
    assert status == 0
    ref = _epigraph_overload_value(net, arr, svc, gamma)
    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (value, ref)
    assert abs(value - best) <= 1e-9 * max(1.0, abs(best)), (value, best)
    growth = node_growth(net, arr, svc, rates.values)
    assert abs(float(growth.max()) - value) <= 1e-9 * arr.total, (growth.max(), value)
    return route


@pytest.mark.parametrize("seed", [20240811, 41, 7])
def test_max_overload_rate_by_newton_on_optimizer_families(seed, monkeypatch):
    """max_overload_rate on the 40 optimizer inputs, where the balanced-
    growth gamma has every middle gamma_l > 1: no LP call, the verdict and
    value are HiGHS's, and the value is within 1e-12 relative of an
    epigraph LP over every node's growth solved by the in-tree simplex
    (:func:`_check_overload_route`)."""
    pytest.importorskip("scipy.optimize")
    calls = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append("lp") or solve(*a, **k))
    outcomes = {}
    for stream, (name, sizes) in enumerate(OPTIMIZER_FAMILIES):
        cfg = preset(name)
        if sizes is not None:
            cfg = dataclasses.replace(cfg, layer_sizes=sizes)
        for k in range(8):
            inst = sample_instance(cfg, np.random.default_rng([seed, stream, k]), k)
            route = _check_overload_route(inst.net, inst.arr, inst.svc, calls)
            outcomes[route] = outcomes.get(route, 0) + 1
    assert "lp" not in outcomes and outcomes["t_lo"] > 0, outcomes


def test_max_overload_rate_by_newton_on_random_full_connections(monkeypatch):
    """400 seeded 3-4 layer full connections, a fifth of the links
    unbounded, overloaded or not: max_overload_rate agrees with HiGHS and
    the in-tree epigraph simplex on every route, Newton's method on node
    arcs calls no LP, and the node arcs bind (t* > t_lo) on at least 30
    draws."""
    pytest.importorskip("scipy.optimize")
    calls = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append("lp") or solve(*a, **k))
    rng = np.random.default_rng(28)
    outcomes = {}
    for _ in range(400):
        sizes = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(3, 5)))]
        caps = [
            np.where(rng.random((a, b)) < 0.2, np.inf, rng.uniform(0.2, 8.0, size=(a, b)))
            for a, b in zip(sizes, sizes[1:])
        ]
        net = full_connection(sizes, caps)
        arr = ArrivalProfile(rng.uniform(1.0, 8.0, size=sizes[0]))
        svc = ServiceProfile(rng.uniform(0.2, 2.0, size=sizes[-1]))
        route = _check_overload_route(net, arr, svc, calls)
        outcomes[route] = outcomes.get(route, 0) + 1
    assert outcomes["binds"] >= 30, outcomes
    assert set(outcomes) == {"infeasible", "lp", "single", "t_lo", "binds"}, outcomes


def test_named_cut_of_an_infeasible_gamma_system_is_a_minimum_cut():
    """Random full connections with fractional rates and capacities, a
    fifth of the links unbounded, under a utilization cap, a forced-zero
    link, both or neither: the flow's verdict is HiGHS's, and each
    infeasible system names a minimum cut of its scaled flow (networkx),
    closest to the source, in the gamma system's words.  Every kind of
    name turns up."""
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(25)
    seen = set()
    for trial in range(160):
        sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
        caps = [
            np.where(rng.random((a, b)) < 0.2, np.inf, rng.uniform(0.5, 4.0, size=(a, b)))
            for a, b in zip(sizes, sizes[1:])
        ]
        net = full_connection(sizes, caps)
        arr = ArrivalProfile(rng.uniform(0.5, 4.0, size=sizes[0]))
        svc = ServiceProfile(rng.uniform(0.5, 4.0, size=sizes[-1]))
        forced = (net.links[int(rng.integers(net.num_links))].key,)
        extra = ({}, {"utilization_cap": 0.6}, {"forced_zero": forced},
                 {"utilization_cap": 0.8, "forced_zero": forced})[trial % 4]
        kind = ("total_bandwidth", "max_layer_growth")[trial // 4 % 2]
        spec = ObjectiveSpec(kind, **extra)
        status, _ = _highs_co_optimum(kind, net, arr.rates, svc.rates, spec)
        assert status in (0, 2)
        try:
            co_optimize(net, arr, svc, spec)
        except InfeasibleError as exc:
            assert status == 2, (trial, spec)
            gamma = _default_gamma(kind, arr, svc, net.num_layers)
            _check_gamma_cut(nx, net, arr, svc, gamma, spec, exc)
            seen.update(re.sub(r" (at|on|of) .*", "", name) for name in exc.binding)
        else:
            assert status == 0, (trial, spec)
    assert seen == {"ingress ratio", "egress ratio", "capacity", "utilization cap", "forced zero"}


def test_single_out_link_networks_read_every_objective_off_the_flow(monkeypatch):
    """With one out-link per non-egress node (a fan-in tree, an N x 1
    network) the ratio rows fix every rate, so each objective is read off
    the one feasibility flow: no LP, no Newton flow, and HiGHS's optimum.
    full_connection([2, 2, 1, 2]) has one out-link at each layer-2 node but
    two at every other node, so its rates are not fixed: max_utilization
    and max_overload_rate take Newton's flows and avg_utilization its LP."""
    pytest.importorskip("scipy.optimize")
    tree = LayeredNetwork((4, 2, 1), [
        Link(0, 0, 0, 1.0), Link(0, 1, 0, 2.0), Link(0, 2, 1, 3.0), Link(0, 3, 1, 4.0),
        Link(1, 0, 0, 2.0), Link(1, 1, 0),
    ])
    mixed = full_connection([2, 2, 1, 2], [np.full((2, 2), 6.0), np.array([[9.0], [3.0]]),
                                           np.full((1, 2), 12.0)])
    cases = (
        (tree, ArrivalProfile([1.0, 2.0, 3.0, 4.0]), ServiceProfile([4.0]), True),
        (single_sink(3, [4.0, 4.0, 5.0]), ArrivalProfile([1.0, 2.0, 6.0]), ServiceProfile([4.0]), True),
        (mixed, ArrivalProfile([4.0, 8.0]), ServiceProfile([2.0, 3.0]), False),
    )
    calls = []
    run, solve = optimize._FlowGraph.run, lp.solve_lp
    monkeypatch.setattr(optimize._FlowGraph, "run", lambda g: calls.append("flow") or run(g))
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append("lp") or solve(*a, **k))
    for net, arr, svc, single in cases:
        for kind in OBJECTIVE_KINDS:
            spec = ObjectiveSpec(kind)
            status, best = _highs_co_optimum(kind, net, arr.rates, svc.rates, spec)
            assert status == 0
            calls.clear()
            _, value = co_optimize(net, arr, svc, spec)
            assert value == pytest.approx(best, rel=1e-9, abs=1e-12), (net, kind)
            if single:
                assert calls == ["flow"], (net, kind, calls)
            elif kind == "avg_utilization":
                assert calls == ["flow", "lp"]
            elif kind in ("max_utilization", "max_overload_rate"):
                assert calls.count("flow") > 1 and "lp" not in calls, (kind, calls)
