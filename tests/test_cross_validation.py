"""Cross-checks of one implementation route against an independent one:
closed forms vs simulation, membership checks vs value suboptimality, and
the in-tree simplex vs an external solver."""
import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    Link,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    check_min_delay_single_hop,
    check_min_delay_single_sink,
    full_connection,
    overload_check,
    packet_delay,
    run,
    single_sink,
)
from fluidq import lp

from conftest import single_sink_rates


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


def test_single_hop_clear_failures_cost_delay():
    """Vectors that fail the single-hop condition beyond the resolution
    band are measurably worse than the closed-form minimum."""
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
        strict = check_min_delay_single_hop(net, arr, svc, rates, tol=1e-9)
        loose = check_min_delay_single_hop(net, arr, svc, rates, tol=1e-2)
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


def test_overload_verdict_against_networkx_max_flow():
    """Overloaded exactly when the max-flow from a source (arc capacity
    lambda_i into each ingress) to a sink (mu_j out of each egress) falls
    short of the total arrival rate."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(20):
        sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
        caps = [rng.integers(1, 4, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        net = full_connection(sizes, caps)
        arr = ArrivalProfile(rng.integers(1, 5, size=sizes[0]).astype(float))
        svc = ServiceProfile(rng.integers(1, 5, size=sizes[-1]).astype(float))
        graph = nx.DiGraph()
        egress_lo = net.num_nodes - sizes[-1]
        for i, rate in enumerate(arr.rates):
            graph.add_edge("s", i, capacity=float(rate))
        for j, rate in enumerate(svc.rates):
            graph.add_edge(egress_lo + j, "t", capacity=float(rate))
        for k, cap in enumerate(net.capacities):
            graph.add_edge(int(net.link_src[k]), int(net.link_dst[k]), capacity=float(cap))
        flow = nx.maximum_flow_value(graph, "s", "t")
        overloaded = overload_check(net, arr, svc).overloaded
        assert overloaded == (flow < arr.total - 1e-9)
        verdicts.add(overloaded)
    assert verdicts == {True, False}
