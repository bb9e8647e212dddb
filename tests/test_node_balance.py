"""Per-node link sums: ``bincount`` and the plan's source runs against a
reference written with ``np.add.at`` and ``np.minimum.at`` (a scatter in
link order from zero, the same additions in the same order), and
``node_growth`` against the dense node-by-link incidence product."""
import dataclasses

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    CheckResult,
    LayeredNetwork,
    Link,
    QueueState,
    RateAssignment,
    check_min_delay_layered,
    queue_proportional_rates,
)
from fluidq.bench import _static_opt_rates, preset, sample_instance
from fluidq.engine import effective_flow
from fluidq.network import node_growth
from fluidq.optimize import balanced_growth_gamma
from fluidq.policies import as_gamma

from conftest import adjacency

SEED = 20240811
FAMILIES = {
    "2x2": dataclasses.replace(preset("nsxnd"), layer_sizes=(2, 2)),
    "nx1-limited": preset("nx1-limited"),
    "nsxnd-16x8": dataclasses.replace(preset("nsxnd"), layer_sizes=(16, 8)),
    "multistage-8x6x4x3": dataclasses.replace(
        preset("multistage-16x12x8x6"), layer_sizes=(8, 6, 4, 3)
    ),
    "tree": preset("tree"),
}


def draws(family, count=3):
    cfg = FAMILIES[family]
    return [sample_instance(cfg, np.random.default_rng([SEED, k]), k) for k in range(count)]


def vectors(inst, rng):
    """A rate-proportional vector, random vectors that overcommit (so the
    effective flow scales them down), and random vectors with every
    out-link of one node idle (so that node receives flow it cannot pass
    on)."""
    net = inst.net
    hi = 2.0 * float(inst.arr.rates.max())
    out = [_static_opt_rates(inst).values]
    for _ in range(4):
        out.append(rng.uniform(0.0, hi, size=net.num_links))
        idle = net.link_src == rng.integers(0, net.num_nodes - net.layer_sizes[-1])
        out.append(np.where(idle, 0.0, rng.uniform(0.0, hi, size=net.num_links)))
    return out


# -- references --------------------------------------------------------------


def reference_effective_flow(net, arr, values):
    values = np.asarray(values, dtype=float)
    inflow = np.zeros(net.num_nodes)
    inflow[list(net.ingress_nodes)] = arr.rates
    set_out = np.zeros(net.num_nodes)
    np.add.at(set_out, net.link_src, values)
    g_tilde = np.zeros_like(values)
    sinks = []
    tol = 1e-12 * max(1.0, arr.total)
    for l, ids in enumerate(adjacency(net).layers):
        lo = net.node_id(l, 0)
        hi = lo + net.layer_sizes[l]
        out_l = set_out[lo:hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(out_l > 0, np.minimum(1.0, inflow[lo:hi] / out_l), 0.0)
        g_tilde[ids] = values[ids] * factor[net.link_src[ids] - lo]
        np.add.at(inflow, net.link_dst[ids], g_tilde[ids])
        stuck = np.flatnonzero((inflow[lo:hi] > tol) & (out_l <= 0))
        sinks += [(l, int(local)) for local in stuck]
    return g_tilde, inflow, set_out, sinks


def reference_check_layered(net, arr, svc, values, gamma=None, tol=1e-9):
    ingress = np.zeros(net.num_nodes)
    egress = np.zeros(net.num_nodes)
    np.add.at(ingress, net.link_dst, values)
    np.add.at(egress, net.link_src, values)
    ingress[list(net.ingress_nodes)] = arr.rates
    inferred, residuals = [], {}
    given = as_gamma(gamma, net.num_layers) if gamma is not None else None
    for l in range(net.num_layers):
        ids = np.array(net.layer_nodes(l))
        if l == net.num_layers - 1:
            r = ingress[ids] / svc.rates
        elif np.any((egress[ids] <= 0) & (ingress[ids] > 0)):
            return CheckResult(False, f"zero egress rate at a node of layer {l + 1}")
        else:
            carrying = ids[egress[ids] > 0]
            r = ingress[carrying] / egress[carrying]
        if r.size == 0:
            return CheckResult(False, f"no flow through layer {l + 1}")
        target = given[l] if given else float(r.mean())
        dev = float(np.max(np.abs(r - target)) / max(abs(target), 1e-300))
        residuals[f"layer_{l + 1}_ratio_spread"] = dev
        if not dev <= tol:
            return CheckResult(
                False, f"unequal ingress/egress ratios at layer {l + 1}", None, residuals
            )
        inferred.append(target)
    best = min(arr.total, svc.total)
    _, inflow, _, _ = reference_effective_flow(net, arr, values)
    service = np.minimum(inflow[list(net.egress_nodes)], svc.rates).sum()
    residuals["throughput_deficit"] = float(best - service)
    ok = bool(service >= best - tol * max(1.0, best))
    reason = None if ok else "maximum throughput not achieved"
    return CheckResult(ok, reason, tuple(inferred), residuals)


def reference_downscale(net, values):
    """Each source scales its links down to its tightest capacity ratio."""
    over = values > net.capacities
    factor = np.ones(net.num_nodes)
    np.minimum.at(factor, net.link_src[over], net.capacities[over] / values[over])
    return values * factor[net.link_src]


def incidence(net):
    """Node-by-link matrix: +1 where a link enters the node, -1 where it
    leaves."""
    a = np.zeros((net.num_nodes, net.num_links))
    cols = np.arange(net.num_links)
    a[net.link_dst, cols] = 1.0
    a[net.link_src, cols] = -1.0
    return a


def node_rhs(net, arr, svc):
    rhs = np.zeros(net.num_nodes)
    rhs[: net.layer_sizes[0]] = -arr.rates
    rhs[net.num_nodes - net.layer_sizes[-1] :] = svc.rates
    return rhs


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_effective_flow_matches_the_scatter_reference(family):
    rng = np.random.default_rng([SEED, 1])
    scaled = stuck = 0
    for inst in draws(family):
        for values in vectors(inst, rng):
            got = effective_flow(inst.net, inst.arr, values)
            want = reference_effective_flow(inst.net, inst.arr, values)
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)
            assert got[3] == want[3]
            scaled += not np.array_equal(got[0], values)
            stuck += bool(got[3])
    assert scaled and stuck


def test_effective_flow_reports_sinks_of_a_layer_without_links():
    net = LayeredNetwork((2, 2, 1), [Link(0, 0, 0), Link(0, 1, 1), Link(0, 1, 0)])
    arr = ArrivalProfile([3.0, 4.0])
    values = np.array([2.0, 1.0, 5.0])
    got = effective_flow(net, arr, values)
    want = reference_effective_flow(net, arr, values)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3] == [(1, 0), (1, 1)]


@pytest.mark.parametrize("family", FAMILIES)
def test_layered_check_matches_the_scatter_reference(family):
    rng = np.random.default_rng([SEED, 2])
    passed = 0
    for inst in draws(family):
        net, arr, svc = inst.net, inst.arr, inst.svc
        for values in vectors(inst, rng):
            rates = RateAssignment(net, values)
            for gamma in (None, balanced_growth_gamma(arr, svc, net.num_layers)):
                got = check_min_delay_layered(net, arr, svc, rates, gamma)
                assert got == reference_check_layered(net, arr, svc, values, gamma)
                passed += got.ok
    # capacity binds on each of these nx1-limited draws, so its waterfill
    # is not rate-proportional and no vector passes there
    assert passed or family == "nx1-limited"


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "nx1-limited"])
def test_queue_proportional_downscale_matches_the_scatter_reference(family):
    # capacities enter a multi-hop network's rates only at the downscale,
    # so the same topology without them gives the rates before it (a
    # single sink waterfills instead and has no downscale)
    rng = np.random.default_rng([SEED, 3])
    clipped = 0
    for inst in draws(family):
        net, arr, svc = inst.net, inst.arr, inst.svc
        free = LayeredNetwork(net.layer_sizes, [Link(*link.key) for link in net.links])
        for _ in range(4):
            state = QueueState(rng.integers(0, 500, size=net.num_nodes).astype(float), 0.0)
            for gamma in (None, balanced_growth_gamma(arr, svc, net.num_layers)):
                got = queue_proportional_rates(state, net, svc, gamma, arr, 1.0).values
                raw = queue_proportional_rates(state, free, svc, gamma, arr, 1.0).values
                assert np.array_equal(got, reference_downscale(net, raw))
                clipped += not np.array_equal(got, raw)
    assert clipped


@pytest.mark.parametrize("family", FAMILIES)
def test_node_growth_matches_the_incidence_product(family):
    rng = np.random.default_rng([SEED, 4])
    for inst in draws(family):
        net, arr, svc = inst.net, inst.arr, inst.svc
        for values in vectors(inst, rng):
            got = node_growth(net, arr, svc, values)
            a, rhs = incidence(net), node_rhs(net, arr, svc)
            want = a @ values - rhs
            # relative to each node's gross balance: all it takes in and sends
            gross = np.abs(a) @ values + np.abs(rhs)
            assert np.all(np.abs(got - want) <= 1e-15 * gross)
