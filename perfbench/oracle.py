"""Independent checks of the optimizer outputs.

The overload verdict is compared with a max-flow computed by networkx, and
every co-optimization outcome with the optimum HiGHS (through scipy) finds
for the same model, written here from the paper's constraints rather than
taken from ``fluidq.optimize``.  Both libraries are imported lazily so that
they stay out of the timed phase and out of the peak resident set it
reports.
"""
from __future__ import annotations

import math

import numpy as np

VALUE_RTOL = 1e-6
RATE_TOL = 1e-7


def max_flow(net, lam, mu) -> float:
    """Largest rate a source feeding every ingress node (arc capacity
    lambda_i) can push to a sink fed by every egress node (arc capacity
    mu_j) through the links' capacities."""
    import networkx as nx

    graph = nx.DiGraph()
    egress_lo = net.num_nodes - net.layer_sizes[-1]
    for i, rate in enumerate(lam):
        graph.add_edge("s", i, capacity=float(rate))
    for j, rate in enumerate(mu):
        graph.add_edge(egress_lo + j, "t", capacity=float(rate))
    for k, cap in enumerate(net.capacities):
        src, dst = int(net.link_src[k]), int(net.link_dst[k])
        if math.isinf(cap):
            graph.add_edge(src, dst)
        else:
            graph.add_edge(src, dst, capacity=float(cap))
    return float(nx.maximum_flow_value(graph, "s", "t"))


def default_gamma(kind: str, lam_total: float, mu_total: float, layers: int):
    """Per-layer ingress/egress ratios the optimizer uses when none are
    given: balanced growth for the growth objectives, throughput-tight for
    the bandwidth and utilization ones."""
    if kind in ("max_overload_rate", "max_layer_growth"):
        excess = lam_total - mu_total
        return [
            (lam_total - (l - 1) / layers * excess) / (lam_total - l / layers * excess)
            for l in range(1, layers + 1)
        ]
    return [lam_total / mu_total] + [1.0] * (layers - 1)


def _node_growth(net, lam, mu, g):
    """Inflow minus outflow per node (arrivals at the ingress layer,
    service at the egress layer)."""
    inflow = np.zeros(net.num_nodes)
    outflow = np.zeros(net.num_nodes)
    np.add.at(inflow, net.link_dst, g)
    np.add.at(outflow, net.link_src, g)
    inflow[: net.layer_sizes[0]] = lam
    outflow[net.num_nodes - net.layer_sizes[-1]:] = mu
    return inflow - outflow


def objective_of(kind: str, net, lam, mu, g) -> float:
    """Objective value of a rate vector, computed from its definition."""
    caps = np.asarray(net.capacities, dtype=float)
    finite = np.isfinite(caps)
    if kind == "total_bandwidth":
        return float(g.sum())
    if kind == "avg_utilization":
        return float((g[finite] / caps[finite]).sum() / finite.sum())
    if kind == "max_utilization":
        return float((g[finite] / caps[finite]).max())
    growth = _node_growth(net, lam, mu, g)
    if kind == "max_overload_rate":
        return float(growth.max())
    bounds = np.cumsum([0] + list(net.layer_sizes))
    return float(max(growth[bounds[l]:bounds[l + 1]].sum() for l in range(net.num_layers)))


def highs_optimum(kind: str, net, lam, mu, gamma):
    """Solve the min-delay co-optimization with HiGHS.

    Returns ``(status, value)``: status 0 is optimal, 2 infeasible.  The
    model: at the ingress layer each node sends lambda_i / gamma_1, every
    middle node of layer l receives gamma_l times what it sends, every
    egress node receives gamma_L * mu_j, and 0 <= g <= c.
    """
    from scipy.optimize import linprog

    m = net.num_links
    caps = np.asarray(net.capacities, dtype=float)
    finite = np.isfinite(caps)
    aux = {"max_utilization": 1, "max_overload_rate": 1, "max_layer_growth": 1}.get(kind, 0)
    width = m + aux
    a_eq, b_eq = [], []
    node = 0
    for l, size in enumerate(net.layer_sizes):
        for i in range(size):
            row = np.zeros(width)
            if l == 0:
                row[:m][net.link_src == node] = 1.0
                b_eq.append(lam[i] / gamma[0])
            elif l == net.num_layers - 1:
                row[:m][net.link_dst == node] = 1.0
                b_eq.append(gamma[-1] * mu[i])
            else:
                row[:m][net.link_dst == node] = 1.0
                row[:m][net.link_src == node] -= gamma[l]
                b_eq.append(0.0)
            a_eq.append(row)
            node += 1
    bounds = [(0.0, None if math.isinf(c) else float(c)) for c in caps]
    c = np.zeros(width)
    a_ub, b_ub = [], []
    if kind == "total_bandwidth":
        c[:m] = 1.0
    elif kind == "avg_utilization":
        c[:m][finite] = 1.0 / (caps[finite] * finite.sum())
    elif kind == "max_utilization":
        c[m] = 1.0
        bounds.append((0.0, None))
        for k in np.flatnonzero(finite):
            row = np.zeros(width)
            row[k] = 1.0
            row[m] = -caps[k]
            a_ub.append(row)
            b_ub.append(0.0)
    else:
        c[m] = 1.0
        bounds.append((None, None))
        layer_of = np.repeat(np.arange(net.num_layers), net.layer_sizes)
        groups = (
            [[nid] for nid in range(net.num_nodes)]
            if kind == "max_overload_rate"
            else [list(np.flatnonzero(layer_of == l)) for l in range(net.num_layers)]
        )
        for nodes in groups:
            row = np.zeros(width)
            rhs = 0.0
            for nid in nodes:
                l = layer_of[nid]
                i = nid - int(np.sum(net.layer_sizes[:l]))
                if l == 0:
                    rhs -= lam[i]
                else:
                    row[:m][net.link_dst == nid] += 1.0
                if l == net.num_layers - 1:
                    rhs += mu[i]
                else:
                    row[:m][net.link_src == nid] -= 1.0
            row[m] = -1.0
            a_ub.append(row)
            b_ub.append(rhs)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return 0, float(res.x[m] if aux else res.fun)
    return int(res.status), None


def check_co_optimize(fq, kind, inst, outcome) -> str | None:
    """Verdict on one co_optimize outcome: ``None`` when it agrees with
    HiGHS, otherwise the reason.  ``outcome`` is ``("ok", (rates, value))``
    or ``("infeasible", message)``."""
    net, lam, mu = inst.net, inst.arr.rates, inst.svc.rates
    gamma = default_gamma(kind, float(lam.sum()), float(mu.sum()), net.num_layers)
    status, best = highs_optimum(kind, net, lam, mu, gamma)
    tag, payload = outcome
    if tag == "infeasible":
        if status == 2:
            return None
        return f"InfeasibleError but HiGHS status {status} (optimum {best})"
    if status != 0:
        return f"returned a value but HiGHS status is {status}"
    rates, value = payload
    g = np.asarray(rates.values, dtype=float)
    if not np.all(np.isfinite(g)) or g.min() < -RATE_TOL:
        return "rates are negative or not finite"
    caps = np.asarray(net.capacities, dtype=float)
    if np.any(g > caps * (1.0 + RATE_TOL) + RATE_TOL):
        return "rates exceed a link capacity"
    scale = max(1.0, abs(best))
    if not abs(value - best) <= VALUE_RTOL * scale:
        return f"value {value!r} differs from HiGHS optimum {best!r}"
    actual = objective_of(kind, net, lam, mu, g)
    if not abs(actual - value) <= VALUE_RTOL * scale:
        return f"reported value {value!r} but the rates give {actual!r}"
    verdict = fq.policies.check_min_delay_layered(
        net, inst.arr, inst.svc, rates, gamma, tol=1e-6
    )
    if not verdict:
        return f"rates fail the min-delay check: {verdict.reason}"
    return None


def check_overload(inst, verdict) -> str | None:
    """Verdict on one overload_check result against networkx max-flow."""
    lam, mu = inst.arr.rates, inst.svc.rates
    overloaded = max_flow(inst.net, lam, mu) < float(lam.sum()) * (1.0 - 1e-9)
    if verdict.overloaded != overloaded:
        return f"verdict overloaded={verdict.overloaded}, max-flow says {overloaded}"
    return None
