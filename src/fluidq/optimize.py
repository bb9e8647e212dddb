"""Overload detection and co-optimization under min-delay constraints.

Overload means no static rate vector within the capacities can keep every
buffer bounded.  The defining inequality system is feasible exactly when
a max-flow from the arrivals over the links to the egress service carries
the total arrival rate, so Dinic's blocking flows decide it, and an
overloaded verdict names the minimum cut.

With the per-layer ratio vector gamma fixed, the min-delay conditions are
linear in the rates.  Without split caps they are flow conservation on
links scaled by gamma_1 ... gamma_l, so the same max-flow decides them for
every secondary objective and an infeasible system names its minimum cut;
the objectives whose value gamma fixes (total bandwidth, layer growth, and
every objective when each node has one out-link) read it off the flow's
rates.  The largest link utilization, and the largest node overload when
every middle layer has gamma_l > 1, are found by Newton's method over
max-flows that scale link or node-arc capacities with the value, each flow
resuming the last.  Average utilization, per-node overload under a middle
gamma_l <= 1 and every objective under a split cap solve one LP shape over
the conditions: a linear cost, plus a bound t on the largest utilization
or node overload by epigraph rows.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import lp
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    ensure_valid,
    node_growth,
)
from .policies import as_gamma, check_min_delay_layered

OBJECTIVE_KINDS = (
    "total_bandwidth",
    "max_utilization",
    "avg_utilization",
    "max_overload_rate",
    "max_layer_growth",
)


class InfeasibleError(RuntimeError):
    """The constraint system admits no rate vector."""

    def __init__(self, message: str, binding: list[str] | None = None):
        self.binding = binding or []
        if self.binding:
            message = f"{message} (binding: {'; '.join(self.binding)})"
        super().__init__(message)


@dataclass(frozen=True)
class OverloadVerdict:
    """Outcome of the overload feasibility check.  ``witness`` is a rate
    vector keeping all buffers bounded when one exists."""

    overloaded: bool
    witness: RateAssignment | None
    detail: str


@dataclass(frozen=True)
class ObjectiveSpec:
    """A secondary objective plus optional routing restrictions.

    ``forced_zero`` lists links that must carry nothing, ``split_cap`` caps
    the fraction of a node's inflow any single link may carry, and
    ``utilization_cap`` bounds g/c on every finite-capacity link.
    """

    kind: str
    forced_zero: tuple[tuple[int, int, int], ...] = ()
    split_cap: float | None = None
    utilization_cap: float | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.kind!r}")
        caps = {"split cap": self.split_cap, "utilization cap": self.utilization_cap}
        for name, cap in caps.items():
            if cap is None:
                continue
            if isinstance(cap, bool) or not isinstance(cap, numbers.Real):
                raise ValueError(f"{name} must be a number in (0, 1], got {cap!r}")
            if not 0 < cap <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        if not isinstance(self.forced_zero, tuple):
            raise ValueError(
                f"forced_zero must be a tuple of (l, i, j) link keys, got {self.forced_zero!r}"
            )
        for key in self.forced_zero:
            if not (isinstance(key, tuple) and len(key) == 3 and all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0
                for v in key
            )):
                raise ValueError(
                    f"forced-zero link key must be three nonnegative ints (l, i, j), got {key!r}"
                )


def _tol(total: float) -> float:
    """Slack of the flow's shortfall test and of every bound check:
    1e-9 * max(1, total arrival rate)."""
    return 1e-9 * max(1.0, total)


def _incidence(net: LayeredNetwork) -> np.ndarray:
    """Node-by-link matrix of inflow minus outflow: +1 where a link
    enters the node, -1 where it leaves."""
    a = np.zeros((net.num_nodes, net.num_links))
    cols = np.arange(net.num_links)
    a[net.link_dst, cols] = 1.0
    a[net.link_src, cols] = -1.0
    return a


class _FlowGraph:
    """Dinic's residual graph from a source with an arc of capacity
    lambda_i into each ingress node, over the links (capacity ``caps``), to
    a sink with an arc of capacity mu_j out of each egress node.

    Forward arcs are numbered lambda arcs, then links, then mu arcs, then,
    when ``node_caps`` is given, one node arc per middle node: that node's
    out-links leave from a twin node, which the node arc of capacity
    ``node_caps[v]`` reaches from it, so the arc bounds the node's
    throughput.  Arc 2k is forward arc k and arc 2k + 1 its reverse, so
    ``a ^ 1`` pairs them and the flow on arc k is the residual of its
    reverse, which is how an unbounded link reports a finite flow.

    :meth:`raise_caps` raises forward arcs' capacities and keeps the flow,
    which stays feasible, so the next :meth:`run` resumes from it (Gallo,
    Grigoriadis and Tarjan, "A fast parametric maximum flow algorithm",
    SIAM J. Comput. 1989).
    """

    def __init__(self, net, lam, mu, caps, node_caps=None):
        n = net.num_nodes
        n0, egress_lo = net.layer_sizes[0], n - net.layer_sizes[-1]
        self.source, self.sink = n, n + 1
        self.n0, self.total = n0, float(lam.sum())
        self.links = slice(2 * n0 + 1, 2 * (n0 + net.num_links), 2)
        tail = [n] * n0 + net.link_src.tolist() + list(range(egress_lo, n))
        head = list(range(n0)) + net.link_dst.tolist() + [n + 1] * (n - egress_lo)
        self.cap = lam.tolist() + caps.tolist() + mu.tolist()
        self.num_vertices = n + 2
        if node_caps is not None:
            # the twin of middle node v is vertex v + shift
            middle, shift = range(n0, egress_lo), n + 2 - n0
            tail[n0 : n0 + net.num_links] = [
                v + shift if v in middle else v for v in tail[n0 : n0 + net.num_links]
            ]
            tail += middle
            head += [v + shift for v in middle]
            self.cap += node_caps.tolist()
            self.num_vertices += len(middle)
        self.tail, self.head = tail, head
        self.to = [0] * (2 * len(tail))
        self.to[::2] = head
        self.to[1::2] = tail
        self.res = [0.0] * len(self.to)
        self.res[::2] = self.cap
        self.out = [[] for _ in range(self.num_vertices)]
        for a, v in enumerate(self.to):
            self.out[v].append(a ^ 1)

    def raise_caps(self, arcs, caps) -> None:
        """Set forward arcs ``arcs`` to capacities ``caps``, each at least
        its current one: their residuals rise by the difference."""
        res, cap = self.res, self.cap
        for k, c in zip(arcs, caps):
            res[2 * k] += c - cap[k]
            cap[k] = c

    def run(self) -> tuple[float, np.ndarray, list[int]]:
        """Augment the current flow to a maximum one by blocking flows.

        Returns the flow value, the flow on every link, and the cut: empty
        when the flow comes within :func:`_tol` of the total of lambda,
        otherwise the forward arcs that cross the minimum cut closest to
        the source, from the vertices the last breadth-first search reached
        to those it did not.  Every maximum flow leaves the same vertices
        reachable, so a resumed run names the same cut as a fresh one.
        """
        to, res, out = self.to, self.res, self.out
        source, sink, size = self.source, self.sink, self.num_vertices
        while True:
            # level graph: breadth-first distances from the source in the
            # residual graph
            level = [-1] * size
            level[source] = 0
            frontier = [source]
            for u in frontier:
                step = level[u] + 1
                for a in out[u]:
                    v = to[a]
                    if level[v] < 0 and res[a] > 0:
                        level[v] = step
                        frontier.append(v)
            if level[sink] < 0:
                break
            # blocking flow: an iterative depth-first search along the level
            # graph, each vertex resuming at its current arc
            current = [0] * size
            path = []
            u = source
            while True:
                if u == sink:
                    on_path = [res[a] for a in path]
                    bottleneck = min(on_path)
                    for a in path:
                        res[a] -= bottleneck
                        res[a ^ 1] += bottleneck
                    # the first bottleneck arc's residual is now exactly 0:
                    # resume at its tail
                    k = on_path.index(bottleneck)
                    u = to[path[k] ^ 1]
                    del path[k:]
                arcs, step = out[u], level[u] + 1
                for i in range(current[u], len(arcs)):
                    a = arcs[i]
                    if res[a] > 0 and level[to[a]] == step:
                        current[u] = i
                        path.append(a)
                        u = to[a]
                        break
                else:
                    if u == source:
                        break
                    # dead end: no path to the sink continues through u
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                    current[u] += 1

        value = sum(res[1 : 2 * self.n0 : 2])
        cut = []
        if not self.total - value <= _tol(self.total):
            cut = [
                k for k, (u, v) in enumerate(zip(self.tail, self.head))
                if level[u] >= 0 > level[v]
            ]
        return value, np.array(res[self.links]), cut


def _max_flow(
    net: LayeredNetwork, lam: np.ndarray, mu: np.ndarray, caps: np.ndarray | None = None
) -> tuple[float, np.ndarray, list[int]]:
    """One :meth:`_FlowGraph.run` from zero flow, on link capacities
    ``caps`` (by default the network's)."""
    return _FlowGraph(net, lam, mu, net.capacities if caps is None else caps).run()


def _cut_name(net: LayeredNetwork, k: int) -> str:
    """File form of forward arc k of :func:`_max_flow`'s graph."""
    n0 = net.layer_sizes[0]
    if k < n0:
        return f"lambda[{k + 1}]"
    if k < n0 + net.num_links:
        return net.link_names[k - n0]
    return f"mu[{k - n0 - net.num_links + 1}]"


def overload_check(
    net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile
) -> OverloadVerdict:
    """Max-flow decision of the bounded-backlog inequality system.

    Not overloaded means some g within the capacities ships every ingress
    node's arrivals while no node (middle or egress) receives more than it
    can pass on.  That holds exactly when the max flow from a source (arc
    lambda_i into each ingress node) over the links to a sink (arc mu_j
    out of each egress node) reaches the total arrival rate: such a flow
    meets the system, and any g that meets it thins layer by layer into
    such a flow.  The flow is Dinic's and must come within :func:`_tol` of
    the total; boundary-feasible instances count as not overloaded.

    The witness is the link flow, checked against the system to the same
    tolerance: no node's :func:`~fluidq.network.node_growth` is positive
    and every link is within capacity.  An overloaded verdict's detail names
    the minimum cut closest to the source (lambda[i], links as l:i:j,
    mu[j]) and its capacity, which equals the max flow.
    """
    ensure_valid(net, arr, svc)
    _, x, cut = _max_flow(net, arr.rates, svc.rates)
    if cut:
        cap = np.concatenate([arr.rates, net.capacities, svc.rates])[cut].sum()
        arcs = ", ".join(_cut_name(net, k) for k in cut)
        return OverloadVerdict(
            True, None, f"minimum cut {cap:.9g} < total arrival rate {arr.total:.9g}: {arcs}"
        )
    residual = np.max(np.concatenate([node_growth(net, arr, svc, x), x - net.capacities, -x]))
    if not (residual <= _tol(arr.total)):
        raise lp.SimplexError(f"witness violates the system by {residual:g}")
    return OverloadVerdict(False, RateAssignment(net, x), "bounded-backlog rates exist")


def balanced_growth_gamma(
    arr: ArrivalProfile, svc: ServiceProfile, num_layers: int
) -> tuple[float, ...]:
    """Per-layer ratios that equalize total queue growth across layers.

    With overload excess S = total arrivals - total service, each of the L
    layers then backlogs at rate S / L.
    """
    lam_sum = arr.total
    mu_sum = svc.total
    excess = lam_sum - mu_sum
    gamma = []
    for l in range(1, num_layers + 1):
        upper = lam_sum - (l - 1) / num_layers * excess
        lower = lam_sum - l / num_layers * excess
        if not (lower > 0 and upper > 0):
            raise ValueError("balanced-growth ratios undefined: nonpositive layer total")
        gamma.append(upper / lower)
    return tuple(gamma)


def throughput_tight_gamma(
    arr: ArrivalProfile, svc: ServiceProfile, num_layers: int
) -> tuple[float, ...]:
    """Ratios that keep every layer's total egress at exactly the total
    service rate: all backlog accumulates at the ingress layer and no link
    bandwidth is spent beyond what throughput needs."""
    if not svc.total > 0:
        raise ValueError(f"total service rate of mu must be positive, got {svc.total:g}")
    return (arr.total / svc.total,) + (1.0,) * (num_layers - 1)


def _constraint_names(
    net: LayeredNetwork, objective: ObjectiveSpec, forced: set[int]
) -> tuple[list[str], list[str]]:
    """Names of the gamma system's rows (split caps, then ratio rows) and
    link bounds, in :func:`co_optimize`'s order: the words in which an
    infeasible system's cut or phase 1, and a broken bound, are named."""
    coords = [net.node_coords(nid) for nid in range(net.num_nodes)]
    rows = []
    if objective.split_cap is not None:
        rows += [f"split cap on link {name}" for name in net.link_names]
    rows += [
        f"ingress ratio at layer 1 node {i + 1}" if l == 0
        else f"egress ratio at node {i + 1}" if l == net.num_layers - 1
        else f"ratio at layer {l + 1} node {i + 1}"
        for l, i in coords
    ]
    cap_name = "capacity of" if objective.utilization_cap is None else "utilization cap on"
    bounds = [
        f"forced zero on link {name}" if k in forced else f"{cap_name} link {name}"
        for k, name in enumerate(net.link_names)
    ]
    return rows, bounds


def _flow_rates(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    scale: np.ndarray,
    upper: np.ndarray,
    objective: ObjectiveSpec,
    forced: set[int],
) -> np.ndarray:
    """Rates of a gamma system without split caps, from one max-flow.

    ``scale`` holds s_l = gamma_1 ... gamma_l for each link of source
    layer l.  With f = g * s the ratio rows say that each ingress node
    sends lambda_i, each middle node sends what it receives and each
    egress node receives mu_j * total lambda / total mu: a flow of value
    total lambda, on link capacities ``upper`` * s (Gale, "A theorem on
    flows in networks", Pacific J. Math. 1957).  A flow short of the total
    by more than :func:`_tol` raises :class:`InfeasibleError` naming the
    minimum cut closest to the source in the gamma system's words: lambda
    arcs as ingress ratio rows, links as their capacity, utilization-cap or
    forced-zero bounds, and demand arcs as egress ratio rows.  Otherwise
    the rates are f / s, clipped to [0, upper] as the simplex clips its
    solutions.
    """
    caps = upper * scale
    demand = svc.rates * (arr.total / svc.total)
    _, f, cut = _max_flow(net, arr.rates, demand, caps)
    if cut:
        rows, bounds = _constraint_names(net, objective, forced)
        arcs = rows[: net.layer_sizes[0]] + bounds + rows[net.num_nodes - net.layer_sizes[-1] :]
        cap = np.concatenate([arr.rates, caps, demand])[cut].sum()
        raise InfeasibleError(
            f"min-delay constraint system is infeasible: minimum cut {cap:.9g} "
            f"< total arrival rate {arr.total:.9g}",
            [arcs[k] for k in cut],
        )
    return lp.clip_to_bounds(f / scale, upper)


def _newton(
    graph: _FlowGraph, arcs: np.ndarray, slope: np.ndarray, t: float, kind: str,
    t_max: float = math.inf,
) -> tuple[float, np.ndarray]:
    """The least t >= the given one, and at most ``t_max``, at which
    ``graph`` carries its total with forward arcs ``arcs`` at capacity
    ``slope`` * t, and the link flow that carries it.

    A flow short of the total has a minimum cut of capacity A + t B (B the
    slopes of its arcs), and no t below (total - A) / B can carry the
    total, so Newton's method steps there (Dinkelbach, "On nonlinear
    fractional programming", Management Sci. 1967; Radzik, "Newton's
    method for fractional combinatorial optimization", FOCS 1992).  Each
    step raises the arcs' capacities and resumes the last flow.  It stops
    at the first flow that reaches the total: its rates attain t, and the
    cut before it proves that no smaller t is feasible.  The caller has
    found the system feasible at ``t_max``, so every cut has B > 0 and each
    step raises t; a step that does not raises
    :class:`~fluidq.lp.SimplexError`.
    """
    const = np.array(graph.cap)
    const[arcs] = 0.0
    slopes = np.zeros(const.size)
    slopes[arcs] = slope
    while True:
        graph.raise_caps(arcs.tolist(), (slope * t).tolist())
        _, f, cut = graph.run()
        if not cut:
            return t, f
        b = slopes[cut].sum()
        step = min((graph.total - const[cut].sum()) / b, t_max) if b > 0 else t
        if not step > t:
            raise lp.SimplexError(f"{kind} Newton step stalls at t = {float(t)!r}")
        t = step


def _least_utilization(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    scale: np.ndarray,
    caps: np.ndarray,
    rho: float,
) -> tuple[float, np.ndarray]:
    """The least t <= ``rho`` at which the gamma system without split caps
    holds with g_k <= c_k t on every finite link, and rates that attain it.

    At t the link arcs of :func:`_flow_rates`' flow have capacity
    c_k t s_l (unbounded links stay unbounded, forced-zero ones 0), so
    :func:`_newton` finds it from t = 0.
    """
    demand = svc.rates * (arr.total / svc.total)
    bounded = np.flatnonzero(np.isfinite(caps))
    link_caps = caps * scale
    link_caps[bounded] = 0.0
    graph = _FlowGraph(net, arr.rates, demand, link_caps)
    slope = caps[bounded] * scale[bounded]
    arcs = net.layer_sizes[0] + bounded
    t, f = _newton(graph, arcs, slope, 0.0, "max_utilization", rho)
    return t, lp.clip_to_bounds(f / scale, caps * rho)


def _least_overload(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    scale: np.ndarray,
    upper: np.ndarray,
    gamma: tuple[float, ...],
    t_lo: float,
) -> tuple[float, np.ndarray]:
    """The least t >= ``t_lo`` at which the gamma system without split
    caps holds with every middle node's growth at most t, when every
    middle layer has gamma_l > 1, and rates that attain it.

    A middle node of layer l receives gamma_l times what it sends, so it
    grows by (1 - 1/gamma_l) times its inflow, and growth <= t bounds its
    inflow by t / (1 - 1/gamma_l).  In :func:`_flow_rates`' flow its
    inflow arrives scaled by s_(l-1), so that bound is a node arc of
    capacity s_(l-1) t / (1 - 1/gamma_l), and :func:`_newton` finds t from
    t_lo (from 0 when t_lo < 0: no growth is negative).
    """
    n0, n_egress = net.layer_sizes[0], net.layer_sizes[-1]
    demand = svc.rates * (arr.total / svc.total)
    layer = np.repeat(np.arange(net.num_layers), net.layer_sizes)[n0 : net.num_nodes - n_egress]
    ratio = np.asarray(gamma)[layer]
    slope = np.cumprod(gamma)[layer - 1] / (1.0 - 1.0 / ratio)
    graph = _FlowGraph(net, arr.rates, demand, upper * scale, np.zeros(slope.size))
    first = n0 + net.num_links + n_egress
    arcs = np.arange(first, first + slope.size)
    t, f = _newton(graph, arcs, slope, max(t_lo, 0.0), "max_overload_rate")
    return t, lp.clip_to_bounds(f / scale, upper)


def co_optimize(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    objective: ObjectiveSpec,
    gamma=None,
) -> tuple[RateAssignment, float]:
    """Minimize the secondary objective over the min-delay rate family.

    When ``gamma`` is omitted, bandwidth/utilization objectives use the
    throughput-tight ratios (smallest flow volume that still serves
    min(total arrivals, total service)) and the growth-balancing objectives
    use the balanced-growth ratios.

    The *gamma system* is the ratio rows, split caps and the capacity,
    utilization-cap and forced-zero bounds for one gamma.  Without a split
    cap it is a flow on links scaled by s_l = gamma_1 ... gamma_l
    (:func:`_flow_rates`), so one max-flow decides it for every objective:
    an infeasible system raises :class:`InfeasibleError` naming the
    minimum cut, and a feasible one gives rates.  The ratio rows fix every
    layer's total flow, so ``total_bandwidth``, ``max_layer_growth`` and,
    without middle nodes, ``max_overload_rate`` are constant on the
    family; when every non-egress node has exactly one out-link they fix
    every rate, so every objective is.  Such values are read off the
    flow's rates (sum of g, largest layer growth, largest node growth but
    at least t_lo below, mean or largest g_k / c_k over the finite links)
    with no LP.  ``max_utilization`` (min t with g_k <= c_k t, t <= the
    utilization cap rho) is the least link scale at which the flow still
    carries the total, found by Newton's method over max-flows
    (:func:`_least_utilization`).  ``max_overload_rate`` with middle nodes
    is the least bound t on node growth: the ratio rows fix each ingress
    node's outflow and each egress node's inflow, so their growths are
    constants and the largest of them, t_lo, is a lower bound, and when
    every middle layer has gamma_l > 1 a middle node's growth is
    (1 - 1/gamma_l) times its inflow, so the bound is a node capacity and
    Newton's method finds t from t_lo (:func:`_least_overload`).  Neither
    solves an LP.

    The other objectives solve one LP shape: minimize a.g + t over the
    gamma system plus epigraph rows R g - w t <= r, with 0 <= t <= t_cap,
    at value offset + optimum.  ``avg_utilization`` (a_k = 1 / (n c_k) on
    each of the n finite links) and the fixed-value objectives (a = 0)
    have no epigraph row and no t column.
    ``max_utilization`` has a row g_k - c_k t <= 0 per finite link, with
    each g_k within its capacity and t <= rho in place of the utilization
    cap; its t* = 0 comes out as t = 0.  ``max_overload_rate`` has a row
    per middle node, growth - t <= t_lo, and offset t_lo.  Without a split
    cap the LP runs on a system the max-flow found feasible, so an
    infeasible LP raises :class:`~fluidq.lp.SimplexError`.

    A split cap (g_k <= beta * node inflow) is no flow bound, so with one
    every objective solves an LP, and an infeasible system names the
    constraints that the phase 1 of the bare system (zero cost, no t
    column) cannot satisfy.  An infeasible epigraph LP is solved again as
    that system, so every objective given the same gamma names the same
    list; a bare system that then turns out feasible raises
    :class:`~fluidq.lp.SimplexError`.  No cost is negative, so no LP here
    is unbounded: any status but optimal or infeasible raises it too.

    Every output is judged against its capacity, utilization-cap and
    forced-zero bounds and by the ratio check; a failure of either raises
    :class:`~fluidq.lp.SimplexError`.
    """
    ensure_valid(net, arr, svc)
    kind = objective.kind
    if gamma is None:
        if kind in ("max_overload_rate", "max_layer_growth"):
            gamma = balanced_growth_gamma(arr, svc, net.num_layers)
        else:
            gamma = throughput_tight_gamma(arr, svc, net.num_layers)
    gamma = as_gamma(gamma, net.num_layers)
    ratio = arr.total / svc.total
    if not (abs(math.prod(gamma) - ratio) <= 1e-9 * max(1.0, ratio)):
        raise InfeasibleError(
            f"gamma product {math.prod(gamma):g} is inconsistent with the "
            f"arrival/service ratio {ratio:g}; maximum throughput cannot hold"
        )

    m = net.num_links
    n0, egress_lo = net.layer_sizes[0], net.num_nodes - net.layer_sizes[-1]
    node_layer = np.repeat(np.arange(net.num_layers), net.layer_sizes)
    src_layer = node_layer[net.link_src]

    # capacities (after the utilization cap) and forced zeros are bounds
    forced = set()
    for key in objective.forced_zero:
        if tuple(key) not in net.link_index:
            name = ":".join(str(v + 1) for v in key)
            raise ValueError(f"forced-zero link {name} does not exist")
        forced.add(net.link_index[tuple(key)])
    caps = net.capacities.copy()
    caps[list(forced)] = 0.0
    upper = caps if objective.utilization_cap is None else caps * objective.utilization_cap
    finite = np.flatnonzero(np.isfinite(net.capacities))
    if kind == "avg_utilization" and not finite.size:
        raise ValueError("average utilization needs at least one finite capacity")
    if kind == "max_overload_rate":
        # the ratio rows fix each ingress node's outflow and each egress
        # node's inflow, so their growths are constants; the largest is t_lo
        t_lo = max(
            float(np.max(arr.rates - arr.rates / gamma[0])),
            float(np.max(gamma[-1] * svc.rates - svc.rates)),
        )
    # gamma fixes these values: any member of the family attains them.
    # With one out-link per non-egress node the ratio rows fix every rate,
    # so the family has one member and fixes every value.
    fixed = bool(np.all(net.out_degree[:egress_lo] == 1)) or (
        kind in ("total_bandwidth", "max_layer_growth")
        or (kind == "max_overload_rate" and net.num_layers == 2)
    )

    flow = objective.split_cap is None
    rho = objective.utilization_cap or 1.0
    if flow:
        scale = np.cumprod(gamma)[src_layer]
        g = _flow_rates(net, arr, svc, scale, upper, objective, forced)
    if flow and not fixed and kind == "max_utilization":
        value, g = _least_utilization(net, arr, svc, scale, caps, rho)
    elif flow and not fixed and kind == "max_overload_rate" and all(v > 1 for v in gamma[1:-1]):
        value, g = _least_overload(net, arr, svc, scale, upper, gamma, t_lo)
    elif not (flow and fixed):
        incidence = _incidence(net)
        # one ratio row per node: an ingress node sends lambda_i / gamma_1, a
        # middle node of layer l receives gamma_l times what it sends, an
        # egress node receives gamma_L * mu_j
        a_eq = incidence.copy()
        a_eq[net.link_src, np.arange(m)] = np.where(
            src_layer == 0, 1.0, -np.asarray(gamma)[src_layer]
        )
        b_eq = np.zeros(net.num_nodes)
        b_eq[:n0] = arr.rates / gamma[0]
        b_eq[egress_lo:] = gamma[-1] * svc.rates

        a_ub = np.zeros((0, m))
        b_ub = np.zeros(0)
        if not flow:
            # g_k <= beta * (node inflow), where layer 1 nodes receive lambda_i
            beta = objective.split_cap
            a_ub = np.eye(m) - beta * (incidence[net.link_src] > 0)
            first = src_layer == 0
            b_ub = np.zeros(m)
            b_ub[first] = beta * arr.rates[net.link_src[first]]

        def solve_system(c=np.zeros(m)):
            return lp.solve_lp(c, a_ub, b_ub, a_eq, b_eq, upper=upper)

        def widen(a, column):
            return np.column_stack((a, np.broadcast_to(column, len(a))))

        # each objective minimizes c.g + t over the gamma system (g within
        # ``bounds``) and its epigraph rows R g - w t <= r, 0 <= t <= t_cap,
        # at value offset + optimum; with no such row there is no t column
        c, bounds, offset = np.zeros(m), upper, 0.0
        epigraph, w, r, t_cap = np.zeros((0, m)), 0.0, 0.0, np.inf
        if fixed:
            pass  # the value is read off g below, like the flow's rates
        elif kind == "avg_utilization":
            c[finite] = 1.0 / (net.capacities[finite] * finite.size)
        elif kind == "max_utilization":
            # g_k <= c_k t on every finite link, and t <= rho caps them all
            epigraph, w, bounds, t_cap = np.eye(m)[finite], net.capacities[finite], caps, rho
        else:  # max_overload_rate with middle nodes
            # a middle node's growth (inflow - outflow) <= t_lo + t
            epigraph, w, r, offset = incidence[n0:egress_lo], 1.0, t_lo, t_lo
        if len(epigraph):
            result = lp.solve_lp(
                np.append(c, 1.0),
                np.vstack([widen(a_ub, 0.0), widen(epigraph, -w)]),
                np.concatenate([b_ub, np.full(len(epigraph), r)]),
                widen(a_eq, 0.0), b_eq, upper=np.append(bounds, t_cap),
            )
        else:
            result = solve_system(c)

        # an infeasible epigraph LP is solved again as the bare system, so
        # every objective given the same gamma names the same phase-1 list;
        # only a split-cap system can still turn out infeasible
        infeasible = result.status == lp.INFEASIBLE
        if infeasible and len(epigraph) and not flow:
            result = solve_system()
        if infeasible and (flow or result.status != lp.INFEASIBLE):
            raise lp.SimplexError(f"{kind} LP is infeasible on a feasible gamma system")
        if infeasible:
            row_names, bound_names = _constraint_names(net, objective, forced)
            binding = [row_names[i] for i in result.infeasible_rows]
            binding += [bound_names[k] for k in result.infeasible_bounds]
            raise InfeasibleError("min-delay constraint system is infeasible", binding)
        if result.status != lp.OPTIMAL:
            # every cost is nonnegative, so these LPs are never unbounded
            raise lp.SimplexError(f"{kind} LP returned {result.status}")
        g, value = result.x[:m], offset + result.objective

    if fixed:
        growth = node_growth(net, arr, svc, g)
        utilization = g[finite] / net.capacities[finite]
        if kind == "total_bandwidth":
            value = g.sum()
        elif kind == "max_layer_growth":
            value = np.max(np.add.reduceat(growth, np.cumsum(net.layer_sizes) - net.layer_sizes))
        elif kind == "max_overload_rate":  # t_lo without middle nodes
            value = np.max(growth[n0:egress_lo], initial=t_lo)
        elif kind == "avg_utilization":
            value = np.mean(utilization)
        else:
            value = np.max(utilization, initial=0.0)

    tol = _tol(arr.total)
    outside = ~((g >= -tol) & (g <= upper + tol))
    if np.any(outside):
        k = int(np.argmax(outside))
        bound = _constraint_names(net, objective, forced)[1][k]
        raise lp.SimplexError(f"optimizer output breaks the {bound}: rate {g[k]:g}")
    rates = RateAssignment(net, g)
    verdict = check_min_delay_layered(net, arr, svc, rates, gamma, tol=1e-8)
    if not verdict:
        raise lp.SimplexError(f"optimizer output fails the ratio check: {verdict.reason}")
    return rates, float(value)
