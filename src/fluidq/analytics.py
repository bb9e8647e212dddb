"""Queueing-delay analytics: per-packet delay, per-ingress averages, and the
average/maximum metrics, in closed form and from tagged simulations.

With static rates and zero initial backlog the dynamics are exactly linear
once set rates are replaced by their effective counterparts, so a packet
entering a node at time ``tau`` leaves it at ``tau * inflow/outflow``.  The
per-ingress average over an arrival window of length T is then
``(T/2) * (product of per-hop inflow/outflow ratios - 1)``, path-weighted
by the per-hop splitting fractions.  From a nonzero initial backlog the
exact fluid run is piecewise linear (``engine._fluid_segments``), so each
node's delay is too: one backward pass over the layers composes them, and
each ingress's average is one trapezoid sum over its knots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import TaggedRun
from .engine import (
    QueueState,
    Trajectory,
    _fluid_segments,
    _set_totals,
    effective_flow,
    effective_rates,
)
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    _require_network,
    ensure_valid,
    key_name,
    require_finite_positive,
)

INFINITE_DELAY = math.inf


@dataclass(frozen=True)
class DelayReport:
    """Per-ingress average delays plus the two summary metrics.

    ``effective_differs`` marks analytic reports whose set rates overcommit
    somewhere: averaging then weights paths by the effective splits (the
    mix packets actually take), which is where set-rate weighting would
    give a different answer.
    """

    d_bar: np.ndarray
    d_avg: float
    d_max: float
    mode: str
    effective_differs: bool = False

    @classmethod
    def from_d_bar(
        cls,
        d_bar: np.ndarray,
        arr: ArrivalProfile,
        mode: str,
        effective_differs: bool = False,
    ) -> "DelayReport":
        d_bar = np.asarray(d_bar, dtype=float)
        d_avg = float(np.dot(arr.rates, d_bar) / arr.rates.sum())
        d_max = float(np.max(d_bar))
        return cls(d_bar, d_avg, d_max, mode, effective_differs)

    @property
    def fairness(self) -> float:
        """d_max / d_avg; 1.0 means perfectly balanced ingress delays."""
        return self.d_max / self.d_avg if self.d_avg else 1.0


# ---------------------------------------------------------------------------
# Per-node ratios under static rates, zero initial backlog


def _node_ratios(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective flow statistics: (rho, g_tilde, eff_out).

    ``rho[node]`` is the time-dilation factor a packet sees at the node:
    inflow over realized outflow (the service rate at egress), at least 1,
    and infinite where traffic reaches a node with no outflow.
    """
    g_tilde, inflow, set_out, _ = effective_flow(net, arr, values)
    eff_out = np.minimum(set_out, inflow)
    out = eff_out.copy()
    out[net.node_id(net.num_layers - 1, 0):] = svc.rates
    rho = np.where(inflow > 0, INFINITE_DELAY, 1.0)
    np.divide(inflow, out, out=rho, where=out > 0)
    return np.maximum(rho, 1.0), g_tilde, eff_out


def path_weights(
    net: LayeredNetwork, arr: ArrivalProfile, rates: RateAssignment
) -> dict[int, dict[tuple[int, ...], float]]:
    """Per ingress node, the fraction of its packets taking each path (a
    tuple of per-layer node indices): the product of the effective splitting
    fractions along it.  Only flow-carrying paths appear."""
    g_tilde = effective_rates(net, arr, rates).values
    plan = net.plan_of(0, net.num_layers - 2)
    runs = dict(zip(plan.srcs.tolist(), zip(plan.starts.tolist(), plan.ends.tolist())))
    table: dict[int, dict[tuple[int, ...], float]] = {}
    for i in range(net.layer_sizes[0]):
        table[i] = acc = {}
        stack = [((i,), net.node_id(0, i), 1.0)]
        while stack:
            path, nid, w = stack.pop()
            if len(path) == net.num_layers:
                acc[path] = w
                continue
            out = np.arange(*runs.get(nid, (0, 0)))  # its run of out-links
            total = float(g_tilde[out].sum())
            for lk in out[g_tilde[out] > 0]:
                dst = int(net.link_dst[lk])
                step = (dst - net.node_id(len(path), 0),)
                stack.append((path + step, dst, w * g_tilde[lk] / total))
    return table


# ---------------------------------------------------------------------------
# Single-packet delay


def packet_delay(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    path,
    t: float,
    source=None,
) -> float:
    """Total queueing delay of a packet entering ``path[0]`` at time ``t``.

    ``path`` lists one node index per layer.  ``source`` selects where the
    queue values come from: a :class:`QueueState` starts the exact fluid
    run under the static rates at the given backlog and instant (the packet
    enters no earlier), ``None`` is the zero state at time 0, and a
    :class:`Trajectory` looks backlogs up at the packet's own arrival
    instants, which must not pass its end.  A backlogged node ships its set
    total (at egress its service rate), so a packet waits its backlog over
    that total; it returns ``math.inf`` at a path node whose set total is 0.
    """
    _require_network(net, rates)
    path = tuple(int(p) for p in path)
    if len(path) != net.num_layers:
        raise ValueError("path must name one node per layer")
    for l in range(net.num_layers - 1):
        if (l, path[l], path[l + 1]) not in net.link_index:
            raise ValueError(f"path uses nonexistent link {key_name((l, path[l], path[l + 1]))}")

    if source is None:
        source = QueueState(np.zeros(net.num_nodes), 0.0)
    if isinstance(source, Trajectory):
        times, queues = source.times, source.queues

        def backlog(nid: int, at: float) -> float:
            if at > times[-1]:
                raise ValueError(f"backlog wanted at {at}, past the trajectory's end {times[-1]}")
            # np.interp on the two rows around ``at``: the same operations
            j = max(min(int(np.searchsorted(times, at, side="right")) - 1, times.size - 2), 0)
            return float(np.interp(at, times[j : j + 2], queues[j : j + 2, nid]))
    elif isinstance(source, QueueState):
        if source.q.shape != (net.num_nodes,):
            raise ValueError(
                f"backlog has {source.q.size} entries, network has {net.num_nodes} nodes"
            )
        if not t >= source.t:
            raise ValueError(f"packet enters at {t}, before the state's instant {source.t}")
        segments = _fluid_segments(net, arr, svc, rates.values, source.q)

        def backlog(nid: int, at: float) -> float:
            return float(segments.backlogs(at - source.t)[nid])
    else:
        raise TypeError("source must be None, a QueueState, or a Trajectory")

    cap = _set_totals(net, svc, rates.values)
    total = 0.0
    for l, idx in enumerate(path):
        nid = net.node_id(l, idx)
        if not cap[nid] > 0:
            return INFINITE_DELAY
        total += backlog(nid, t + total) / cap[nid]
    return total


# ---------------------------------------------------------------------------
# Analytic metrics


def analytic_report(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    horizon: float,
    q0: np.ndarray | None = None,
) -> DelayReport:
    """Exact time-averaged delay metrics for a static rate vector, on any
    layered topology.

    With zero initial backlog each ingress's average is the factor product
    of the module docstring; from a nonzero backlog ``q0`` (one entry per
    node, checked by :meth:`SimConfig.initial_backlog`) it is integrated
    over the exact piecewise-linear fluid run (:func:`_backlog_report`).
    The instance goes through :func:`ensure_valid` first.
    """
    ensure_valid(net, arr, svc)
    _require_network(net, rates)
    require_finite_positive("horizon", horizon)
    if q0 is not None:
        q0 = SimConfig(horizon, q0=q0).initial_backlog(net)
        if q0.any():
            return _backlog_report(net, arr, svc, rates.values, q0, horizon)

    rho, g_tilde, eff_out = _node_ratios(net, arr, svc, rates.values)
    differs = bool(np.max(np.abs(g_tilde - rates.values)) > 1e-12)
    factor = np.zeros(net.num_nodes)
    egress_lo = net.node_id(net.num_layers - 1, 0)
    factor[egress_lo:] = rho[egress_lo:]
    for layer in reversed(net.plan):
        src = net.link_src[layer.links]
        dst = net.link_dst[layer.links]
        flow = g_tilde[layer.links]
        for nid in net.layer_nodes(layer.index):
            mask = src == nid
            if math.isinf(rho[nid]):
                factor[nid] = INFINITE_DELAY
                continue
            total = eff_out[nid]
            if total <= 0:
                factor[nid] = 1.0  # carries no flow; value unused upstream
                continue
            contrib = 0.0
            for lk_flow, d in zip(flow[mask], dst[mask]):
                if lk_flow > 0:
                    contrib += (lk_flow / total) * factor[d]
            factor[nid] = rho[nid] * contrib
    d_bar = (horizon / 2.0) * (factor[list(net.ingress_nodes)] - 1.0)
    d_bar = np.where(np.isfinite(d_bar), np.maximum(d_bar, 0.0), d_bar)
    return DelayReport.from_d_bar(d_bar, arr, "analytic", effective_differs=differs)


def _backlog_report(net, arr, svc, values, q0, horizon) -> DelayReport:
    """Per-ingress average delays from the backlog ``q0``, on the exact fluid
    segments of the static set rates ``values``.

    A node n with set total c_n > 0 that holds backlog ships c_n, so a
    fluid packet reaching it at t leaves at D_n(t) = t + q_n(t)/c_n, and it
    splits over its out-links by the constant fractions values_k / c_n.
    Its delay onward is then d_n(t) = q_n(t)/c_n + sum_k pi_k d_k(D_n(t)),
    piecewise linear with knots at the segment starts and the D_n-preimages
    of its children's knots.  Each node needs it only up to the last
    instant a window packet reaches it, pushed forward from T through D;
    a reached node with c_n = 0 holds its packets forever (inf).
    """
    segs = _fluid_segments(net, arr, svc, values, q0)
    cap = _set_totals(net, svc, values)

    def wait(nodes, t):
        j = np.searchsorted(segs.start, t, side="right") - 1
        q = segs.q[j, nodes] + (t - segs.start[j]) * segs.slope[j, nodes]
        return np.maximum(q, 0.0) / cap[nodes]

    reach = np.full(net.num_nodes, -1.0)  # below 0: no window packet gets there
    reach[: net.layer_sizes[0]] = horizon
    for layer in net.plan:
        src, dst = net.link_src[layer.links], net.link_dst[layer.links]
        on = (values[layer.links] > 0) & (reach[src] >= 0)
        src, dst = src[on], dst[on]
        np.maximum.at(reach, dst, reach[src] + wait(src, reach[src]))

    knots, delay = [None] * net.num_nodes, [None] * net.num_nodes  # None: infinite
    for n in np.flatnonzero(reach >= 0)[::-1]:
        lo, hi = np.searchsorted(net.link_src, [n, n + 1])
        kids = [(values[k] / cap[n], net.link_dst[k]) for k in range(lo, hi) if values[k] > 0]
        if not cap[n] > 0 or any(delay[k] is None for _, k in kids):
            continue
        base = np.append(segs.start[segs.start < reach[n]], reach[n])
        exits = base + wait(n, base)
        # a child's knots outside [D_n(0), D_n(reach)] clip onto base's ends
        pre = [np.interp(knots[k], exits, base) for _, k in kids]
        knots[n] = t = np.unique(np.concatenate([base, *pre]))
        ahead = wait(n, t)
        delay[n] = ahead + sum(p * np.interp(t + ahead, knots[k], delay[k]) for p, k in kids)
    d_bar = [
        INFINITE_DELAY if d is None else np.trapezoid(d, t) / horizon
        for t, d in zip(knots, delay[: net.layer_sizes[0]])
    ]
    return DelayReport.from_d_bar(d_bar, arr, "analytic")


# ---------------------------------------------------------------------------
# Empirical metrics


def empirical_report(tagged: TaggedRun, arr: ArrivalProfile) -> DelayReport:
    """Assemble the metric pair from the per-origin sojourn sums of a tagged
    run."""
    counts = tagged.origin_count
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ValueError(f"no tagged packets departed from ingress {missing + 1}")
    return DelayReport.from_d_bar(tagged.origin_sum / counts, arr, "empirical")
