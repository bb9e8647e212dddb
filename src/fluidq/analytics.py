"""Queueing-delay analytics: per-packet delay, per-ingress averages, and the
average/maximum metrics, in closed form and from tagged simulations.

With static rates and zero initial backlog the dynamics are exactly linear
once set rates are replaced by their effective counterparts, so a packet
entering a node at time ``tau`` leaves it at ``tau * inflow/outflow``.  The
per-ingress average over an arrival window of length T is then
``(T/2) * (product of per-hop inflow/outflow ratios - 1)``, path-weighted
by the per-hop splitting fractions.  Nonzero initial backlog introduces
queue-emptying breakpoints; that case is integrated piecewise (single-sink
topologies only).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .discrete import TaggedRun
from .engine import PacketSinkError, QueueState, Trajectory, effective_flow
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
)

INFINITE_DELAY = math.inf


class AnalyticScopeError(ValueError):
    """The closed-form evaluator does not cover the requested case."""


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


@dataclass(frozen=True)
class PathWeightTable:
    """Per ingress node, the fraction of its packets taking each path.

    Paths are tuples of per-layer node indices; weights per ingress sum to
    one and are positive only along links that actually carry flow.
    """

    weights: dict[int, dict[tuple[int, ...], float]]

    def for_ingress(self, i: int) -> dict[tuple[int, ...], float]:
        return self.weights[i]


# ---------------------------------------------------------------------------
# Per-node ratios under static rates, zero initial backlog


def _node_ratios(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective flow statistics: (rho, g_tilde, eff_out).

    ``rho[node]`` is the time-dilation factor a packet sees at the node
    (inflow over realized outflow, at least 1); infinite where traffic
    reaches a node with no egress rate.
    """
    g_tilde, inflow, set_out, sinks = effective_flow(net, arr, values)
    eff_out = np.minimum(set_out, inflow)
    rho = np.ones(net.num_nodes)
    egress_lo = net.node_id(net.num_layers - 1, 0)
    for nid in range(egress_lo):
        if eff_out[nid] > 0:
            rho[nid] = max(inflow[nid] / eff_out[nid], 1.0)
        elif inflow[nid] > 0:
            rho[nid] = INFINITE_DELAY
    for j, nid in enumerate(range(egress_lo, net.num_nodes)):
        rho[nid] = max(inflow[nid] / svc.rates[j], 1.0)
    return rho, g_tilde, eff_out


def path_weights(
    net: LayeredNetwork, arr: ArrivalProfile, rates: RateAssignment
) -> PathWeightTable:
    """Product of per-hop splitting fractions along every flow-carrying path."""
    g_tilde, inflow, set_out, sinks = effective_flow(net, arr, rates.values)
    if sinks:
        raise PacketSinkError(sinks)
    table: dict[int, dict[tuple[int, ...], float]] = {}
    for i in range(net.layer_sizes[0]):
        acc: dict[tuple[int, ...], float] = {}
        stack = [((i,), net.node_id(0, i), 1.0)]
        while stack:
            path, nid, w = stack.pop()
            layer = len(path) - 1
            if layer == net.num_layers - 1:
                acc[path] = acc.get(path, 0.0) + w
                continue
            out = np.flatnonzero(net.link_src == nid)
            total = float(g_tilde[out].sum())
            for lk in out:
                flow = g_tilde[lk]
                if flow <= 0:
                    continue
                link = net.links[lk]
                stack.append((path + (link.dst,), net.link_dst[lk], w * flow / total))
        table[i] = acc
    return PathWeightTable(table)


# ---------------------------------------------------------------------------
# Single-packet delay


def _set_growth(net, arr, svc, values) -> np.ndarray:
    """Queue growth rate per node if every set rate were fully realized."""
    growth = np.zeros(net.num_nodes)
    growth[list(net.ingress_nodes)] = arr.rates
    np.add.at(growth, net.link_dst, values)
    np.add.at(growth, net.link_src, -values)
    egress_lo = net.node_id(net.num_layers - 1, 0)
    growth[egress_lo:] -= svc.rates
    return growth


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
    queue values come from: ``None`` assumes zero initial backlog (queues
    grow linearly from time 0), a :class:`QueueState` extrapolates from the
    given backlog under the set rates, and a :class:`Trajectory` looks
    backlogs up at the packet's own arrival instants.  Returns
    ``math.inf`` when the packet reaches a backlogged node with no egress
    rate.
    """
    path = tuple(int(p) for p in path)
    if len(path) != net.num_layers:
        raise ValueError("path must name one node per layer")
    for l in range(net.num_layers - 1):
        if (l, path[l], path[l + 1]) not in net.link_index:
            raise ValueError(f"path uses nonexistent link ({l}, {path[l]}, {path[l + 1]})")

    if source is None:
        rho, _, _ = _node_ratios(net, arr, svc, rates.values)
        factor = 1.0
        for l, idx in enumerate(path):
            factor *= rho[net.node_id(l, idx)]
            if math.isinf(factor):
                return INFINITE_DELAY
        return t * (factor - 1.0)

    set_out = np.zeros(net.num_nodes)
    np.add.at(set_out, net.link_src, rates.values)
    growth = _set_growth(net, arr, svc, rates.values)

    if isinstance(source, Trajectory):
        times = source.times

        def backlog(nid: int, at: float) -> float:
            return float(np.interp(at, times, source.queues[:, nid]))

        start = t
    elif isinstance(source, QueueState):

        def backlog(nid: int, at: float) -> float:
            return max(0.0, float(source.q[nid] + growth[nid] * (at - source.t)))

        start = t
    else:
        raise TypeError("source must be None, a QueueState, or a Trajectory")

    now = start
    total = 0.0
    egress_layer = net.num_layers - 1
    for l, idx in enumerate(path):
        nid = net.node_id(l, idx)
        serve = svc.rates[idx] if l == egress_layer else set_out[nid]
        q_here = backlog(nid, now)
        if q_here <= 0:
            continue
        if serve <= 0:
            return INFINITE_DELAY
        wait = q_here / serve
        total += wait
        now += wait
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
    """Exact time-averaged delay metrics for a static rate vector.

    Covers any layered topology with zero initial backlog; nonzero initial
    backlog is supported for single-sink (N x 1) networks only, where the
    piecewise-linear dynamics are integrated in closed form.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if q0 is not None and np.any(np.asarray(q0) > 0):
        if not net.is_single_sink():
            raise AnalyticScopeError(
                "analytic metrics with initial backlog cover single-sink "
                "networks only; use the tagged simulation instead"
            )
        return _single_sink_backlog_report(net, arr, svc, rates.values, q0, horizon)

    rho, g_tilde, eff_out = _node_ratios(net, arr, svc, rates.values)
    differs = bool(np.max(np.abs(g_tilde - rates.values)) > 1e-12)
    factor = np.zeros(net.num_nodes)
    egress_lo = net.node_id(net.num_layers - 1, 0)
    factor[egress_lo:] = rho[egress_lo:]
    for l in range(net.num_layers - 2, -1, -1):
        ids = net.plan_of(l, l).links
        src = net.link_src[ids]
        dst = net.link_dst[ids]
        flow = g_tilde[ids]
        for nid in net.layer_nodes(l):
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


def _piecewise_queue(q0: float, segments: list[tuple[float, float, float]]):
    """Evolve ``q' = slope`` with clamping at zero over constant-slope
    segments ``(a, b, slope)``; returns knots [(t, q)] covering [a0, b_last]."""
    knots = [(segments[0][0], q0)]
    q = q0
    for a, b, slope in segments:
        if q <= 0 and slope <= 0:
            q = 0.0
            knots.append((b, 0.0))
            continue
        end = q + slope * (b - a)
        if end < 0:
            t_hit = a + q / (-slope)
            knots.append((t_hit, 0.0))
            knots.append((b, 0.0))
            q = 0.0
        else:
            knots.append((b, end))
            q = end
    return knots


def _eval_knots(knots, t: float) -> float:
    ts = [k[0] for k in knots]
    qs = [k[1] for k in knots]
    return float(np.interp(t, ts, qs))


def _single_sink_backlog_report(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    values: np.ndarray,
    q0,
    horizon: float,
) -> DelayReport:
    n = net.layer_sizes[0]
    lam = arr.rates
    mu = float(svc.rates[0])
    q0 = np.asarray(q0, dtype=float)
    g = np.zeros(n)
    for k, link in enumerate(net.links):
        g[link.src] = values[k]
    q0_s = q0[:n]
    q0_d = float(q0[n])

    # Ingress queues are linear until (possibly) draining; after draining a
    # source forwards its arrival rate.
    t_star = np.full(n, math.inf)
    for i in range(n):
        if g[i] <= 0:
            continue
        if lam[i] < g[i]:
            t_star[i] = q0_s[i] / (g[i] - lam[i])

    # Sink inflow is piecewise constant with breaks where sources drain.
    breaks = sorted({float(ts) for ts in t_star if math.isfinite(ts) and ts > 0})
    t_end_needed = horizon
    for i in range(n):
        if g[i] > 0:
            wait_T = max(0.0, (q0_s[i] + (lam[i] - g[i]) * horizon)) / g[i]
            t_end_needed = max(t_end_needed, horizon + wait_T)
    cuts = [0.0] + [b for b in breaks if b < t_end_needed] + [t_end_needed * 1.0 + 1.0]
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        inflow = sum(g[i] if a < t_star[i] else lam[i] for i in range(n))
        segments.append((a, b, inflow - mu))
    sink_knots = _piecewise_queue(q0_d, segments)
    knot_times = [k[0] for k in sink_knots]

    d_bar = np.zeros(n)
    for i in range(n):
        if g[i] <= 0:
            d_bar[i] = INFINITE_DELAY
            continue
        # departure instant from the source as a function of arrival time
        drained = min(t_star[i], horizon)

        def depart(t: float) -> float:
            if t < t_star[i]:
                return t * lam[i] / g[i] + q0_s[i] / g[i]
            return t

        def delay_at(t: float) -> float:
            tau = depart(t)
            return (tau - t) + _eval_knots(sink_knots, tau) / mu

        # breakpoints: source drain plus preimages of sink-queue knots
        points = {0.0, horizon}
        if 0.0 < drained < horizon:
            points.add(float(drained))
        for kt in knot_times:
            if t_star[i] > 0 and g[i] > 0:
                t_pre = (kt - q0_s[i] / g[i]) * g[i] / lam[i]
                if 0.0 < t_pre < min(t_star[i], horizon):
                    points.add(float(t_pre))
            if t_star[i] < kt < horizon:
                points.add(float(kt))
        grid = sorted(points)
        total = 0.0
        for a, b in zip(grid[:-1], grid[1:]):
            total += 0.5 * (delay_at(a) + delay_at(b)) * (b - a)
        d_bar[i] = total / horizon
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


def reports_to_csv(rows, path) -> None:
    """Write ``(instance_id, policy, DelayReport)`` rows; one d_bar column
    per ingress node."""
    rows = list(rows)
    width = max(len(report.d_bar) for _, _, report in rows) if rows else 0
    header = ["instance_id", "policy", "d_avg", "d_max"] + [
        f"d_bar_{i + 1}" for i in range(width)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for instance_id, policy, report in rows:
            cells = [instance_id, policy, f"{report.d_avg:.9g}", f"{report.d_max:.9g}"]
            cells += [f"{v:.9g}" for v in report.d_bar]
            cells += [""] * (width - len(report.d_bar))
            writer.writerow(cells)
