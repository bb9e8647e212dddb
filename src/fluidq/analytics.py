"""Queueing-delay analytics: per-packet delay, per-ingress averages, and the
average/maximum metrics, in closed form and from tagged simulations.

With static rates and zero initial backlog the dynamics are exactly linear
once set rates are replaced by their effective counterparts, so a packet
entering a node at time ``tau`` leaves it at ``tau * inflow/outflow``.  The
per-ingress average over an arrival window of length T is then
``(T/2) * (product of per-hop inflow/outflow ratios - 1)``, path-weighted
by the per-hop splitting fractions.  Nonzero initial backlog (single-sink
topologies only) adds the instants where queues empty: each source's delay
is then linear between the points of one breakpoint grid, and its average
is one trapezoid sum over that grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .discrete import TaggedRun
from .engine import QueueState, Trajectory, _fluid_segments, effective_flow, effective_rates
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
    queue values come from: ``None`` assumes zero initial backlog (queues
    grow linearly from time 0), a :class:`QueueState` starts the exact
    fluid run under the static rates at the given backlog and instant (the
    packet enters no earlier), and a :class:`Trajectory` looks backlogs up
    at the packet's own arrival instants; a backlog drains at the set
    egress total.  Returns ``math.inf`` when the packet reaches a
    backlogged node with no egress rate.
    """
    _require_network(net, rates)
    path = tuple(int(p) for p in path)
    if len(path) != net.num_layers:
        raise ValueError("path must name one node per layer")
    for l in range(net.num_layers - 1):
        if (l, path[l], path[l + 1]) not in net.link_index:
            raise ValueError(f"path uses nonexistent link {key_name((l, path[l], path[l + 1]))}")

    if source is None:
        rho, _, _ = _node_ratios(net, arr, svc, rates.values)
        factor = 1.0
        for l, idx in enumerate(path):
            factor *= rho[net.node_id(l, idx)]
            if math.isinf(factor):
                return INFINITE_DELAY
        return t * (factor - 1.0)

    if isinstance(source, Trajectory):
        times = source.times

        def backlog(nid: int, at: float) -> float:
            return float(np.interp(at, times, source.queues[:, nid]))
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

    set_out = np.bincount(net.link_src, weights=rates.values, minlength=net.num_nodes)
    now = t
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
    piecewise-linear dynamics are integrated in closed form.  ``q0`` is a
    per-node backlog vector, checked by :meth:`SimConfig.initial_backlog`.
    The instance goes through :func:`ensure_valid` first.
    """
    ensure_valid(net, arr, svc)
    _require_network(net, rates)
    require_finite_positive("horizon", horizon)
    if q0 is not None:
        q0 = SimConfig(horizon, q0=q0).initial_backlog(net)
        if q0.any():
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


def _piecewise_queue(q0: float, cuts: np.ndarray, slopes: np.ndarray):
    """Evolve ``q' = slopes[k]`` on ``[cuts[k], cuts[k + 1]]`` with clamping
    at zero; returns the knot times and backlogs, covering the cuts and
    every instant the queue empties."""
    times, backlogs = [cuts[0]], [q0]
    q = q0
    for a, b, slope in zip(cuts[:-1], cuts[1:], slopes):
        end = q + slope * (b - a)
        if end < 0 and q > 0:
            times.append(a + q / -slope)
            backlogs.append(0.0)
        q = max(0.0, end)
        times.append(b)
        backlogs.append(q)
    return np.array(times), np.array(backlogs)


def _single_sink_backlog_report(net, arr, svc, values, q0, horizon) -> DelayReport:
    n = net.layer_sizes[0]
    lam = arr.rates
    mu = float(svc.rates[0])
    g = np.zeros(n)
    g[net.link_src] = values
    q0_s = q0[:n]
    live = g > 0

    # Ingress queues are linear until they drain at t*; after draining a
    # source forwards its arrival rate.  The window's last packet waits
    # ``wait`` at its source, so the sink queue is followed to T + max wait.
    drains = lam < g
    t_star = np.full(n, math.inf)
    t_star[drains] = q0_s[drains] / (g - lam)[drains]
    wait = np.maximum(0.0, q0_s[live] + (lam - g)[live] * horizon) / g[live]
    t_end = horizon + wait.max(initial=0.0)

    # Sink inflow is piecewise constant with breaks where sources drain.
    breaks = np.unique(t_star[(t_star > 0) & (t_star < t_end)])
    cuts = np.concatenate(([0.0], breaks, [t_end + 1.0]))
    inflow = np.where(cuts[:-1, None] < t_star, g, lam).sum(axis=1)
    knot_t, knot_q = _piecewise_queue(float(q0[n]), cuts, inflow - mu)

    # A packet arriving at t leaves its source at tau(t) and then waits
    # Q(tau)/mu, so its delay is linear between the points of one grid per
    # live source: the drain instant min(t*, T), the preimages of the sink
    # knots before it and the knots after it.  Clipping folds every other
    # point onto one already there; the first knot (0) clips to 0 and the
    # last (past the window) to T.
    lam_l, g_l, q_l, t_star_l = (v[live, None] for v in (lam, g, q0_s, t_star))
    drained = np.minimum(t_star_l, horizon)
    pre = np.clip((knot_t - q_l / g_l) * g_l / lam_l, 0.0, drained)
    post = np.clip(knot_t, drained, horizon)
    grid = np.sort(np.hstack([pre, drained, post]), axis=1)
    tau = np.where(grid < t_star_l, grid * lam_l / g_l + q_l / g_l, grid)
    delay = (tau - grid) + np.interp(tau, knot_t, knot_q) / mu
    area = (0.5 * (delay[:, :-1] + delay[:, 1:]) * np.diff(grid, axis=1)).sum(axis=1)
    d_bar = np.full(n, INFINITE_DELAY)
    d_bar[live] = area / horizon
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
