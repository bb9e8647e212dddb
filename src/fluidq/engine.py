"""Fluid queueing dynamics: stepping, trajectories, and effective rates.

The backlog at each node evolves by flow conservation: arrivals minus
departures, with egress nodes serving work-conservingly at their maximum
rate.  Integration is explicit Euler with within-step clamping: a node can
ship at most what it holds plus what it received earlier in the same step
(layers are processed in order), and scarcity is shared across a node's
egress links in proportion to their set rates.  Between queue-emptying
events the dynamics are piecewise linear, so the scheme is exact there and
first-order accurate across events.

One kernel, :class:`_FluidStep`, runs the step for :func:`run` and
:func:`step`.  It is built once per run on the network's plan, with the
arrivals and service budgets precomputed.  It computes an assignment's
per-layer budgets once for each new assignment object.  It skips the
proportional split on a layer where no source is short, and it advances
the backlog vector in place.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    ensure_valid,
)


class EngineError(RuntimeError):
    """Internal inconsistency or an unusable policy output."""


class PacketSinkError(EngineError):
    """A node receives traffic but has no egress rate to pass it on."""

    def __init__(self, nodes: list[tuple[int, int]]):
        self.nodes = nodes
        coords = ", ".join(f"(layer {l + 1}, node {i + 1})" for l, i in nodes)
        super().__init__(f"packet sink without service at {coords}")


@dataclass(frozen=True)
class QueueState:
    """Per-node backlog at one instant.  Fractional in fluid mode."""

    q: np.ndarray
    t: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if np.any(q < 0):
            raise ValueError("backlogs must be nonnegative")
        object.__setattr__(self, "q", q)

    @classmethod
    def _trusted(cls, q: np.ndarray, t: float) -> "QueueState":
        """A state on a float backlog vector the caller built and knows to
        be nonnegative: no conversion and no sign scan."""
        state = object.__new__(cls)
        object.__setattr__(state, "q", q)
        object.__setattr__(state, "t", t)
        return state


class Trajectory:
    """Uniformly sampled solution of a run: queue states plus the rates
    applied on each step, with cumulative per-link flow and per-egress
    service for conservation checks."""

    def __init__(
        self,
        t0: float,
        dt: float,
        queues: np.ndarray,
        rates: np.ndarray,
        link_flow: np.ndarray,
        served: np.ndarray,
    ):
        self.t0 = t0
        self.dt = dt
        self.queues = queues
        self.rates = rates
        self.link_flow = link_flow
        self.served = served

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.queues.shape[0])

    @property
    def num_steps(self) -> int:
        return self.rates.shape[0]

    def state(self, k: int) -> QueueState:
        return QueueState(self.queues[k], self.t0 + k * self.dt)

    @property
    def final(self) -> QueueState:
        return self.state(self.queues.shape[0] - 1)

    def link_throughput(self) -> np.ndarray:
        """Long-run realized rate per link over the whole horizon."""
        elapsed = self.num_steps * self.dt
        return self.link_flow / elapsed if elapsed else self.link_flow * 0.0

    def to_csv(self, net: LayeredNetwork, path) -> None:
        """Export as rows of ``t, node_id, q`` (node_id is 1-based "l:i")."""
        names = []
        for nid in range(net.num_nodes):
            l, i = net.node_coords(nid)
            names.append(f"{l + 1}:{i + 1}")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "node_id", "q"])
            for k, t in enumerate(self.times):
                for nid, name in enumerate(names):
                    writer.writerow([f"{t:.9g}", name, f"{self.queues[k, nid]:.9g}"])


# ---------------------------------------------------------------------------
# Effective (actual) transmission rates


def effective_flow(
    net: LayeredNetwork, arr: ArrivalProfile, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Layer-by-layer scaling of set rates by upstream supply.

    A node that would be asked to send more than it receives forwards its
    whole inflow, split across its egress links in proportion to the set
    rates.  Returns ``(g_tilde, inflow, set_out, sinks)`` where ``inflow``
    counts external arrivals for ingress nodes and effective upstream flow
    elsewhere, ``set_out`` is each node's total set egress rate, and
    ``sinks`` lists nodes with positive inflow but zero egress rate.
    """
    values = np.asarray(values, dtype=float)
    inflow = np.zeros(net.num_nodes)
    inflow[list(net.ingress_nodes)] = arr.rates
    set_out = np.zeros(net.num_nodes)
    np.add.at(set_out, net.link_src, values)
    g_tilde = np.zeros_like(values)
    sinks: list[tuple[int, int]] = []
    tol = 1e-12 * max(1.0, arr.total)
    for l in range(net.num_layers - 1):
        ids = net.layer_links(l)
        lo = net.node_id(l, 0)
        hi = lo + net.layer_sizes[l]
        out_l = set_out[lo:hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(out_l > 0, np.minimum(1.0, inflow[lo:hi] / out_l), 0.0)
        if ids.size:
            g_tilde[ids] = values[ids] * factor[net.link_src[ids] - lo]
            np.add.at(inflow, net.link_dst[ids], g_tilde[ids])
        for local, nid in enumerate(range(lo, hi)):
            if inflow[nid] > tol and out_l[local] <= 0:
                sinks.append((l, local))
    return g_tilde, inflow, set_out, sinks


def effective_rates(
    net: LayeredNetwork, arr: ArrivalProfile, rates: RateAssignment
) -> RateAssignment:
    """Actual per-link rates after upstream zero-queue scarcity scaling.

    Idempotent: effective egress never exceeds effective ingress at any
    node, so a second application changes nothing.  Raises
    :class:`PacketSinkError` when traffic reaches a node with no egress
    rate.
    """
    g_tilde, _, _, sinks = effective_flow(net, arr, rates.values)
    if sinks:
        raise PacketSinkError(sinks)
    return RateAssignment(net, g_tilde)


# ---------------------------------------------------------------------------
# Fluid stepping


class _FluidStep:
    """The fluid Euler step of one run, one layer of the network's plan at a
    time.

    Built once per run with the arrivals ``lambda * dt`` and the service
    budgets ``mu * dt``.  An assignment's per-link budgets ``values * dt``
    and their per-source sums are recomputed only when the assignment is
    not the previous step's object (its values are read-only).  A layer
    where no source is asked for more than it holds ships every budget as
    it is; only a layer with a short source scales that source's budgets
    down to its supply."""

    def __init__(self, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile, dt: float):
        self.plan = net.plan
        self.dt = dt
        self.arrivals = arr.rates * dt
        self.service = svc.rates * dt
        self.egress_lo = net.node_id(net.num_layers - 1, 0)
        self._rates = None
        self._budgets = []

    def __call__(self, q: np.ndarray, rates: RateAssignment, link_flow: np.ndarray) -> np.ndarray:
        """Advance the backlogs ``q`` by one step in place, adding each
        link's flow to ``link_flow``; return the service per egress node."""
        if rates is not self._rates:
            self._budgets = []
            for layer in self.plan:
                want = rates.values[layer.links] * self.dt
                desired = np.bincount(layer.src_local, weights=want, minlength=layer.width)
                self._budgets.append((want, desired))
            self._rates = rates
        q[: self.arrivals.size] += self.arrivals
        for layer, (want, desired) in zip(self.plan, self._budgets):
            avail = q[layer.lo : layer.next_lo]
            short = desired > avail
            if short.any():
                # desired > avail >= 0 makes every quotient finite and in [0, 1)
                scale = np.ones(layer.width)
                np.divide(avail, desired, out=scale, where=short)
                x = want * scale[layer.src_local]
                shipped = np.bincount(layer.src_local, weights=x, minlength=layer.width)
            else:
                x, shipped = want, desired
            q[layer.lo : layer.next_lo] = np.maximum(avail - shipped, 0.0)
            np.add.at(q[layer.next_lo : layer.next_lo + layer.next_width], layer.dst_local, x)
            link_flow[layer.links] += x
        egress = q[self.egress_lo :]
        served = np.minimum(egress, self.service)
        egress -= served
        return served


def step(
    state: QueueState,
    rates: RateAssignment,
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    dt: float,
) -> QueueState:
    """Advance the backlog vector by one step of length ``dt``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rates.net is not net:
        raise EngineError("rate assignment belongs to a different network")
    bad = rates.capacity_violations()
    if bad:
        raise EngineError(f"rates exceed capacity on link {bad[0]}")
    q = state.q.copy()
    _FluidStep(net, arr, svc, dt)(q, rates, np.zeros(net.num_links))
    return QueueState(q, state.t + dt)


def _policy_rates(policy, state, net, arr, svc, dt) -> RateAssignment:
    if isinstance(policy, RateAssignment):
        return policy
    return policy.rates(state, net, arr, svc, dt)


class _CapacityCheck:
    """Capacity check of a run's per-step assignments.  An assignment is
    immutable, so one that the policy returns again (a static policy
    returns the same object every step) is checked only the first time."""

    def __init__(self):
        self._last = None

    def __call__(self, rates: RateAssignment) -> RateAssignment:
        if rates is not self._last:
            bad = rates.capacity_violations()
            if bad:
                raise EngineError(f"policy rates exceed capacity on link {bad[0]}")
            self._last = rates
        return rates


def run(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    policy,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the dynamics under ``policy`` over ``[t0, t0 + horizon]``.

    ``policy`` is either a static :class:`RateAssignment` or any object
    exposing ``rates(state, net, arr, svc, dt)``; it is evaluated once per
    step on the recorded state at the step start (before that step's
    arrivals).  Every assignment is checked against the capacities before
    it is applied; one that is the very object of the previous step is not
    checked again, so a static policy is checked once per run.  Each step
    works through the network's :attr:`~fluidq.network.LayeredNetwork.plan`
    one layer at a time.  In integer-packet mode (``cfg.discretize``)
    backlogs stay integral and per-step transfers are rounded down with
    fractional remainders banked per link.
    """
    ensure_valid(net, arr, svc)
    if cfg.discretize:
        from . import discrete

        return discrete.integer_run(net, arr, svc, policy, cfg)

    dt = cfg.resolved_dt()
    steps = math.ceil(cfg.horizon / dt - 1e-12)
    queues = np.empty((steps + 1, net.num_nodes))
    applied = np.empty((steps, net.num_links))
    link_flow = np.zeros(net.num_links)
    served_total = np.zeros(net.layer_sizes[-1])
    queues[0] = cfg.initial_backlog(net)
    mass = queues[0].sum()
    injected = arr.total * dt
    advance = _FluidStep(net, arr, svc, dt)
    checked = _CapacityCheck()
    for k in range(steps):
        # lambda, mu > 0 and nonnegative rates keep every row nonnegative
        state = QueueState._trusted(queues[k], cfg.t0 + k * dt)
        rates = checked(_policy_rates(policy, state, net, arr, svc, dt))
        q = queues[k + 1]
        q[:] = queues[k]
        served = advance(q, rates, link_flow)
        total = q.sum()
        balance = injected - served.sum() - (total - mass)
        if not abs(balance) <= 1e-9 * max(1.0, mass + injected):
            raise EngineError(f"mass balance violated at step {k}: residual {balance}")
        mass = total
        applied[k] = rates.values
        served_total += served
    return Trajectory(cfg.t0, dt, queues, applied, link_flow, served_total)
