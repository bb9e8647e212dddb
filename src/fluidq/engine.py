"""Fluid queueing dynamics: stepping, trajectories, and effective rates.

The backlog at each node evolves by flow conservation: arrivals minus
departures, with egress nodes serving work-conservingly at their maximum
rate.  Integration is explicit Euler with within-step clamping: a node can
ship at most what it holds plus what it received earlier in the same step
(layers are processed in order), and scarcity is shared across a node's
egress links in proportion to their set rates.  Between queue-emptying
events the dynamics are piecewise linear, so the scheme is exact there and
first-order accurate across events.

One transfer kernel, :meth:`_FluidStep.send`, ships the link budgets of a
:class:`~fluidq.network.LayerPlan`: one layer's links, or a run of
consecutive layers' taken together.  :class:`_FluidStep` is built once per
run, with the arrivals and service budgets precomputed, and computes an
assignment's budgets once for each new assignment object.  The kernel
skips the proportional split on a plan where no source is short, and it
advances the backlog vector in place.

It runs on two schedules.  A policy that reads the state gets one step at
a time: the kernel is called once per layer of the network's plan, for
:func:`run` and :func:`step` alike.  A static assignment (a bare
:class:`RateAssignment` or a :class:`StaticPolicy`) ties the layers only
through the inflow each passes downstream, so link layer l at step k and
layer l + 1 at step k - 1 can move together: :func:`run` advances it
along the diagonals t = k + l (the hyperplane method of Lamport, "The
Parallel Execution of DO Loops", CACM 1974), one kernel call per
diagonal, with the same bytes as the per-step schedule.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    ArrivalProfile,
    LayeredNetwork,
    Link,
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
        if not np.all((q >= 0) & (q < math.inf)):
            raise ValueError("backlogs must be finite and nonnegative")
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
        dt: float,
        queues: np.ndarray,
        rates: np.ndarray,
        link_flow: np.ndarray,
        served: np.ndarray,
    ):
        self.dt = dt
        self.queues = queues
        self.rates = rates
        self.link_flow = link_flow
        self.served = served

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.queues.shape[0])

    @property
    def num_steps(self) -> int:
        return self.rates.shape[0]

    def state(self, k: int) -> QueueState:
        return QueueState(self.queues[k], k * self.dt)

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
        ids = net.plan_of(l, l).links
        lo = net.node_id(l, 0)
        hi = lo + net.layer_sizes[l]
        out_l = set_out[lo:hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(out_l > 0, np.minimum(1.0, inflow[lo:hi] / out_l), 0.0)
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


class StaticPolicy:
    """Constant transmission rates, the same assignment every step."""

    def __init__(self, rates: RateAssignment):
        self.assignment = rates

    def rates(self, state, net, arr, svc, dt) -> RateAssignment:
        return self.assignment


def _static_rates(policy) -> RateAssignment | None:
    """The assignment of a bare :class:`RateAssignment` or a
    :class:`StaticPolicy`, which no state can change; None for any other
    policy."""
    if isinstance(policy, RateAssignment):
        return policy
    if isinstance(policy, StaticPolicy):
        return policy.assignment
    return None


class _Wavefront:
    """The diagonals of a run that advances link layer l at step t - l on
    diagonal t, and where each node's row lands: node n of layer l at the
    end of step t - l is cell ``(t + 1) * num_nodes + place[n]`` of the
    flattened trajectory."""

    def __init__(self, net: LayeredNetwork):
        self.net = net
        layer_of = np.repeat(np.arange(net.num_layers), net.layer_sizes)
        self.place = np.arange(net.num_nodes) - layer_of * net.num_nodes

    def diagonals(self, steps: int):
        """Per diagonal t: ``(t, k, span)`` with ``k`` the step whose egress
        service it completes (negative before the first) and ``span`` the
        plan of the link layers it advances, or None."""
        last = self.net.num_layers - 2
        for t in range(steps + last + 1):
            a, b = max(0, t - steps + 1), min(t, last)
            yield t, t - last - 1, self.net.plan_of(a, b) if a <= b else None


class _FluidStep:
    """The fluid Euler step of one run, and its transfer kernel.

    Built once per run with the arrivals ``lambda * dt`` and the service
    budgets ``mu * dt``.  An assignment's per-link budgets ``values * dt``
    and their per-node sums are recomputed only when the assignment is not
    the previous step's object (its values are read-only).  The kernel
    :meth:`send` ships the links of one :class:`~fluidq.network.LayerPlan`,
    a layer or a run of layers; a plan where no source is asked for more
    than it holds ships every budget as it is, and only a short source has
    its budgets scaled down to its supply."""

    def __init__(self, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile, dt: float):
        self.plan = net.plan
        self.dt = dt
        self.arrivals = arr.rates * dt
        self.service = svc.rates * dt
        self.src = net.link_src
        self.num_nodes = net.num_nodes
        self.egress_lo = net.node_id(net.num_layers - 1, 0)
        self._rates = None

    def budgets(self, rates: RateAssignment) -> None:
        if rates is not self._rates:
            self._want = rates.values * self.dt
            self._desired = np.bincount(self.src, weights=self._want, minlength=self.num_nodes)
            self._rates = rates

    def send(self, q: np.ndarray, plan, link_flow: np.ndarray) -> np.ndarray:
        """Ship the budgets of ``plan``'s links out of their sources in
        ``q``, adding each link's flow to ``link_flow``; return the flows,
        which the caller lands at the links' destinations."""
        nodes = slice(plan.lo, plan.lo + plan.width)
        want, desired = self._want[plan.links], self._desired[nodes]
        avail = q[nodes]
        short = desired > avail
        if short.any():
            # desired > avail >= 0 makes every quotient finite and in [0, 1)
            scale = np.ones(plan.width)
            np.divide(avail, desired, out=scale, where=short)
            x = want * scale[plan.src_local]
            shipped = np.bincount(plan.src_local, weights=x, minlength=plan.width)
        else:
            x, shipped = want, desired
        q[nodes] = np.maximum(avail - shipped, 0.0)
        link_flow[plan.links] += x
        return x

    @staticmethod
    def land(q: np.ndarray, plan, x: np.ndarray) -> None:
        """Add the flows ``x`` of ``plan``'s links to their destinations."""
        np.add.at(q[plan.next_lo : plan.next_lo + plan.next_width], plan.dst_local, x)

    def serve(self, q: np.ndarray) -> np.ndarray:
        """Serve the egress backlogs of ``q`` in place; return the service
        per egress node."""
        egress = q[self.egress_lo :]
        served = np.minimum(egress, self.service)
        egress -= served
        return served

    def __call__(self, q: np.ndarray, rates: RateAssignment, link_flow: np.ndarray) -> np.ndarray:
        """Advance the backlogs ``q`` by one step in place, one layer of the
        plan at a time, adding each link's flow to ``link_flow``; return
        the service per egress node."""
        self.budgets(rates)
        q[: self.arrivals.size] += self.arrivals
        for layer in self.plan:
            self.land(q, layer, self.send(q, layer, link_flow))
        return self.serve(q)

    def wavefront(self, net: LayeredNetwork, queues: np.ndarray, rates, link_flow, settle) -> None:
        """Fill the rows of ``queues`` after its first under the static
        ``rates``, one diagonal of (layer, step) pairs at a time.

        On diagonal t the egress layer is served for step t - (L - 1), whose
        row is then complete and goes to ``settle(k, served)``; the
        arrivals of step t come in; and one :meth:`send` moves every link
        layer l that has a step t - l, with each source's supply read
        before any flow of the diagonal lands.  Each node's values and
        flows meet the same operations in the same order as under
        :meth:`__call__`, so every row is the same to the bit."""
        self.budgets(rates)
        front = _Wavefront(net)
        steps, n = queues.shape[0] - 1, self.num_nodes
        flat = queues.reshape(-1)
        q = queues[0].copy()
        for t, k, span in front.diagonals(steps):
            if k >= 0:
                served = self.serve(q)
                queues[k + 1, self.egress_lo :] = q[self.egress_lo :]
                settle(k, served)
            if t < steps:
                q[: self.arrivals.size] += self.arrivals
            if span is not None:
                x = self.send(q, span, link_flow)
                nodes = slice(span.lo, span.lo + span.width)
                flat[(t + 1) * n + front.place[nodes]] = q[nodes]
                self.land(q, span, x)


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
        raise EngineError(f"rates exceed capacity on link {Link(*bad[0]).name}")
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
                raise EngineError(f"policy rates exceed capacity on link {Link(*bad[0]).name}")
            self._last = rates
        return rates


def run(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    policy,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the dynamics under ``policy`` over ``[0, horizon]``.

    ``policy`` is either a static :class:`RateAssignment` or any object
    exposing ``rates(state, net, arr, svc, dt)``.  Every assignment is
    checked against the capacities before it is applied; one that is the
    very object of the previous step is not checked again.  In
    integer-packet mode (``cfg.discretize``) backlogs stay integral and
    per-step transfers are rounded down with fractional remainders banked
    per link.

    A bare assignment or a :class:`StaticPolicy` is read once and checked
    once, and the run advances along diagonals: on diagonal t the egress
    layer is served for step t - (L - 1) and that step's row is checked,
    the arrivals of step t come in, and one batched transfer moves each
    link layer l at its own step t - l.  Any other policy is evaluated once
    per step on the recorded state at the step start (before that step's
    arrivals), and each step works through the network's
    :attr:`~fluidq.network.LayeredNetwork.plan` one layer at a time.  Both
    schedules give the same trajectory to the bit, and a mass-balance or
    negative-backlog error names the same step and node; on the diagonal
    schedule, with L > 2 layers, the upstream layers may have advanced up
    to L - 2 further steps when it is raised.
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

    def settle(k: int, served: np.ndarray) -> None:
        nonlocal mass
        total = queues[k + 1].sum()
        balance = injected - served.sum() - (total - mass)
        if not abs(balance) <= 1e-9 * max(1.0, mass + injected):
            raise EngineError(f"mass balance violated at step {k}: residual {balance}")
        mass = total
        served_total[:] += served

    static = _static_rates(policy)
    if static is not None:
        applied[:] = checked(static).values
        advance.wavefront(net, queues, static, link_flow, settle)
        return Trajectory(dt, queues, applied, link_flow, served_total)
    for k in range(steps):
        # lambda, mu > 0 and nonnegative rates keep every row nonnegative
        state = QueueState._trusted(queues[k], k * dt)
        rates = checked(_policy_rates(policy, state, net, arr, svc, dt))
        q = queues[k + 1]
        q[:] = queues[k]
        settle(k, advance(q, rates, link_flow))
        applied[k] = rates.values
    return Trajectory(dt, queues, applied, link_flow, served_total)
