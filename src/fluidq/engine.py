"""Fluid queueing dynamics: stepping, trajectories, and effective rates.

The backlog at each node evolves by flow conservation: arrivals minus
departures, with egress nodes serving work-conservingly at their maximum
rate.  Integration is explicit Euler with within-step clamping: a node can
ship at most what it holds plus what it received earlier in the same step
(layers are processed in order), and scarcity is shared across a node's
egress links in proportion to their set rates.  Between queue-emptying
events the dynamics are piecewise linear, so the scheme is exact there and
first-order accurate across events.

Under static rates (a bare :class:`RateAssignment` or a
:class:`StaticPolicy`) a fluid run does not step at all: a node empties at
most once, so the run is at most one linear segment per node and one more,
each one :func:`effective_flow` pass (:func:`_fluid_segments`), and
:func:`run` reads its rows off them at the step instants; its rates are
one read-only broadcast of the assignment.

A kernel (:class:`_Kernel`) owns a run's backlog vector and budgets, laid
out [arrivals | links in link order | egress service], and ships the link
budgets of a :class:`~fluidq.network.LayerPlan`: one layer's links, or a
run of consecutive layers' taken together.  Its ``draw`` hands out a slice
of the budgets: as they are in fluid runs (:class:`_FluidStep`), whole
packets by one floor pass over the same slice of one bank vector in
integer runs (:class:`~fluidq.discrete._IntegerSim`).  One pair of
schedules serves both.  :func:`_advance` runs one step, one ``draw`` of
the whole vector and then the layers of the network's plan one at a time:
for a policy that reads the state and for :func:`step`.  In an integer
run a static assignment ties the layers only through the inflow each
passes downstream, so link layer l at step k and layer l + 1 at step
k - 1 can move together: :func:`_run_diagonals` advances it along the
diagonals t = k + l (the hyperplane method of Lamport, "The Parallel
Execution of DO Loops", CACM 1974), one ``draw`` and one ``send`` per
diagonal, with the same bytes as the per-step schedule.  :func:`_run_steps`
picks the schedule for integer runs and dynamic fluid runs in :func:`run`
and, chunk by chunk, for tagged runs.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    _require_network,
    ensure_valid,
    key_name,
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


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled solution of a run: queue states plus the rates
    applied on each step, with cumulative per-link flow and per-egress
    service for conservation checks.  Under static rates ``rates`` is a
    read-only :func:`numpy.broadcast_to` view of the one assignment, every
    row the same vector, not a filled copy."""

    dt: float
    queues: np.ndarray
    rates: np.ndarray
    link_flow: np.ndarray
    served: np.ndarray

    @cached_property
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
    net: LayeredNetwork, arr: ArrivalProfile, values: np.ndarray, held: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Layer-by-layer scaling of set rates by upstream supply.

    A node that would be asked to send more than it receives forwards its
    whole inflow, split across its egress links in proportion to the set
    rates.  A node of the mask ``held`` (one flag per node: it holds
    backlog) ships its set rates whatever its inflow.  Returns
    ``(g_tilde, inflow, set_out, sinks)`` where ``inflow``
    counts external arrivals for ingress nodes and effective upstream flow
    elsewhere, ``set_out`` is each node's total set egress rate, and
    ``sinks`` lists nodes with positive inflow but zero egress rate, in a
    layer without links too (one scan after the layers).  Each per-node
    link sum is one ``bincount``.
    """
    values = np.asarray(values, dtype=float)
    inflow = np.zeros(net.num_nodes)
    inflow[: net.layer_sizes[0]] = arr.rates
    set_out = np.bincount(net.link_src, weights=values, minlength=net.num_nodes)
    g_tilde = np.zeros_like(values)
    sends = set_out > 0
    factor = np.zeros(net.num_nodes)  # 0 where a node has no set rate
    for plan in net.plan:
        nodes = slice(plan.lo, plan.lo + plan.width)
        f = factor[nodes]
        np.divide(inflow[nodes], set_out[nodes], out=f, where=sends[nodes])
        np.minimum(f, 1.0, out=f)
        if held is not None:  # a node without set rates has no link to scale
            f[held[nodes]] = 1.0
        np.multiply(values[plan.links], f[plan.src_local], out=g_tilde[plan.links])
        inflow[plan.next_lo : plan.next_lo + plan.next_width] = np.bincount(
            plan.dst_local, weights=g_tilde[plan.links], minlength=plan.next_width
        )
    above_egress = slice(0, net.node_id(net.num_layers - 1, 0))
    stuck = (inflow[above_egress] > 1e-12 * max(1.0, arr.total)) & (set_out[above_egress] <= 0)
    sinks = [net.node_coords(int(nid)) for nid in np.flatnonzero(stuck)]
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
    _require_network(net, rates)
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


class _Segments(NamedTuple):
    """The exact fluid trajectory from a backlog under static set rates,
    piecewise linear in time.  On segment j, from time ``start[j]`` (the
    first is 0) to the next start, the backlogs are
    ``q[j] + slope[j] * (t - start[j])``, the links carry ``flow[j]`` and
    the egress nodes are served at ``served[j]``; the last segment lasts."""

    start: np.ndarray
    q: np.ndarray
    slope: np.ndarray
    flow: np.ndarray
    served: np.ndarray

    def backlogs(self, t):
        """The backlogs at the instant ``t >= 0``, or one row per instant of
        the sorted array ``t``, one broadcast per segment's run of instants."""
        at = np.asarray(t, dtype=float).reshape(-1)
        cut = np.searchsorted(at, self.start).tolist()[1:] + [at.size]
        q = np.empty((at.size, self.q.shape[1]))
        for j, (a, b) in enumerate(zip([0] + cut, cut)):
            np.multiply((at[a:b] - self.start[j])[:, None], self.slope[j], out=q[a:b])
            q[a:b] += self.q[j]
        # a node that empties at a segment's end lands on -0 or a rounding below
        return np.maximum(q, 0.0, out=q).reshape(np.shape(t) + q.shape[1:])


def _set_totals(net, svc, values) -> np.ndarray:
    """Each node's set total: the sum of its out-link rates, and at egress
    its service rate.  A node holding backlog ships exactly this."""
    cap = np.bincount(net.link_src, weights=values, minlength=net.num_nodes)
    cap[net.node_id(net.num_layers - 1, 0) :] = svc.rates
    return cap


def _fluid_segments(net, arr, svc, values, q0, until=math.inf) -> _Segments:
    """The exact fluid run from the backlogs ``q0`` under the static set
    rates ``values``, segment by segment until one reaches ``until``.

    A node that holds backlog ships its set total (the egress layer: its
    service rate), and an empty one forwards its inflow up to that total:
    one :func:`effective_flow` pass on the mask of held nodes.  Every
    inflow is then nonincreasing in time, so a node that empties stays
    empty, and a segment ends at the first instant a draining node empties
    (Chen & Mandelbaum, "Discrete flow networks: bottleneck analysis and
    fluid approximations", Math. OR 1991).  A run has at most one segment
    per node and one more; past that it raises :class:`EngineError`."""
    cap = _set_totals(net, svc, values)
    egress_lo = net.node_id(net.num_layers - 1, 0)
    q, t = np.array(q0, dtype=float), 0.0
    parts = []
    for _ in range(net.num_nodes + 1):
        held = q > 0
        flow, inflow, _, _ = effective_flow(net, arr, values, held)
        out = np.where(held, cap, np.minimum(cap, inflow))
        slope = inflow - out  # below zero only where a held node drains
        parts.append((t, q, slope, flow, out[egress_lo:]))
        empties_in = np.full(net.num_nodes, math.inf)
        np.divide(q, -slope, out=empties_in, where=slope < 0)
        span = empties_in.min()
        if not t + span < until:
            return _Segments(*(np.array(part) for part in zip(*parts)))
        q = np.maximum(q + slope * span, 0.0)
        q[empties_in <= span] = 0.0
        t += span
    raise EngineError(f"static fluid run not settled after {net.num_nodes + 1} segments")


def _static_fluid_run(net, arr, svc, rates: RateAssignment, cfg: SimConfig) -> Trajectory:
    """A fluid run under the static assignment ``rates``, its rows read off
    the exact segments at the step instants k * dt.  Each row's mass is
    checked against the initial mass plus lambda * t minus the service so
    far, with :meth:`_FluidStep.settle`'s tolerance."""
    dt, steps = cfg.resolved_dt(), cfg.num_steps()
    q0 = cfg.initial_backlog(net)
    horizon = steps * dt
    segs = _fluid_segments(net, arr, svc, rates.values, q0, horizon)
    times = dt * np.arange(steps + 1)
    rows = segs.backlogs(times)
    spans = np.diff(segs.start, append=horizon)
    # the service so far is linear between the segment starts and the horizon
    done = np.cumsum(np.append(0.0, spans * segs.served.sum(axis=1)))
    mass = q0.sum() + arr.total * times
    balance = mass - np.interp(times, np.append(segs.start, horizon), done) - rows.sum(axis=1)
    bad = ~(np.abs(balance) <= 1e-9 * np.maximum(1.0, mass))
    if bad.any():
        k = int(np.argmax(bad))
        raise EngineError(f"mass balance violated at step {k - 1}: residual {balance[k]}")
    applied = np.broadcast_to(rates.values, (steps, net.num_links))
    return Trajectory(dt, rows, applied, spans @ segs.flow, spans @ segs.served)


class _Kernel:
    """What both kernels share: a run's backlogs ``q`` (float or integral),
    running link flow, served totals and budgets per step, one vector laid
    out [arrivals | links | egress service] (``service`` the last slice).
    :meth:`budgets` fills the links' part with an assignment's ``values *
    dt`` unless it is the previous step's object (its values are read-only)."""

    def __init__(self, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile,
                 dt: float, q: np.ndarray):
        self.net, self.arr, self.svc, self.dt, self.q = net, arr, svc, dt, q
        n0, m = net.layer_sizes[0], net.num_links
        self.budget = np.concatenate((arr.rates * dt, np.zeros(m), svc.rates * dt))
        self._want, self.service = self.budget[n0 : n0 + m], slice(n0 + m, None)
        self.link_flow = np.zeros(m, q.dtype)
        self.served_total = np.zeros(net.layer_sizes[-1], q.dtype)
        self.egress_lo = net.node_id(net.num_layers - 1, 0)
        self._rates = None

    def budgets(self, rates: RateAssignment) -> None:
        if rates is not self._rates:
            self._rates = rates
            np.multiply(rates.values, self.dt, out=self._want)

    def arrive(self, born: np.ndarray) -> None:
        """Bring in one step's arrivals ``born`` at the ingress layer."""
        self.q[: born.size] += born

    def serve(self, cap: np.ndarray) -> np.ndarray:
        """Serve each egress backlog up to ``cap`` in place; return the service."""
        egress = self.q[self.egress_lo :]
        served = np.minimum(egress, cap)
        egress -= served
        return served


class _FluidStep(_Kernel):
    """The fluid kernel of one run, which gives :func:`_advance` the steps
    it schedules (a dynamic policy's run, and :func:`step`).  :meth:`send`
    ships the links of one :class:`~fluidq.network.LayerPlan`, a layer or a
    run of layers; a plan where no source is asked for more than it holds
    ships every budget as it is, and only a short source has its budgets
    scaled down to its supply.  Backlogs and link flow change in place."""

    def __init__(self, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile,
                 dt: float, q0):
        super().__init__(net, arr, svc, dt, np.array(q0, dtype=float))
        self.injected = arr.total * dt
        self.mass = np.add.reduce(self.q)

    def budgets(self, rates: RateAssignment) -> None:
        if rates is not self._rates:
            super().budgets(rates)
            self._desired = np.bincount(
                self.net.link_src, weights=self._want, minlength=self.net.num_nodes
            )

    def draw(self, part: slice) -> np.ndarray:
        """The step budgets of ``part`` of the budget vector."""
        return self.budget[part]

    def send(self, plan, want: np.ndarray) -> np.ndarray:
        """Ship the budgets ``want`` of ``plan``'s links out of their
        sources, adding each link's flow to the running link flow; return
        the flows, for :meth:`land`."""
        nodes = slice(plan.lo, plan.lo + plan.width)
        desired = self._desired[nodes]
        avail = self.q[nodes]
        short = desired > avail
        if np.logical_or.reduce(short):
            # desired > avail >= 0 makes every quotient finite and in [0, 1)
            scale = np.ones(plan.width)
            np.divide(avail, desired, out=scale, where=short)
            x = want * scale[plan.src_local]
            shipped = np.bincount(plan.src_local, weights=x, minlength=plan.width)
        else:
            x, shipped = want, desired
        np.maximum(np.subtract(avail, shipped, out=avail), 0.0, out=avail)
        self.link_flow[plan.links] += x
        return x

    def land(self, plan, x: np.ndarray) -> None:
        """Add the flows ``x`` of ``plan``'s links to their destinations."""
        np.add.at(self.q[plan.next_lo : plan.next_lo + plan.next_width], plan.dst_local, x)

    def settle(self, k: int, served: np.ndarray, row: np.ndarray) -> None:
        """Check the mass balance of step ``k``, whose complete row of
        backlogs is ``row``, and count its service."""
        total = np.add.reduce(row)
        balance = self.injected - np.add.reduce(served) - (total - self.mass)
        if not abs(balance) <= 1e-9 * max(1.0, self.mass + self.injected):
            raise EngineError(f"mass balance violated at step {k}: residual {balance}")
        self.mass = total
        self.served_total += served


def _advance(kernel) -> np.ndarray:
    """One step of a kernel (:class:`_FluidStep` or the integer
    :class:`~fluidq.discrete._IntegerSim`) under its current budgets: one
    :meth:`draw` of the whole budget vector, then the arrivals come in,
    each layer of the plan ships its links' budgets and lands them before
    the next layer reads its supply, and the egress layer is served.
    Returns the service per egress node."""
    net = kernel.net
    n0, m = net.layer_sizes[0], net.num_links
    whole = kernel.draw(slice(None))
    kernel.arrive(whole[:n0])
    want = whole[n0 : n0 + m]
    for layer in net.plan:
        kernel.land(layer, kernel.send(layer, want[layer.links]))
    return kernel.serve(whole[n0 + m :])


def _run_diagonals(kernel, net: LayeredNetwork, rows: np.ndarray, flows=None, start=0) -> None:
    """Fill the rows of ``rows`` after its first under the kernel's static
    budgets, one diagonal of (layer, step) pairs at a time, for the steps
    ``start``, ``start + 1``, ... of a run.

    On diagonal t the egress layer is served for step k = t - (L - 1),
    whose row is then complete and goes to the kernel's ``settle``; the
    arrivals of step t come in; and one ``send`` moves every link layer l
    that has a step t - l, with each source's supply read before any flow
    of the diagonal lands.  Their budgets are one slice of the budget
    vector (arrivals iff t < steps, the links of layers a..b, service iff
    k >= 0), and one ``draw`` takes them.  Node n of layer l at the end of
    step t - l is cell ``(t + 1) * num_nodes + place[n]`` of the flattened
    rows, copied between its shipment and the next inflow.  Each node's
    values and flows meet the same operations in the same order as under
    :func:`_advance`, so every row is the same to the bit.  With ``flows``,
    row k + 1 of it gets the running link flow and then the served totals
    as they stand after step k, by the same diagonal placement (a link
    takes its source's layer)."""
    steps, n, last = rows.shape[0] - 1, net.num_nodes, net.num_layers - 2
    n0 = net.layer_sizes[0]
    edge = [n0 + layer.links.start for layer in net.plan] + [n0 + net.num_links]  # bank slots
    place = np.arange(n) - np.repeat(np.arange(net.num_layers), net.layer_sizes) * n
    flat = rows.reshape(-1)
    if flows is not None:
        width = flows.shape[1]
        link_place = np.arange(net.num_links) + place[net.link_src] // n * width
        flows_flat = flows.reshape(-1)
    lo = kernel.egress_lo
    for t in range(steps + last + 1):
        k = t - last - 1
        a, b = max(0, t - steps + 1), min(t, last)
        first = 0 if t < steps else edge[a]
        whole = kernel.draw(slice(first, None if k >= 0 else edge[b + 1]))
        if k >= 0:
            served = kernel.serve(whole[edge[-1] - first :])
            rows[k + 1, lo:] = kernel.q[lo:]
            kernel.settle(start + k, served, rows[k + 1])
            if flows is not None:
                flows[k + 1, net.num_links :] = kernel.served_total
        if t < steps:
            kernel.arrive(whole[:n0])
        if a <= b:
            span = net.plan_of(a, b)
            x = kernel.send(span, whole[edge[a] - first : edge[b + 1] - first])
            nodes = slice(span.lo, span.lo + span.width)
            flat[(t + 1) * n + place[nodes]] = kernel.q[nodes]
            if flows is not None:
                flows_flat[(t + 1) * width + link_place[span.links]] = kernel.link_flow[span.links]
            kernel.land(span, x)


def _run_steps(kernel, policy, checked, rows, flows=None, start=0) -> np.ndarray:
    """Steps ``start`` .. ``start + len(rows) - 2`` of a run from the
    backlogs ``rows[0]``: fill the later rows with the backlogs after each
    step and return each step's rates, checked by ``checked``.  With
    ``flows``, row k + 1 of it gets the running link flow and the served
    totals after step k (row 0 is the caller's).

    A bare assignment or a :class:`StaticPolicy` is read once, checked once
    and returned as a read-only broadcast of its values, and the steps
    advance along diagonals (:func:`_run_diagonals`);
    :func:`run` brings only integer kernels here with one, since a static
    fluid run is read off its exact segments.  Any other policy is
    evaluated once per step on the recorded state at the step start
    (before that step's arrivals), and each step is one :func:`_advance`."""
    net, dt = kernel.net, kernel.dt
    steps = rows.shape[0] - 1
    static = _static_rates(policy)
    if static is not None:
        applied = np.broadcast_to(checked(static).values, (steps, net.num_links))
        kernel.budgets(static)
        _run_diagonals(kernel, net, rows, flows, start)
        return applied
    applied = np.empty((steps, net.num_links))
    for i in range(steps):
        k = start + i
        # lambda, mu > 0 and nonnegative rates keep every row nonnegative
        state = QueueState._trusted(rows[i].astype(float, copy=False), k * dt)
        rates = checked(policy.rates(state, net, kernel.arr, kernel.svc, dt))
        kernel.budgets(rates)
        served = _advance(kernel)
        rows[i + 1] = kernel.q
        kernel.settle(k, served, rows[i + 1])
        applied[i] = rates.values
        if flows is not None:
            flows[i + 1, : net.num_links] = kernel.link_flow
            flows[i + 1, net.num_links :] = kernel.served_total
    return applied


def step(
    state: QueueState,
    rates: RateAssignment,
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    dt: float,
) -> QueueState:
    """Advance the backlog vector by one step of length ``dt``.  The
    instance goes through :func:`ensure_valid` first, and the backlog must
    have one entry per node."""
    ensure_valid(net, arr, svc)
    if state.q.shape != (net.num_nodes,):
        raise ValueError(
            f"backlog has {state.q.size} entries, network has {net.num_nodes} nodes"
        )
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if rates.net is not net:
        raise EngineError("rate assignment belongs to a different network")
    bad = rates.capacity_violations()
    if bad:
        raise EngineError(f"rates exceed capacity on link {key_name(bad[0])}")
    kernel = _FluidStep(net, arr, svc, dt, state.q)
    kernel.budgets(rates)
    _advance(kernel)
    return QueueState(kernel.q, state.t + dt)


class _CapacityCheck:
    """Check of a run's per-step assignments on the run's network ``net``:
    each must belong to it and keep within its capacities.  An assignment
    is immutable, so one that the policy returns again (a static policy
    returns the same object every step) is checked only the first time."""

    def __init__(self, net: LayeredNetwork):
        self.net = net
        self._last = None

    def __call__(self, rates: RateAssignment) -> RateAssignment:
        if rates is not self._last:
            if rates.net is not self.net:
                raise EngineError("rate assignment belongs to a different network")
            bad = rates.capacity_violations()
            if bad:
                raise EngineError(f"policy rates exceed capacity on link {key_name(bad[0])}")
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
    checked to belong to ``net`` and to keep within its capacities before
    it is applied; one that is the very object of the previous step is not
    checked again.
    ``cfg.discretize`` picks the kernel: in integer-packet mode backlogs
    stay integral and per-step transfers are rounded down with fractional
    remainders banked per link, and the rows are kept as integers until the
    trajectory is built.

    In fluid mode a bare assignment or a :class:`StaticPolicy` is not
    stepped: its rows, link flow and service are read off the exact
    piecewise-linear run (:func:`_fluid_segments`), and each row's mass is
    checked against the arrivals and the service so far.  Every other run
    steps through :func:`_run_steps`: a static assignment in integer mode
    advances along diagonals, any other policy one :func:`_advance` per
    step.  Both schedules give the same trajectory to the bit, and a
    mass-balance or negative-backlog error names the same step and node;
    on the diagonal schedule, with L > 2 layers, the upstream layers may
    have advanced up to L - 2 further steps when it is raised.
    """
    ensure_valid(net, arr, svc)
    checked = _CapacityCheck(net)
    static = _static_rates(policy)
    if static is not None and not cfg.discretize:
        return _static_fluid_run(net, arr, svc, checked(static), cfg)
    if cfg.discretize:
        from .discrete import _IntegerSim

        kernel = _IntegerSim(net, arr, svc, cfg)
    else:
        kernel = _FluidStep(net, arr, svc, cfg.resolved_dt(), cfg.initial_backlog(net))
    rows = np.empty((cfg.num_steps() + 1, net.num_nodes), dtype=kernel.q.dtype)
    rows[0] = kernel.q
    applied = _run_steps(kernel, policy, checked, rows)
    return Trajectory(
        kernel.dt, rows.astype(float, copy=False), applied,
        kernel.link_flow.astype(float, copy=False),
        kernel.served_total.astype(float, copy=False),
    )
