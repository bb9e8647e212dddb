"""Integer-packet simulation with FIFO rows and delays by Little's law.

Packets are whole units.  Per-step transfer and service budgets are the
running floor of rate * dt: each link and each server banks only the
fractional remainder, so a backlogged link realizes its set rate exactly in
the long run while never bursting above it.  :class:`_IntegerSim` is the
integer kernel of :mod:`fluidq.engine`'s two schedules, with the fluid
kernel's interface: :meth:`~_IntegerSim.demand` banks a plan's link
budgets and returns their whole parts, :meth:`~_IntegerSim.send` grants
them, and :meth:`~_IntegerSim.settle` checks each step's exact mass
balance against the births :meth:`~_IntegerSim.arrive` kept for it and
that no backlog is negative.  A source short of supply splits it across
its out-links in proportion to their budgets (:func:`_allocate_each`),
with the plan's source slots as segment ids and each link's offset from
its source's first link as its rank, so no segment is rebuilt per step.
An untagged run is :func:`fluidq.engine.run`; a tagged run steps the same
kernel with :func:`fluidq.engine._advance` and follows the packets.

For delay measurement, packets are tracked as exchangeability classes: an
origin, or a (window, origin) pair when arrivals are grouped in windows.
Untagged mass (initial backlog and arrivals after the measurement window)
occupies queue space but carries no class.

An ingress node's FIFO only ever holds single-class runs in arrival order:
its untagged backlog, one run per class of its origin, then untagged
arrivals after the horizon.  So it is kept as Newell's cumulative counts:
the packets it has taken in (``in_pos``) and sent on (``out_pos``), and
each class's interval of arrival positions.  A transfer of m packets
sends positions [out_pos, out_pos + m), and each class's share of it is
its overlap with that interval, which is exactly what popping the FIFO's
head would give.  Past the ingress layer, a node holding tagged mass keeps
a FIFO of rows, one per step in which packets entered it, each an integer
packet count and a float mass per class (untagged inflow joins an untagged
last row); a node without tagged mass keeps no rows.

Order within a step is not resolved: it is averaged.  A take of m packets
from a row of n carries m/n of every class, the expected make-up of a
uniformly random m-subset, and a source's parcel goes to its out-links in
proportion to their grants, link j carrying grant_j / moved of it (one
product over a layer's links).  Every later take is linear in a row's
make-up, so a run gives each class's expected sojourn over uniformly random
orders of each step's inflow; no origin loses every tie.  The per-class
counts are Newell's cumulative curves (G. F. Newell, *Applications of
Queueing Theory*, 1982), and no packet carries a timestamp: a class's
summed sojourn is dt times the sum over steps of its mass in the system
(Little's law, L = lambda W).  Totals stay integers, so ``q``, the grants,
the link flow and the service are those of an untagged run.  A run ends
when no ingress node holds a tagged packet and no row holds tagged mass,
both integer counts, never a float threshold.

Past the horizon no packet is tagged, so once every tagged row is at
egress the rest of a tagged run depends on the egress service budgets
alone: each egress FIFO holds exactly its node's backlog, and whatever
arrives later queues behind it (Newell's departure curve).  From then on a
tagged run serves only the egress layer, with the same budgets and pops,
and skips the policy, the arrivals and the transfers.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    EngineError,
    QueueState,
    Trajectory,
    _advance,
    _CapacityCheck,
    _policy_rates,
)
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    LayerPlan,
    ServiceProfile,
    SimConfig,
)


@dataclass
class TaggedRun:
    """Sojourn statistics for the packets that arrived within the window."""

    horizon: float
    dt: float
    origin_sum: np.ndarray
    origin_count: np.ndarray
    extension: float
    window_width: float | None = None
    window_stats: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    trajectory: Trajectory | None = None
    #: extension steps served by the egress drain, without stepping the network
    drain_steps: int = 0

    def window_mean(self, window_index: int) -> float:
        """Mean sojourn over all tagged packets arriving in one window."""
        total = 0.0
        count = 0.0
        for (_, w), (s, c) in self.window_stats.items():
            if w == window_index:
                total += s
                count += c
        if count == 0:
            raise ValueError(f"no tagged packets in window {window_index}")
        return total / count


def _allocate_each(amounts, totals, weights, seg, pos=None) -> np.ndarray:
    """Integer split of ``totals[s]`` over the entries with segment id
    ``s``, in proportion to their ``amounts`` and each capped by it:
    largest remainder, ties by position.  ``seg`` is ascending, and
    ``weights[s] > 0`` is the sum of ``amounts`` over segment ``s``.  Ids
    need not be dense: :meth:`_IntegerSim.send` passes its plan's source
    slots (:attr:`~fluidq.network.LayerPlan.src_of`), with ``totals`` and
    ``weights`` for every source, and ``pos``, each entry's position in its
    segment (its offset from its source's first link; found from ``seg``
    when omitted).  The remainders are ranked only when some segment has
    one to hand out."""
    exact = amounts * (totals[seg] / weights[seg])
    base = np.floor(exact).astype(np.int64)
    rest = (totals - np.bincount(seg, weights=base, minlength=totals.size))[seg]
    if (rest > 0).any():
        order = np.lexsort((base - exact, seg))
        if pos is None:
            pos = np.arange(seg.size) - np.searchsorted(seg, seg)
        base[order[pos < rest]] += 1
    return np.minimum(base, amounts)


class _IntegerSim:
    """The integer kernel of one run, which owns the integral backlogs
    ``q``, and with ``track_packets`` the tagged bookkeeping and the steps
    of a tagged run."""

    def __init__(
        self,
        net: LayeredNetwork,
        arr: ArrivalProfile,
        svc: ServiceProfile,
        policy,
        cfg: SimConfig,
        track_packets: bool,
        window: float | None = None,
        keep_trajectory: bool = True,
    ):
        if np.any(arr.rates < 0) or np.any(svc.rates < 0) or np.any(net.capacities < 0):
            raise ValueError(
                "integer mode requires nonnegative arrival rates, service rates "
                "and capacities"
            )
        self.net = net
        self.arr = arr
        self.svc = svc
        self.policy = policy
        self.dt = cfg.resolved_dt()
        self.arrival_budget = arr.rates * self.dt
        self.service_budget = svc.rates * self.dt
        self.track = track_packets
        self.window = window
        self.keep_trajectory = keep_trajectory
        self.n_origin = net.layer_sizes[0]

        q0 = cfg.initial_backlog(net)
        if not np.all(q0 == np.round(q0)):
            raise ValueError("integer mode requires an integral q0")
        self.q = np.round(q0).astype(np.int64)
        self.mass = int(self.q.sum())
        self.arrival_bank = np.zeros(net.layer_sizes[0])
        self.link_bank = np.zeros(net.num_links)
        self.service_bank = np.zeros(net.layer_sizes[-1])
        self.egress_lo = net.node_id(net.num_layers - 1, 0)
        self.history: list[np.ndarray] = [self.q.astype(float)]
        self.applied: list[np.ndarray] = []
        self.link_flow = np.zeros(net.num_links, dtype=np.int64)
        self.served_total = np.zeros(net.layer_sizes[-1], dtype=np.int64)
        self._births: deque[int] = deque()  # per step arrived, until settled
        self._tag_steps = int(math.ceil(cfg.horizon / self.dt - 1e-12))
        self._check = _CapacityCheck()
        self._rates = None  # the assignment whose link budgets are cached
        self._slot = np.full(net.num_nodes, -1)  # node -> index in its layer's srcs
        for layer in net.plan:
            self._slot[layer.srcs] = np.arange(layer.srcs.size)

        # Tagged bookkeeping: classes are origins, or (window, origin) pairs
        # at index window * n_origin + origin.  ``fifo`` maps each node past
        # the ingress layer holding tagged mass to its rows, each a list
        # [packets, class masses], the masses None in an untagged row.
        # ``held`` counts per node the tagged packets at ingress and the
        # tagged rows past it, so the run's end is an exact integer test.
        # Ingress FIFOs are position counters instead of rows: node i has
        # taken in ``in_pos[i]`` packets and sent ``out_pos[i]``, and class
        # c arrived at positions ``[cls_lo[c], cls_hi[c])`` of its origin.
        n_windows = 1
        if window is not None:
            n_windows = self._window_of(self._tag_steps - 1) + 1
        self.n_class = n_windows * self.n_origin
        self.fifo: dict[int, deque[list]] = {}
        self.held = np.zeros(net.num_nodes, dtype=np.int64)
        self.in_pos = self.q[: self.n_origin].copy()
        self.out_pos = np.zeros(self.n_origin, dtype=np.int64)
        self.cls_lo = np.zeros(self.n_class, dtype=np.int64)
        self.cls_hi = np.zeros(self.n_class, dtype=np.int64)
        self.born = np.zeros(self.n_class, dtype=np.int64)
        #: tagged mass per class not yet departed, born - departed
        self.left = np.zeros(self.n_class)
        self.class_steps = np.zeros(self.n_class)

    def _window_of(self, k: int) -> int:
        return int(k * self.dt / self.window) if self.window is not None else 0

    # -- the kernel of engine._advance and engine._run_diagonals -----------

    def budgets(self, rates) -> None:
        if rates is not self._rates:
            self._rates, self._budget = rates, rates.values * self.dt

    def demand(self, plan: LayerPlan) -> np.ndarray:
        """Bank the budgets of ``plan``'s links and return their whole
        parts, which leave the banks."""
        bank = self.link_bank[plan.links]  # a slice, so a view of the banks
        bank += self._budget[plan.links]
        want = np.floor(bank + 1e-12).astype(np.int64)
        bank -= want
        return want

    def arrive(self, k: int) -> None:
        """Bring in step ``k``'s whole arrivals at the ingress layer."""
        self.arrival_bank += self.arrival_budget
        born = np.floor(self.arrival_bank + 1e-12).astype(np.int64)
        self.arrival_bank -= born
        if self.track:
            self._tag_arrivals(k, born)
        self.q[: born.size] += born
        self._births.append(int(born.sum()))

    def send(self, layer: LayerPlan, want: np.ndarray):
        """Grant the link budgets ``want`` of a layer, or of a run of layers
        taken together, against their sources' backlogs and take the
        packets off the sources; return the inflow per destination, for
        :meth:`land`, or None when no link has a budget."""
        if not want.any():
            return None
        supply = self.q[layer.srcs]
        total_want = np.add.reduceat(want, layer.starts)
        short = total_want > supply
        grant, moved = want, total_want
        if short.any():
            # a short source sends its whole supply down a single out-link
            # and splits it in proportion to the budgets over several; its
            # links are one run of the plan, so its slot is their segment
            # and their offsets from its first link their ranks
            short = short[layer.src_of]
            grant = np.where(short, supply[layer.src_of], want)
            links = np.flatnonzero(short & ~layer.single)
            if links.size:
                seg = layer.src_of[links]
                grant[links] = _allocate_each(
                    want[links], supply, total_want, seg, links - layer.starts[seg]
                )
            moved = np.add.reduceat(grant, layer.starts)
        inflow = np.bincount(
            layer.dst_local, weights=grant, minlength=layer.next_width
        ).astype(np.int64)
        if self.track:
            self._move_tagged(layer, grant, moved, inflow)
        self.q[layer.srcs] -= moved
        self.link_flow[layer.links] += grant
        return inflow

    def land(self, layer: LayerPlan, inflow) -> None:
        if inflow is not None:
            self.q[layer.next_lo : layer.next_lo + layer.next_width] += inflow

    def serve(self) -> np.ndarray:
        """Serve one step's whole budgets at the egress layer and return
        the service per egress node."""
        cap_f = self.service_bank + self.service_budget
        cap = np.floor(cap_f + 1e-12).astype(np.int64)
        self.service_bank = cap_f - cap
        egress = self.q[self.egress_lo :]
        serve = np.minimum(egress, cap)
        egress -= serve
        return serve

    def settle(self, k: int, served: np.ndarray, row: np.ndarray) -> None:
        """Mass balance and sign check of the backlogs ``row`` at the end
        of step ``k``, which took in the births :meth:`arrive` kept for it
        and served ``served``; count the service."""
        self.mass += self._births.popleft() - int(served.sum())
        residual = self.mass - int(row.sum())
        if not residual == 0:
            raise EngineError(f"mass balance violated at step {k}: residual {residual}")
        if row.min() < 0:
            nid = int(np.argmin(row))
            l, i = self.net.node_coords(nid)
            raise EngineError(
                f"negative backlog {int(row[nid])} at step {k} on "
                f"(layer {l + 1}, node {i + 1})"
            )
        self.served_total += served

    def step(self, k: int) -> None:
        """Step ``k`` of a tagged run: the policy's rates, one
        :func:`~fluidq.engine._advance`, and the tagged departures at
        egress."""
        # the last history row is a float copy of q
        q = self.history[-1] if self.keep_trajectory else self.q.astype(float)
        state = QueueState._trusted(q, k * self.dt)
        rates = self._check(
            _policy_rates(self.policy, state, self.net, self.arr, self.svc, self.dt)
        )
        self.budgets(rates)
        serve = _advance(self, k)
        if self.track:
            self._depart(serve)
        self.settle(k, serve, self.q)
        if self.keep_trajectory:
            self.applied.append(rates.values)
            self.history.append(self.q.astype(float))

    # -- tagged bookkeeping --------------------------------------------------

    def _pop(self, nid: int, count: int) -> np.ndarray | None:
        """Take ``count`` packets off the head of a node's FIFO; return
        their class masses, or None when they carry none.  A row of n
        packets that gives up m < n of them gives up m/n of each class."""
        rows = self.fifo[nid]
        parcel = None
        while count:
            row = rows[0]
            n, mass = row
            if n <= count:
                rows.popleft()
                count -= n
                if mass is not None:
                    self.held[nid] -= 1
            else:
                row[0] = n - count
                if mass is not None:
                    mass = mass * (count / n)
                    row[1] -= mass
                count = 0
            if mass is not None:
                parcel = mass if parcel is None else parcel + mass
        if not self.held[nid]:
            del self.fifo[nid]  # what is left is untagged
        return parcel

    def _push(self, nid: int, mass: np.ndarray | None, total: int) -> None:
        """Append one step's inflow of ``total`` packets, carrying the class
        masses ``mass`` (None for none), to a node's FIFO.  Inflow that
        brings a node its first tagged mass opens the FIFO with one untagged
        row for the backlog already there, so call before ``q`` counts it.
        Untagged inflow joins an untagged last row."""
        rows = self.fifo.get(nid)
        if rows is None:
            if mass is None:
                return
            rows = self.fifo[nid] = deque()
            if self.q[nid]:
                rows.append([int(self.q[nid]), None])
        if mass is not None:
            rows.append([total, mass])
            self.held[nid] += 1
        elif rows[-1][1] is None:
            rows[-1][0] += total
        else:
            rows.append([total, None])

    def _depart(self, serve: np.ndarray) -> None:
        """Serve each egress FIFO its node's ``serve``; the class masses
        leave ``left``, whose remainder is each class's mass in the system
        for the step (Little's law)."""
        lo = self.egress_lo
        for nid in [n for n in self.fifo if n >= lo]:
            count = int(serve[nid - lo])
            if count:
                mass = self._pop(nid, count)
                if mass is not None:
                    self.left -= mass
        self.class_steps += self.left

    def _tag_arrivals(self, k: int, born: np.ndarray) -> None:
        """Count one step's arrivals into the ingress positions; within the
        horizon they extend their origin's class of the current window."""
        if k < self._tag_steps:
            base = self._window_of(k) * self.n_origin
            cls = slice(base, base + self.n_origin)
            fresh = self.born[cls] == 0
            self.cls_lo[cls][fresh] = self.in_pos[fresh]
            self.cls_hi[cls] = self.in_pos + born
            self.born[cls] += born
            self.left[cls] += born
            self.held[: self.n_origin] += born
        self.in_pos += born

    def _overlap(self, lo, hi) -> np.ndarray:
        """Tagged packets per (window, origin) among the ingress positions
        ``[lo, hi)`` of each origin (``lo``/``hi`` are per origin)."""
        c_lo = self.cls_lo.reshape(-1, self.n_origin)
        c_hi = self.cls_hi.reshape(-1, self.n_origin)
        return np.maximum(np.minimum(hi, c_hi) - np.maximum(lo, c_lo), 0)

    def _move_tagged(self, layer: LayerPlan, grant, moved, inflow) -> None:
        """Carry the tagged class masses of one layer's transfers along.
        Each source's moved packets leave the head of its FIFO (rows, or at
        ingress the position counters) as one parcel, and link j carries
        ``grant_j / moved`` of it: one product over the layer's links.  A
        destination that receives tagged mass gets a tagged row; the
        untagged remainder of every inflow follows from the totals."""
        srcs, parcels = layer.srcs, None
        if layer.index == 0:
            # the moved packets are the positions [out_pos, out_pos + moved),
            # and each class's share is its overlap with them
            head = self.out_pos.copy()
            self.out_pos[srcs] += moved
            if self.held[: self.n_origin].any():
                parcels = self._overlap(head, self.out_pos)[:, srcs].T  # source x window
                self.held[srcs] -= parcels.sum(axis=1)
                carried = parcels.any(axis=1)
        else:
            for nid in [n for n in self.fifo if layer.lo <= n < layer.next_lo]:
                s = self._slot[nid]
                if s >= 0 and moved[s]:
                    mass = self._pop(nid, int(moved[s]))
                    if mass is not None:
                        if parcels is None:
                            parcels = np.zeros((srcs.size, self.n_class))
                            carried = np.zeros(srcs.size, bool)
                        parcels[s], carried[s] = mass, True
        lo, hit = layer.next_lo, np.zeros(layer.next_width, bool)
        if parcels is not None:
            links = np.flatnonzero(carried[layer.src_of] & (grant > 0))
            of, dst = layer.src_of[links], layer.dst_local[links]
            part = parcels[of] * (grant[links] / moved[of])[:, None]  # per link
            incoming = np.zeros((layer.next_width, self.n_class))
            if layer.index == 0:
                # an origin's classes are its own columns, so the (destination,
                # class) pairs of the links are distinct
                cols = np.arange(parcels.shape[1]) * self.n_origin + srcs[of][:, None]
                incoming[dst[:, None], cols] = part
            else:
                np.add.at(incoming, dst, part)
            hit[dst] = True
            tagged = np.flatnonzero(hit)
            for d, mass in zip(tagged.tolist(), incoming[tagged]):
                self._push(lo + d, mass, int(inflow[d]))
        for nid in [n for n in self.fifo if lo <= n < lo + layer.next_width]:
            if inflow[nid - lo] and not hit[nid - lo]:
                self._push(nid, None, int(inflow[nid - lo]))

    def tagged_mass(self) -> np.ndarray:
        """Tagged mass per node: at ingress the packets still queued there,
        past it the class masses of the node's rows."""
        mass = np.zeros(self.net.num_nodes)
        mass[: self.n_origin] = self._overlap(self.out_pos, self.in_pos).sum(axis=0)
        for nid, rows in self.fifo.items():
            mass[nid] = sum(float(m.sum()) for _, m in rows if m is not None)
        return mass

    def check_classes(self) -> None:
        """Tagged balance.  Exact: the ingress counters and every FIFO's row
        totals hold their node's backlog, and ``held`` counts each ingress
        node's tagged packets and each FIFO's tagged rows.  To float
        rounding: per class, the mass at ingress and in the FIFOs equals
        ``left`` (born - departed) within 1e-9 of the class's born count, or
        of 1 when fewer were born."""
        residual = self.in_pos - self.out_pos - self.q[: self.n_origin]
        if not np.all(residual == 0):
            i = int(np.flatnonzero(residual)[0])
            raise EngineError(
                f"ingress node {i} counters off its backlog by {int(residual[i])}"
            )
        at_ingress = self._overlap(self.out_pos, self.in_pos)
        counted = np.zeros_like(self.held)
        counted[: self.n_origin] = at_ingress.sum(axis=0)
        mass = at_ingress.ravel().astype(float)
        for nid, rows in self.fifo.items():
            residual = int(self.q[nid]) - sum(n for n, _ in rows)
            if not residual == 0:
                raise EngineError(f"FIFO of node {nid} off its backlog by {residual}")
            for _, m in rows:
                if m is not None:
                    mass += m
                    counted[nid] += 1
        residual = self.left - mass
        off = ~(np.abs(residual) <= 1e-9 * np.maximum(self.born, 1))  # NaN is off
        if off.any():
            c = int(np.argmax(off))
            raise EngineError(
                f"tagged balance violated for class {c}: residual {residual[c]:.3g}"
            )
        residual = self.held - counted
        if not np.all(residual == 0):
            nid = int(np.flatnonzero(residual)[0])
            raise EngineError(
                f"tagged count of node {nid} off its packets or rows by {int(residual[nid])}"
            )

    def drain(self, steps: int) -> int:
        """Serve the egress layer alone, for at most ``steps`` steps or until
        no tagged row is left; return the steps taken.

        Call only past the horizon with every tagged row at egress.  An
        egress FIFO then holds exactly its node's backlog, and inflow only
        queues behind it, so its departures are set by the service budgets
        alone: serving the frozen backlog pops exactly the packets a full
        step would, through the same :meth:`_depart`.  Only the service
        banks, the egress backlogs and the tagged masses advance: ``q``
        above egress, the arrivals, the mass and the served totals stay as
        they were, and the policy is not called.
        """
        egress = self.q[self.egress_lo :]
        n = 0
        while n < steps and self.fifo:  # every FIFO left is a tagged egress one
            cap_f = self.service_bank + self.service_budget
            cap = np.floor(cap_f + 1e-12).astype(np.int64)
            self.service_bank = cap_f - cap
            serve = np.minimum(egress, cap)
            egress -= serve
            self._depart(serve)
            n += 1
        return n

    # -- drivers -----------------------------------------------------------

    def run_horizon(self) -> int:
        for k in range(self._tag_steps):
            self.step(k)
        return self._tag_steps

    def trajectory(self) -> Trajectory:
        queues = self.history if self.keep_trajectory else [self.q.astype(float)]
        applied = np.asarray(self.applied, dtype=float).reshape(-1, self.net.num_links)
        return Trajectory(
            self.dt, np.asarray(queues), applied,
            self.link_flow.astype(float), self.served_total.astype(float),
        )

    def tagged_stats(self):
        """``(origin_sum, origin_count, window_stats)`` by Little's law."""
        sums = self.dt * self.class_steps.reshape(-1, self.n_origin)
        counts = self.born.reshape(-1, self.n_origin).astype(float)
        stats = {}
        if self.window is not None:
            for w, i in zip(*np.nonzero(counts)):
                stats[(int(i), int(w))] = [float(sums[w, i]), float(counts[w, i])]
        return sums.sum(axis=0), counts.sum(axis=0), stats


def tagged_run(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    policy,
    cfg: SimConfig,
    window: float | None = None,
    keep_trajectory: bool = False,
    max_extension_steps: int | None = None,
) -> TaggedRun:
    """Simulate with FIFO-tracked packet classes until every packet that
    arrived within ``[0, horizon)`` has departed, extending past the
    horizon by at most ``max_extension_steps`` steps.  The run ends when no
    ingress node holds a tagged packet and no FIFO row holds tagged mass,
    both exact integer counts (``_IntegerSim.held``).

    Arrivals continue during the extension (the overload persists; only the
    measured window is bounded).  From the first extension step with every
    tagged row at egress, the rest of the run only serves the egress
    layer (:meth:`_IntegerSim.drain`, counted in ``drain_steps``): no packet
    is tagged after the horizon and none moves backward, so the departures
    of the tagged packets follow from the egress service budgets alone.
    The policy is not called on those steps.  With ``keep_trajectory`` every
    step runs in full, so the trajectory shows the whole network.
    """
    sim = _IntegerSim(
        net, arr, svc, policy, cfg, track_packets=True, window=window,
        keep_trajectory=keep_trajectory,
    )
    k = sim.run_horizon()
    sim.check_classes()
    horizon_steps = k
    limit = max_extension_steps if max_extension_steps is not None else max(
        10_000, 100 * horizon_steps
    )
    drain_steps = 0
    while sim.held.any():
        if k - horizon_steps >= limit:
            mass = sim.tagged_mass()
            l, i = net.node_coords(int(np.argmax(mass)))
            raise EngineError(
                f"tagged mass {mass.sum():.3g} still in flight after {limit} "
                f"extension steps, {mass.max():.3g} of it on (layer {l + 1}, node {i + 1})"
            )
        if not keep_trajectory and not sim.held[: sim.egress_lo].any():
            sim.check_classes()
            drain_steps = sim.drain(horizon_steps + limit - k)
            k += drain_steps
            continue
        sim.step(k)
        k += 1
    sim.check_classes()
    origin_sum, origin_count, window_stats = sim.tagged_stats()
    return TaggedRun(
        cfg.horizon, sim.dt, origin_sum, origin_count,
        extension=(k - horizon_steps) * sim.dt,
        window_width=window,
        window_stats=window_stats,
        trajectory=sim.trajectory() if keep_trajectory else None,
        drain_steps=drain_steps,
    )
