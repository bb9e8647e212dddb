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
head would give.  Past the ingress layer, a node holding tagged packets
keeps a FIFO of rows, one per step in which packets entered it, each a
count per class plus an untagged column; a node without tagged packets
keeps no rows.  Ties inside a row, and in a parcel leaving a node over
several links, are resolved by deterministic proportional splitting,
which is one valid FIFO execution.  No packet carries a timestamp: a
class's summed sojourn is dt times the sum over steps of its packets in
the system (Little's law, L = lambda W).

Past the horizon no packet is tagged, so once every tagged packet is at
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


def _take(row: np.ndarray, count: int, total: int | None = None) -> np.ndarray:
    """Remove ``count`` packets from ``row`` in proportion to its entries
    (a deterministic resolution of FIFO ties) and return them.  ``total``
    is ``row.sum()`` when the caller has it.

    The split is the largest-remainder one, ties by position, capped by
    the entries.  Past 2**53 packets the float products lose whole units:
    where the caps bind, the shortfall is topped up from the entries with
    the most room left, and where the floors round up past ``count``, the
    excess comes off the largest takes."""
    if total is None:
        total = int(row.sum())
    if count >= total:
        take = row.copy()
        row[:] = 0
        return take
    exact = row * (float(count) / float(total))  # numpy's int64 division, at any size
    take = exact.astype(np.int64)  # floor: every entry is nonnegative
    rest = count - int(take.sum())
    if rest > 0:
        order = np.argsort(take - exact, kind="stable")
        take[order[:rest]] += 1
    np.minimum(take, row, out=take)
    short = count - int(take.sum())
    if short > 0:  # caps bind only where products lose whole units (beyond 2**53)
        room = row - take
        order = np.argsort(-room, kind="stable")
        before = np.cumsum(room[order]) - room[order]
        take[order] += np.clip(short - before, 0, room[order])
    elif short < 0:
        order = np.argsort(-take, kind="stable")
        before = np.cumsum(take[order]) - take[order]
        take[order] -= np.clip(-short - before, 0, take[order])
    row -= take
    return take


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
        if not np.allclose(q0, np.round(q0)):
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
        # at index window * n_origin + origin; FIFO rows carry one more
        # column for untagged packets.  ``fifo`` maps each node past the
        # ingress layer holding tagged packets to its rows, and ``held``
        # counts tagged packets per node.  Ingress FIFOs are position
        # counters instead of rows: node i has taken in ``in_pos[i]``
        # packets and sent ``out_pos[i]``, and class c arrived at positions
        # ``[cls_lo[c], cls_hi[c])`` of its origin.
        n_windows = 1
        if window is not None:
            n_windows = self._window_of(self._tag_steps - 1) + 1
        self.n_class = n_windows * self.n_origin
        self.fifo: dict[int, deque[np.ndarray]] = {}
        self.held = np.zeros(net.num_nodes, dtype=np.int64)
        self.in_pos = self.q[: self.n_origin].copy()
        self.out_pos = np.zeros(self.n_origin, dtype=np.int64)
        self.cls_lo = np.zeros(self.n_class, dtype=np.int64)
        self.cls_hi = np.zeros(self.n_class, dtype=np.int64)
        self.born = np.zeros(self.n_class, dtype=np.int64)
        self.departed = np.zeros(self.n_class, dtype=np.int64)
        self.class_steps = np.zeros(self.n_class, dtype=np.int64)
        #: tagged packets not yet departed, ``born.sum() - departed.sum()``
        self.outstanding = 0

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
            for nid in [n for n in self.fifo if n >= self.egress_lo]:
                count = int(serve[nid - self.egress_lo])
                if count:
                    self.departed += self._depart(nid, count)
            self.class_steps += self.born - self.departed
        self.settle(k, serve, self.q)
        if self.keep_trajectory:
            self.applied.append(rates.values)
            self.history.append(self.q.astype(float))

    # -- tagged bookkeeping --------------------------------------------------

    def _pop(self, nid: int, count: int) -> np.ndarray:
        """Take ``count`` packets off the head of a node's FIFO."""
        rows = self.fifo[nid]
        parcel = None
        left = count
        while left > 0:
            row = rows[0]
            n = int(row.sum())
            if n <= left:
                rows.popleft()
            else:
                row, n = _take(row, left, n), left
            parcel = row if parcel is None else parcel + row
            left -= n
        tagged = count - int(parcel[-1])
        if tagged:
            self.held[nid] -= tagged
            if not self.held[nid]:
                del self.fifo[nid]  # what is left is untagged
        return parcel

    def _depart(self, nid: int, count: int) -> np.ndarray:
        """Serve ``count`` packets off an egress FIFO; return its tagged
        departures per class."""
        parcel = self._pop(nid, count)
        self.outstanding -= count - int(parcel[-1])
        return parcel[:-1]

    def _push(self, nid: int, tagged: np.ndarray | None, total: int) -> None:
        """Append one step's inflow to a node's FIFO.  Inflow that brings a
        node its first tagged packets opens the FIFO with one untagged row
        for the backlog already there, so call before ``q`` counts it."""
        row = np.zeros(self.n_class + 1, dtype=np.int64)
        if tagged is not None:
            row[:-1] = tagged
        n_tagged = int(row.sum())
        row[-1] = total - n_tagged
        if nid not in self.fifo:
            if not n_tagged:
                return
            self.fifo[nid] = deque()
            if self.q[nid]:
                self.fifo[nid].append(np.zeros_like(row))
                self.fifo[nid][0][-1] = self.q[nid]
        self.fifo[nid].append(row)
        self.held[nid] += n_tagged

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
            self.held[: self.n_origin] += born
            self.outstanding += int(born.sum())
        self.in_pos += born

    def _overlap(self, lo, hi) -> np.ndarray:
        """Tagged packets per (window, origin) among the ingress positions
        ``[lo, hi)`` of each origin (``lo``/``hi`` are per origin)."""
        c_lo = self.cls_lo.reshape(-1, self.n_origin)
        c_hi = self.cls_hi.reshape(-1, self.n_origin)
        return np.maximum(np.minimum(hi, c_hi) - np.maximum(lo, c_lo), 0)

    def _hand_off_ingress(self, layer: LayerPlan, grant, moved, incoming) -> None:
        """Carry the tagged packets of the ingress layer's transfers into
        ``incoming``.  The moved packets are the positions [out_pos, out_pos
        + moved), and each class's share is its overlap with them.  A source
        whose parcel holds one class, or that has one out-link, hands each
        link its class shares times grant / moved exactly, so those sources
        move in one fancy-indexed add (their (destination, class) pairs are
        distinct); the other sources split their parcels link by link."""
        srcs = layer.srcs
        head = self.out_pos.copy()
        self.out_pos[srcs] += moved
        if not self.held[: self.n_origin].any():
            return  # only untagged packets are left at ingress
        tagged = self._overlap(head, self.out_pos)[:, srcs]  # window x source
        n_tagged = tagged.sum(axis=0)
        self.held[srcs] -= n_tagged
        carried = n_tagged > 0
        classes = np.count_nonzero(tagged, axis=0) + (moved > n_tagged)
        whole = carried & ((classes == 1) | layer.single[layer.starts])
        links = np.flatnonzero(whole[layer.src_of])
        if links.size:
            of = layer.src_of[links]
            cols = np.arange(tagged.shape[0])[:, None] * self.n_origin + srcs[of]
            incoming[layer.dst_local[links], cols] += tagged[:, of] * grant[links] // moved[of]
        for s in np.flatnonzero(carried & ~whole):
            parcel = np.zeros(self.n_class + 1, dtype=np.int64)
            parcel[srcs[s] : self.n_class : self.n_origin] = tagged[:, s]
            parcel[-1] = moved[s] - n_tagged[s]
            self._split(layer, s, parcel, int(moved[s]), grant, incoming)

    def _split(self, layer: LayerPlan, s: int, parcel, total: int, grant, incoming) -> None:
        """Split one source's parcel of ``total`` packets across its
        out-links in grant order."""
        links = slice(layer.starts[s], layer.ends[s])
        filled = np.flatnonzero(parcel)
        if filled.size == 1:  # one class: every grant is all of it
            if filled[0] < self.n_class:
                incoming[layer.dst_local[links], filled[0]] += grant[links]
            return
        for pos in range(links.start, links.stop):
            count = int(grant[pos])
            if count:
                incoming[layer.dst_local[pos]] += _take(parcel, count, total)[:-1]
                total -= count

    def _move_tagged(self, layer: LayerPlan, grant, moved, inflow) -> None:
        """Carry the tagged classes of one layer's transfers along, taking
        each source's moved packets off the head of its FIFO (rows, or at
        ingress the position counters); the untagged remainder of every
        destination's inflow follows from the totals."""
        incoming = np.zeros((layer.next_width, self.n_class), dtype=np.int64)
        if layer.index == 0:
            self._hand_off_ingress(layer, grant, moved, incoming)
        else:
            for nid in [n for n in self.fifo if layer.lo <= n < layer.next_lo]:
                s = self._slot[nid]
                if s >= 0 and moved[s]:
                    total = int(moved[s])
                    self._split(layer, s, self._pop(nid, total), total, grant, incoming)
        lo = layer.next_lo
        for dst in np.flatnonzero(incoming.any(axis=1)):
            self._push(lo + int(dst), incoming[dst], int(inflow[dst]))
        for nid in [n for n in self.fifo if lo <= n < lo + layer.next_width]:
            if inflow[nid - lo] and not incoming[nid - lo].any():
                self._push(nid, None, int(inflow[nid - lo]))

    def check_classes(self) -> None:
        """Exact tagged balance: per class, born = departed + at ingress +
        in the FIFOs; the running ``outstanding`` count is born - departed,
        and the per-node tagged counts (``held``) sum to it; and the
        ingress counters and every FIFO hold exactly their node's backlog."""
        residual = self.in_pos - self.out_pos - self.q[: self.n_origin]
        if not np.all(residual == 0):
            i = int(np.flatnonzero(residual)[0])
            raise EngineError(
                f"ingress node {i} counters off its backlog by {int(residual[i])}"
            )
        at_ingress = self._overlap(self.out_pos, self.in_pos).ravel()
        in_fifo = at_ingress.copy()
        for nid, rows in self.fifo.items():
            held = sum(rows, np.zeros(self.n_class + 1, dtype=np.int64))
            in_fifo += held[:-1]
            residual = int(self.q[nid]) - int(held.sum())
            if not residual == 0:
                raise EngineError(f"FIFO of node {nid} off its backlog by {residual}")
        residual = self.born - self.departed - in_fifo
        if not np.all(residual == 0):
            c = int(np.flatnonzero(residual)[0])
            raise EngineError(
                f"tagged balance violated for class {c}: residual {int(residual[c])}"
            )
        residual = self.outstanding - int(self.born.sum() - self.departed.sum())
        if not residual == 0:
            raise EngineError(f"running outstanding count off born - departed by {residual}")
        residual = self.outstanding - int(self.held.sum())
        if not residual == 0:
            raise EngineError(f"tagged packets held off outstanding by {residual}")

    def drain(self, steps: int) -> int:
        """Serve the egress layer alone, for at most ``steps`` steps or until
        no tagged packet is left; return the steps taken.

        Call only past the horizon with every tagged packet at egress.  An
        egress FIFO then holds exactly its node's backlog, and inflow only
        queues behind it, so its departures are set by the service budgets
        alone: serving the frozen backlog pops exactly the packets a full
        step would.  Only the service banks, the egress backlogs and the
        tagged counts advance: ``q`` above egress, the arrivals, the mass
        and the served totals stay as they were, and the policy is not
        called.
        """
        lo = self.egress_lo
        egress = self.q[lo:]
        left = self.born - self.departed  # per class, not yet departed
        n = 0
        while n < steps and self.outstanding:
            cap_f = self.service_bank + self.service_budget
            cap = np.floor(cap_f + 1e-12).astype(np.int64)
            self.service_bank = cap_f - cap
            serve = np.minimum(egress, cap)
            egress -= serve
            for nid in list(self.fifo):
                count = int(serve[nid - lo])
                if count:
                    left -= self._depart(nid, count)
            self.class_steps += left
            n += 1
        self.departed = self.born - left
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
        counts = self.departed.reshape(-1, self.n_origin).astype(float)
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
    horizon by at most ``max_extension_steps`` steps.

    Arrivals continue during the extension (the overload persists; only the
    measured window is bounded).  From the first extension step with every
    tagged packet at egress, the rest of the run only serves the egress
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
    while sim.outstanding > 0:
        if k - horizon_steps >= limit:
            raise EngineError(
                f"{sim.outstanding} tagged packets still in flight after "
                f"{limit} extension steps"
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
