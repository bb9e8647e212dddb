"""Integer-packet simulation, and packet delays from Newell's cumulative curves.

Packets are whole units.  Per-step transfer and service budgets are the
running floor of rate * dt: each link and each server banks only the
fractional remainder, so a backlogged link realizes its set rate exactly in
the long run while never bursting above it.  :class:`_IntegerSim` is the
integer kernel of :mod:`fluidq.engine`'s two schedules, with the fluid
kernel's interface: :meth:`~_IntegerSim.draw` banks a slice of one
vector of arrival, link and service budgets and returns their whole parts,
:meth:`~_IntegerSim.send` grants the links', and :meth:`~_IntegerSim.settle`
checks each step's exact mass balance against the births
:meth:`~_IntegerSim.arrive` kept for it and that no backlog is negative.
A source short of supply splits it across its out-links in proportion to
their budgets (:func:`_allocate_each`), with the plan's source slots as
segment ids and each link's offset from its source's first link as its
rank, so no segment is rebuilt per step.
An untagged run is :func:`fluidq.engine.run`.

A tagged run (:func:`tagged_run`) is that untagged run and one pass over
it.  Tags never feed back into ``q``, the grants or the service, so the
kernel runs the steps as :func:`fluidq.engine._run_steps` does (a static
policy along the diagonals), in chunks of at most ``_CHUNK`` steps, and
records the running link flow and served totals after each step.  These
give every node Newell's cumulative curves (G. F. Newell, *Applications of
Queueing Theory*, 1982): A(k), the packets it has taken in by the end of
step k (its initial backlog first), and D(k), those it has sent on or
served.  Step k's inflow fills the FIFO positions [A(k-1), A(k)), and
[D(k-1), D(k)) leave.

Packets are tracked as exchangeability classes: an origin, or a (window,
origin) pair when arrivals are grouped in windows.  Arrivals within the
horizon are tagged with their class; the initial backlog and later
arrivals carry none.  Each node's class content is a piecewise-linear
cumulative curve over its FIFO positions (:class:`_Curves`): one step's
inflow spreads its class masses evenly over its positions, so a take of m
of its n packets carries m/n of each class, the expected make-up of a
uniformly random m-subset.  Order within a step is averaged, not resolved,
and no origin loses every tie.  A source's take is the difference of its
curve between D(k-1) and D(k), and link j carries ``grant_j / moved`` of
it; a destination's step inflow is the sum of its links' parts.  The pass
works one layer at a time over a whole chunk, and each node carries only
the rows of its curve not yet departed into the next chunk (untagged ones
merged), so memory does not grow with the run's length and the outputs
are the same to the bit whatever the chunk length.

A class's summed sojourn is dt times the sum over steps of its mass in the
system, its births so far less the egress curves at D (Little's law,
L = lambda W).  A second, integer curve counts each node's tagged
positions, those of a step whose inflow carried tagged mass.  The run ends
when, at every node, D has reached the end of its last tagged inflow: an
integer test, never a float threshold.  No packet is tagged after the
horizon, and once nothing tagged is left above egress the rest of the run
depends on the egress service alone: each egress node's tagged positions
leave ahead of any later inflow.  The extension then runs only the
recurrence of :meth:`_IntegerSim.draw` on the banks' service slice, per
egress node on scalar floats with the same operations in the same order,
so its caps are bit-identical; the policy, the arrivals and the transfers
are skipped.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import EngineError, Trajectory, _CapacityCheck, _Kernel, _run_steps
from .network import ArrivalProfile, LayeredNetwork, LayerPlan, ServiceProfile, SimConfig

#: steps per chunk of a tagged run, and per block of its egress extension
_CHUNK = 64


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
    #: extension steps that ran only the egress service recurrence
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


def _allocate_each(amounts, totals, weights, seg, pos) -> np.ndarray:
    """Integer split of ``totals[s]`` over the entries with segment id
    ``s``, in proportion to their ``amounts`` and each capped by it:
    largest remainder, ties by position.  ``seg`` is ascending, and
    ``weights[s] > 0`` is the sum of ``amounts`` over segment ``s``.  Ids
    need not be dense: :meth:`_IntegerSim.send` passes its plan's source
    slots (:attr:`~fluidq.network.LayerPlan.src_of`), with ``totals`` and
    ``weights`` for every source, and ``pos``, each entry's position in its
    segment (its offset from its source's first link).  The remainders are
    ranked only when some segment has one to hand out."""
    exact = amounts * (totals[seg] / weights[seg])
    base = np.floor(exact).astype(np.int64)
    rest = (totals - np.bincount(seg, weights=base, minlength=totals.size))[seg]
    if (rest > 0).any():
        order = np.lexsort((base - exact, seg))
        base[order[pos < rest]] += 1
    return np.minimum(base, amounts)


class _IntegerSim(_Kernel):
    """The integer kernel of one run, with integral backlogs, link flow and
    service.  Its banks are one vector laid out as its budgets."""

    def __init__(self, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile,
                 cfg: SimConfig):
        if np.any(arr.rates < 0) or np.any(svc.rates < 0) or np.any(net.capacities < 0):
            raise ValueError(
                "integer mode requires nonnegative arrival rates, service rates "
                "and capacities"
            )
        # integral even when tagged_run is handed a fluid-mode cfg
        q = replace(cfg, discretize=True).initial_backlog(net).astype(np.int64)
        super().__init__(net, arr, svc, cfg.resolved_dt(), q)
        self.bank = np.zeros_like(self.budget)
        self.mass = int(self.q.sum())
        self._births: deque[int] = deque()  # per step arrived, until settled

    def draw(self, part: slice) -> np.ndarray:
        """Bank the budgets of ``part`` of the bank vector and return their
        whole parts, which leave the banks: one step's packets."""
        bank = self.bank[part]
        bank += self.budget[part]
        whole = np.floor(bank + 1e-12)
        bank -= whole
        return whole.astype(np.int64)

    def arrive(self, born: np.ndarray) -> None:
        super().arrive(born)
        self._births.append(int(np.add.reduce(born)))

    def send(self, layer: LayerPlan, want: np.ndarray):
        """Grant the link budgets ``want`` of a layer, or of a run of layers
        taken together, against their sources' backlogs and take the
        packets off the sources; return the inflow per destination, for
        :meth:`land`, or None when no link has a budget."""
        if not np.logical_or.reduce(want):
            return None
        supply = self.q[layer.srcs]
        total_want = np.add.reduceat(want, layer.starts)
        short = total_want > supply
        grant, moved = want, total_want
        if np.logical_or.reduce(short):
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
        self.q[layer.srcs] -= moved
        self.link_flow[layer.links] += grant
        return inflow

    def land(self, layer: LayerPlan, inflow) -> None:
        if inflow is not None:
            self.q[layer.next_lo : layer.next_lo + layer.next_width] += inflow

    def settle(self, k: int, served: np.ndarray, row: np.ndarray) -> None:
        """Mass balance and sign check of the backlogs ``row`` at the end
        of step ``k``, which took in the births :meth:`arrive` kept for it
        and served ``served``; count the service."""
        self.mass += self._births.popleft() - int(np.add.reduce(served))
        residual = self.mass - int(np.add.reduce(row))
        if not residual == 0:
            raise EngineError(f"mass balance violated at step {k}: residual {residual}")
        if np.minimum.reduce(row) < 0:
            nid = int(np.argmin(row))
            l, i = self.net.node_coords(nid)
            raise EngineError(
                f"negative backlog {int(row[nid])} at step {k} on "
                f"(layer {l + 1}, node {i + 1})"
            )
        self.served_total += served


#: key offset between nodes in a :class:`_Curves` table; positions stay below it
_SPAN = 2.0**40


class _Curves:
    """Newell's cumulative curves of one layer's FIFOs past ingress.
    ``table[w]`` holds node w's rows in position order, one per step of
    inflow and one at its end, each as its key (``w * _SPAN`` plus its first
    position), its mass per position and the node's masses below it, per
    class and, in the last column, per tagged position (1 per position of
    a step whose inflow carried tagged mass: an exact integer curve).  A
    step without inflow leaves an empty row, hidden by the next at its key.
    :meth:`at` drops the rows behind D now and then, and keeps runs of
    untagged, flat, rows as their first, padding the front of shorter nodes
    with lower keys.  ``end`` and ``end_mass`` are each node's totals,
    ``done`` its departures D and ``gone`` its curves at D."""

    def __init__(self, q0: np.ndarray, width: int):
        w = q0.size
        self.width, self.base = width, np.arange(w) * _SPAN
        self.end, self.done = q0.copy(), np.zeros(w, np.int64)
        self.end_mass, self.gone = np.zeros((2, w, width))
        self.table = np.zeros((w, 1, 1 + 2 * width))  # the initial backlog is untagged
        self.table[:, 0, 0] = self.base
        self.room = 64  # the table width that makes :meth:`at` compact it

    def extend(self, inc: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """Append a chunk's inflow: per step and node the packet counts
        ``inc`` and masses ``mass``.  Returns each node's tagged positions
        after each step."""
        steps, width = inc.shape[0], self.width
        ends = self.end + np.cumsum(inc, axis=0)
        block = np.empty((steps + 1,) + self.end_mass.shape[:1] + (1 + 2 * width,))
        block[0, :, 0] = self.base + self.end  # each row starts where the last ended
        block[1:, :, 0] = self.base + ends
        np.divide(mass, np.maximum(inc, 1)[..., None], out=block[:-1, :, 1 : 1 + width])
        block[-1, :, 1 : 1 + width] = 0.0
        below = block[:, :, 1 + width :]
        np.cumsum(np.concatenate((self.end_mass[None], mass)), axis=0, out=below)
        self.end, self.end_mass = ends[-1], below[-1].copy()
        self.table = np.concatenate((self.table, block.swapaxes(0, 1)), axis=1)
        return below[1:, :, -1]

    def at(self, D: np.ndarray) -> np.ndarray:
        """Advance the departures along ``D`` (step x node); return the
        curves at D."""
        flat = self.table.reshape(-1, self.table.shape[2])
        key = self.base + D
        idx = np.searchsorted(flat[:, 0], key, side="right") - 1
        row = flat[idx]
        val = row[..., 1 + self.width :]  # the curves at each row's start, plus its slope
        val += (key - row[..., 0])[..., None] * row[..., 1 : 1 + self.width]
        self.done, self.gone = D[-1], val[-1]
        if self.table.shape[1] > self.room:
            self._compact(idx[-1])
        return val

    def _compact(self, first: np.ndarray) -> None:
        """Drop the rows before each node's row ``first`` (a flat index),
        the one holding D, and keep each run of untagged rows as its
        first."""
        table, width = self.table, self.width
        w, r = table.shape[:2]
        flat = table[..., width] == 0  # untagged, so flat
        keep = np.arange(r) >= (first - np.arange(w) * r)[:, None]
        keep[:, 1:] &= ~(flat[:, 1:] & flat[:, :-1] & keep[:, :-1])
        counts = keep.sum(axis=1)
        room = int(counts.max())
        new = np.zeros((w, room, table.shape[2]))
        new[:, :, 0] = (self.base - 1.0)[:, None]  # padding, below every row's key
        rank = np.cumsum(keep, axis=1) - 1 + (room - counts)[:, None]
        new[np.nonzero(keep)[0], rank[keep]] = table[keep]
        self.table, self.room = new, 2 * room + 64

    def last_tagged(self) -> np.ndarray:
        """Per node, the end of its last tagged row (0 without one)."""
        tagged = self.table[:, :-1, self.width] > 0
        ends = self.table[:, 1:, 0] - self.base[:, None]
        return np.where(tagged, ends, 0).max(axis=1, initial=0).astype(np.int64)


class _Tags:
    """The tag pass of one run.  An ingress node queues its untagged
    backlog, one run per class of its origin, then untagged arrivals, so
    its curves are its classes' position intervals ``[lo, hi)`` (origin x
    window), and its takes exact integer counts; past ingress, each layer
    keeps :class:`_Curves`."""

    def __init__(self, net: LayeredNetwork, q0: np.ndarray, dt: float, steps: int,
                 window: float | None):
        self.net, self.dt, self.steps, self.window = net, dt, steps, window
        self.n_origin = n0 = net.layer_sizes[0]
        windows = 1 if window is None else int((steps - 1) * dt / window) + 1
        self.n_class = windows * n0
        self.lo, self.hi = np.zeros((2, n0, windows), np.int64)
        self.seen = np.zeros(windows, bool)
        self.taken = np.zeros((n0, windows), np.int64)  # ingress curves at D
        bounds = [net.node_id(l, 0) for l in range(net.num_layers)] + [net.num_nodes]
        self.layers = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.links = net.plan_of(0, net.num_layers - 2)  # every link, a run per source
        self.by_dst = np.argsort(net.link_dst, kind="stable")  # links by destination
        self.dsts, self.dst_starts = np.unique(net.link_dst[self.by_dst], return_index=True)
        self.curves = [_Curves(q0[nodes], self.n_class + 1) for nodes in self.layers[1:]]
        self.q0 = q0
        self.class_steps = np.zeros(self.n_class)

    def _classes(self, counts: np.ndarray) -> np.ndarray:
        """Per class, from (... x origin x window) to (... x class)."""
        return np.swapaxes(counts, -1, -2).reshape(counts.shape[:-2] + (self.n_class,))

    def _arrive(self, A: np.ndarray, start: int) -> None:
        """Extend the class intervals by the arrivals within the horizon of
        the steps from ``start`` (ingress inflow ``A``, step x origin)."""
        if start >= self.steps:
            return
        k = np.arange(start, min(start + A.shape[0] - 1, self.steps))
        w = (k * self.dt / self.window).astype(np.int64) if self.window else 0 * k
        cut = np.flatnonzero(w[1:] != w[:-1]) + 1  # windows only grow with the step
        first, last = np.concatenate(([0], cut)), np.concatenate((cut, [k.size]))
        ws = w[first]
        fresh = ~self.seen[ws]
        self.lo[:, ws[fresh]] = A[first[fresh]].T
        self.hi[:, ws] = A[last].T
        self.seen[ws] = True

    def consume(self, rows: np.ndarray, flows: np.ndarray, start: int):
        """Carry the class masses along the chunk of steps from ``start``
        whose backlogs, running link flow and served totals are ``rows`` and
        ``flows`` (before the chunk and after each step).  Returns per step
        each node's pending positions (at ingress up to its last tagged one,
        past it the tagged ones) and the summed class mass in the system."""
        net, n0, C = self.net, self.n_origin, self.n_class
        F = flows[:, : net.num_links]
        D = np.zeros_like(rows)  # departures per node
        D[:, self.links.srcs] = np.add.reduceat(F, self.links.starts, axis=1)
        D[:, self.layers[-1]] = flows[:, net.num_links :]
        A = np.zeros_like(rows)  # inflow per node, the initial backlog first
        A[:, self.dsts] = np.add.reduceat(F[:, self.by_dst], self.dst_starts, axis=1)
        A += self.q0
        A[:, :n0] = rows[:, :n0] + D[:, :n0]
        self._arrive(A[:, :n0], start)
        size = self.hi - self.lo
        steps = rows.shape[0] - 1
        inc = A[1:] - A[:-1]
        ratio = (F[1:] - F[:-1]) / np.maximum((D[1:] - D[:-1])[:, net.link_src], 1)
        taken = np.minimum(np.maximum(D[1:, :n0, None] - self.lo, 0), size)
        takes = taken - np.concatenate((self.taken[None], taken[:-1]))
        self.taken = taken[-1]
        born = self._classes(np.minimum(np.maximum(A[1:, :n0, None] - self.lo, 0), size))
        last = self.hi.max(axis=1, where=size > 0, initial=0)
        pending = [np.maximum(last - D[1:, :n0], 0)]
        for l, plan in enumerate(net.plan):
            nodes, curves = self.layers[l + 1], self.curves[l]
            mass = np.zeros((steps, plan.next_width, C + 1))
            part = takes[:, plan.src_local] * ratio[:, plan.links, None]
            if l == 0:
                # an origin's classes are its own columns, so the
                # (destination, class) pairs of the links are distinct
                cols = np.arange(part.shape[2]) * n0 + plan.src_local[:, None]
                mass[:, plan.dst_local[:, None], cols] = part
                tagged = mass.any(axis=2)
            else:
                np.add.at(mass.swapaxes(0, 1), plan.dst_local, part.swapaxes(0, 1))
                tagged = mass[..., C] > 0
            np.copyto(mass[..., C], inc[:, nodes], where=tagged)
            tags = curves.extend(inc[:, nodes], mass)
            gone = curves.gone
            val = curves.at(D[1:, nodes])
            takes = val - np.concatenate((gone[None], val[:-1]))
            if not takes.min() >= 0:  # NaN fails
                k, i, c = (int(x[0]) for x in np.nonzero(~(takes >= 0)))
                raise EngineError(f"outflow {takes[k, i, c]:.3g} of column {c} from "
                                  f"(layer {l + 2}, node {i + 1}) at step {start + k}")
            pending.append(tags - val[..., C])
        ends = np.concatenate([c.end for c in self.curves])
        if not ends.max(initial=0) < _SPAN:
            raise EngineError("more than 2**40 packets through one node")
        residual = ends - D[-1, n0:] - rows[-1, n0:]
        if residual.any():
            i = int(np.flatnonzero(residual)[0])
            l, j = net.node_coords(n0 + i)
            raise EngineError(f"curves of (layer {l + 1}, node {j + 1}) off its backlog "
                              f"by {int(residual[i])}")
        self.rate = (D[-1] - D[0]) / steps  # each node's departures per step
        return np.concatenate(pending, axis=1), self._count(born, val)

    def _count(self, born: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Little's law: the summed class mass in the system after each step,
        added in step order, from the births so far ``born`` (step x class)
        and the egress curves ``val`` (step x node x column) at D."""
        left = born - np.cumsum(val[..., : self.n_class], axis=1)[:, -1]
        steps = np.cumsum(np.concatenate((self.class_steps[None], left)), axis=0)[1:]
        self.class_steps = steps[-1]
        return steps

    def held(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The tagged mass not yet departed: per layer per node, and in
        total per class."""
        at_ingress = self.hi - self.lo - self.taken
        past = [(c.end_mass - c.gone)[:, : self.n_class] for c in self.curves]
        return [at_ingress.sum(axis=1)] + [h.sum(axis=1) for h in past], self._classes(
            at_ingress) + sum(h.sum(axis=0) for h in past)

    def check(self) -> None:
        """Per class, the born count equals the mass departed plus the mass
        in the system within 1e-9 of the born count (or of 1 when fewer
        were born); a NaN fails."""
        born = self._classes(self.hi - self.lo)
        residual = born - self.curves[-1].gone[:, : self.n_class].sum(axis=0) - self.held()[1]
        off = ~(np.abs(residual) <= 1e-9 * np.maximum(born, 1))
        if off.any():
            c = int(np.argmax(off))
            raise EngineError(f"tagged balance violated for class {c}: residual {residual[c]:.3g}")

    def drain(self, sim: _IntegerSim, steps: int) -> tuple[int, bool]:
        """Serve the egress layer alone for at most ``steps`` steps, until its
        tagged positions have left; return the steps and whether they have.
        Past the horizon with nothing tagged above egress, each egress node
        departs ahead of any later inflow, by its service bank recurrence
        alone, run per node on scalar floats with the operations of
        :meth:`_IntegerSim.draw` on its service slice; the kernel is untouched."""
        egress, lo = self.curves[-1], sim.egress_lo
        target = egress.last_tagged()
        bank, budget = sim.bank[sim.service], sim.budget[sim.service]
        state = {
            int(n): [float(bank[n]), float(budget[n]),
                     int(sim.q[lo + n]), int(egress.done[n]), int(target[n])]
            for n in np.flatnonzero(target > egress.done)
        }
        born = self._classes(self.hi - self.lo)
        taken = 0
        while state and taken < steps:
            size = min(_CHUNK, steps - taken)
            D = np.repeat(egress.done[None], size, axis=0)
            block = 0
            for n, (bank, budget, backlog, done, end) in list(state.items()):
                seq = []
                for _ in range(size):
                    if done >= end:
                        break
                    cap_f = bank + budget
                    cap = math.floor(cap_f + 1e-12)
                    bank = cap_f - cap
                    served = backlog if backlog < cap else cap
                    backlog -= served
                    done += served
                    seq.append(done)
                D[: len(seq), n] = seq
                D[len(seq) :, n] = done
                block = max(block, len(seq))
                state[n] = [bank, budget, backlog, done, end]
                if done >= end:
                    del state[n]
            self._count(born, egress.at(D[:block]))
            taken += block
        return taken, not state

    def in_flight(self, limit: int) -> EngineError:
        mass = np.concatenate(self.held()[0])
        l, i = self.net.node_coords(int(np.argmax(mass)))
        return EngineError(
            f"tagged mass {mass.sum():.3g} still in flight after {limit} "
            f"extension steps, {mass.max():.3g} of it on (layer {l + 1}, node {i + 1})"
        )

    def stats(self):
        """``(origin_sum, origin_count, window_stats)`` by Little's law."""
        sums = self.dt * self.class_steps.reshape(-1, self.n_origin)
        counts = (self.hi - self.lo).T.astype(float)
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
    """Simulate with tagged packet classes until every packet that arrived
    within ``[0, horizon)`` has departed, extending past the horizon by at
    most ``max_extension_steps`` steps.  The run ends at the first step
    boundary past the horizon where every node's departures have reached
    the end of its last tagged inflow, an exact integer test.

    Arrivals continue during the extension (the overload persists; only the
    measured window is bounded).  From the first extension step with
    nothing tagged above egress, the run only serves the egress layer
    (``drain_steps``): the tagged packets' departures follow from the
    egress service alone, and the policy is not called.  With
    ``keep_trajectory`` every step runs in full.

    Past the horizon the kernel runs ahead in chunks sized to the pending
    positions at the pace of the last chunk, and of at least 4, 8, 16, ...
    steps.  Steps past the end or the switch to egress-only service only
    cost time: until the last tagged packet leaves, a full step departs
    at egress as the egress-only recurrence does.  The trajectory is cut
    at the end.
    """
    sim = _IntegerSim(net, arr, svc, cfg)
    dt = sim.dt
    steps = cfg.num_steps()
    limit = max_extension_steps if max_extension_steps is not None else max(10_000, 100 * steps)
    tags = _Tags(net, sim.q.copy(), dt, steps, window)
    watch = net.num_nodes if keep_trajectory else sim.egress_lo
    checked, kept = _CapacityCheck(net), [(sim.q[None].copy(), np.empty((0, net.num_links)))]
    k, grow, switch, end = 0, 4, None, None
    pending = np.zeros(net.num_nodes)
    while end is None:
        if k < steps:
            size = steps - k
        else:
            if k - steps >= limit:
                raise tags.in_flight(limit)
            rate = tags.rate[:watch]
            ahead = math.ceil((pending[:watch] / np.where(rate >= 1, rate, np.inf)).max(initial=0))
            size = max(ahead + net.num_layers - 1 if ahead else 0, grow)
            grow *= 2
        size = min(_CHUNK, steps + limit - k, size)
        rows = np.empty((size + 1, net.num_nodes), dtype=np.int64)
        flows = np.empty((size + 1, net.num_links + sim.served_total.size), dtype=np.int64)
        rows[0], flows[0] = sim.q, np.concatenate([sim.link_flow, sim.served_total])
        applied = _run_steps(sim, policy, checked, rows, flows, start=k)
        per_step, class_steps = tags.consume(rows, flows, k)
        late = np.arange(k + 1, k + size + 1) >= steps
        if switch is None and not keep_trajectory:
            quiet = late & ~per_step[:, :watch].any(axis=1)
            if quiet.any():
                switch = k + 1 + int(np.argmax(quiet))
        quiet = late & ~per_step.any(axis=1)
        if quiet.any():
            t = int(np.argmax(quiet))
            end, tags.class_steps = k + 1 + t, class_steps[t]
            rows, applied, flows = rows[: t + 2], applied[: t + 1], flows[: t + 2]
        else:
            k, pending = k + size, per_step[-1]
        if keep_trajectory:
            kept.append((rows[1:], applied))
        if end is None and switch is not None:
            taken, done = tags.drain(sim, steps + limit - k)
            if not done:
                raise tags.in_flight(limit)
            end = k + taken
    tags.check()
    origin_sum, origin_count, window_stats = tags.stats()
    trajectory = None
    if keep_trajectory:
        queues, rates = (np.concatenate(part) for part in zip(*kept))
        flow, served = np.split(flows[-1].astype(float), [net.num_links])
        trajectory = Trajectory(dt, queues.astype(float), rates, flow, served)
    return TaggedRun(
        cfg.horizon, dt, origin_sum, origin_count, extension=(end - steps) * dt,
        window_width=window, window_stats=window_stats, trajectory=trajectory,
        drain_steps=0 if switch is None else end - switch,
    )
