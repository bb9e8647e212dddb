"""Row-FIFO reference for tagged runs, kept for the tests.

This is the per-step tagged bookkeeping that ``fluidq.discrete`` used
before its delays came from one pass over Newell's curves.  It steps the
same integer kernel one step at a time and carries the class masses along
with each transfer:

- An ingress node keeps position counters: it has taken in ``in_pos``
  packets and sent ``out_pos``, and class c arrived at the positions
  ``[cls_lo[c], cls_hi[c])`` of its origin.  A take is the overlap of the
  positions it sends with each class's interval.
- Past ingress, a node holding tagged mass keeps a FIFO of rows, one per
  step of inflow, each ``[packets, class masses]`` (the masses None in an
  untagged row).  A take of m packets from a row of n carries m/n of every
  class.
- A source's parcel goes to its out-links in proportion to their grants.
- ``left`` (born - departed) is summed over steps for Little's law.
- ``held`` counts the tagged packets at ingress and the tagged rows past
  it, and the run ends when it is all zero.  Once every tagged row is at
  egress, the run serves the egress layer alone (the drain).

:func:`tagged_run` returns the :class:`~fluidq.TaggedRun` of this rule, so
the tests compare it with :func:`fluidq.tagged_run`.
"""
import math
from collections import deque

import numpy as np

from fluidq import RateAssignment, StaticPolicy
from fluidq.discrete import TaggedRun, _IntegerSim
from fluidq.engine import EngineError, QueueState, _advance, _CapacityCheck


class FifoSim(_IntegerSim):
    """The integer kernel with the row-FIFO bookkeeping of every tagged
    packet class, stepped by :meth:`step`."""

    def __init__(self, net, arr, svc, policy, cfg, window=None):
        super().__init__(net, arr, svc, cfg)
        if isinstance(policy, RateAssignment):
            policy = StaticPolicy(policy)
        self.policy, self.window = policy, window
        self.n_origin = net.layer_sizes[0]
        self._tag_steps = int(math.ceil(cfg.horizon / self.dt - 1e-12))
        self._capacity = _CapacityCheck(net)
        self._slot = np.full(net.num_nodes, -1)  # node -> index in its layer's srcs
        for layer in net.plan:
            self._slot[layer.srcs] = np.arange(layer.srcs.size)
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
        self.left = np.zeros(self.n_class)
        self.class_steps = np.zeros(self.n_class)
        self.k = 0  # the step being taken

    def _window_of(self, k):
        return int(k * self.dt / self.window) if self.window is not None else 0

    # -- the kernel, with the tags carried along -------------------------------

    def arrive(self, born):
        self._tag_arrivals(self.k, born)
        super().arrive(born)

    def send(self, layer, want):
        before = self.link_flow[layer.links].copy()
        inflow = super().send(layer, want)
        if inflow is not None:
            grant = self.link_flow[layer.links] - before
            self._move_tagged(layer, grant, np.add.reduceat(grant, layer.starts), inflow)
        return inflow

    def step(self, k):
        """Step ``k``: the policy's rates, one engine step and the tagged
        departures at egress."""
        state = QueueState._trusted(self.q.astype(float), k * self.dt)
        rates = self._capacity(self.policy.rates(state, self.net, self.arr, self.svc, self.dt))
        self.budgets(rates)
        self.k = k
        serve = _advance(self)
        self._depart(serve)
        self.settle(k, serve, self.q)

    # -- tagged bookkeeping ----------------------------------------------------

    def _pop(self, nid, count):
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

    def _push(self, nid, mass, total):
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

    def _depart(self, serve):
        lo = self.egress_lo
        for nid in [n for n in self.fifo if n >= lo]:
            count = int(serve[nid - lo])
            if count:
                mass = self._pop(nid, count)
                if mass is not None:
                    self.left -= mass
        self.class_steps += self.left

    def _tag_arrivals(self, k, born):
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

    def _overlap(self, lo, hi):
        c_lo = self.cls_lo.reshape(-1, self.n_origin)
        c_hi = self.cls_hi.reshape(-1, self.n_origin)
        return np.maximum(np.minimum(hi, c_hi) - np.maximum(lo, c_lo), 0)

    def _move_tagged(self, layer, grant, moved, inflow):
        srcs, parcels = layer.srcs, None
        if layer.index == 0:
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

    def tagged_mass(self):
        """Tagged mass per node: at ingress the packets still queued there,
        past it the class masses of the node's rows."""
        mass = np.zeros(self.net.num_nodes)
        mass[: self.n_origin] = self._overlap(self.out_pos, self.in_pos).sum(axis=0)
        for nid, rows in self.fifo.items():
            mass[nid] = sum(float(m.sum()) for _, m in rows if m is not None)
        return mass

    def check_classes(self):
        """The ingress counters and every FIFO's row totals hold their
        node's backlog, ``held`` counts the tagged packets and rows, and
        per class the mass at ingress and in the FIFOs equals ``left``."""
        residual = self.in_pos - self.out_pos - self.q[: self.n_origin]
        assert not residual.any(), residual
        at_ingress = self._overlap(self.out_pos, self.in_pos)
        counted = np.zeros_like(self.held)
        counted[: self.n_origin] = at_ingress.sum(axis=0)
        mass = at_ingress.ravel().astype(float)
        for nid, rows in self.fifo.items():
            assert int(self.q[nid]) == sum(n for n, _ in rows), nid
            for _, m in rows:
                if m is not None:
                    mass += m
                    counted[nid] += 1
        assert np.all(np.abs(self.left - mass) <= 1e-9 * np.maximum(self.born, 1))
        assert np.array_equal(self.held, counted)

    def drain(self, steps):
        """Serve the egress layer alone, for at most ``steps`` steps or until
        no tagged row is left; return the steps taken."""
        n = 0
        while n < steps and self.fifo:  # every FIFO left is a tagged egress one
            serve = self.serve(self.draw(self.service))
            self._depart(serve)
            n += 1
        return n


def tagged_run(net, arr, svc, policy, cfg, window=None, max_extension_steps=None):
    """The row-FIFO tagged run: the horizon, full steps while tagged mass
    is above egress, then the egress drain."""
    sim = FifoSim(net, arr, svc, policy, cfg, window)
    horizon = sim._tag_steps
    for k in range(horizon):
        sim.step(k)
    sim.check_classes()
    k = horizon
    limit = max_extension_steps if max_extension_steps is not None else max(
        10_000, 100 * horizon
    )
    drain_steps = 0
    while sim.held.any():
        if k - horizon >= limit:
            mass = sim.tagged_mass()
            l, i = net.node_coords(int(np.argmax(mass)))
            raise EngineError(
                f"tagged mass {mass.sum():.3g} still in flight after {limit} "
                f"extension steps, {mass.max():.3g} of it on (layer {l + 1}, node {i + 1})"
            )
        if not sim.held[: sim.egress_lo].any():
            sim.check_classes()
            drain_steps = sim.drain(horizon + limit - k)
            k += drain_steps
            continue
        sim.step(k)
        k += 1
    sim.check_classes()
    sums = sim.dt * sim.class_steps.reshape(-1, sim.n_origin)
    counts = sim.born.reshape(-1, sim.n_origin).astype(float)
    stats = {}
    if window is not None:
        for w, i in zip(*np.nonzero(counts)):
            stats[(int(i), int(w))] = [float(sums[w, i]), float(counts[w, i])]
    return TaggedRun(
        cfg.horizon, sim.dt, sums.sum(axis=0), counts.sum(axis=0),
        extension=(k - horizon) * sim.dt, window_width=window, window_stats=stats,
        drain_steps=drain_steps,
    )
