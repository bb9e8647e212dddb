"""Layered network topologies, traffic profiles, and their on-disk format.

A layered network is a DAG whose nodes are arranged in L >= 2 layers; links
only join adjacent layers.  Packets enter at layer 1, traverse one node per
layer, and depart at layer L.  Everything downstream (the fluid engine,
policies, the optimizer, the benchmark harness) consumes the types defined
here.

Indexing convention: node and layer indices are 0-based in code and 1-based
in topology documents, and messages name a link in the document form
``l:i:j`` (:func:`key_name`).  The network is held as arrays, once: per
link its source and destination node ids and its capacity, per node its
degrees, and per link layer l its :class:`LayerPlan` ``plan[l]``
(:attr:`LayeredNetwork.plan`).  The builders pass link arrays in; the
:class:`Link` tuple :attr:`LayeredNetwork.links` is a view of them built on
first read.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

#: Sentinel for a link without a capacity limit.  Kept structural (checked
#: as ``== UNBOUNDED``, so +inf only) so that unlimited and limited capacity
#: never blur; a -inf capacity is a nonpositive one, which validation rejects.
UNBOUNDED = math.inf


class NetworkFormatError(ValueError):
    """A topology document could not be parsed or is missing fields."""


class ValidationError(ValueError):
    """An instance failed validation; carries the full error list."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def key_name(key: Sequence[int]) -> str:
    """The file form ``l:i:j``, 1-based, of a 0-based link key: how every
    message names a link."""
    layer, src, dst = key
    return f"{layer + 1}:{src + 1}:{dst + 1}"


@dataclass(frozen=True, order=True)
class Link:
    """Directed link from node ``src`` of layer ``layer`` to node ``dst`` of
    layer ``layer + 1``.  Adjacent-layer topology is enforced by shape: a
    Link cannot express anything else."""

    layer: int
    src: int
    dst: int
    capacity: float = UNBOUNDED

    @property
    def unbounded(self) -> bool:
        return self.capacity == UNBOUNDED

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.layer, self.src, self.dst)

    @property
    def name(self) -> str:
        return key_name(self.key)


def _integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, within
    the range of the link arrays."""
    # a plain int skips the slower abstract-class test
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not -(2**62) < value < 2**62:
        raise ValueError(f"{what} out of range, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """``value`` as a float: a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _checked_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    """Layer sizes as ints, after checking that each is an integer, that
    there are at least two and that each is positive."""
    sizes = tuple(_integer(n, f"layer size {k + 1}") for k, n in enumerate(layer_sizes))
    if len(sizes) < 2:
        raise ValueError("a layered network needs at least 2 layers")
    if any(n <= 0 for n in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    return sizes


class LayeredNetwork:
    """Immutable layered topology with per-link capacities, held as link
    arrays sorted by (layer, source, destination).

    Structural errors (non-integer or out-of-range indices, duplicate
    links, fewer than two layers) are rejected at construction, for the
    first bad link in that order.  Value-level problems (nonpositive
    capacities, dangling nodes) are reported by :func:`validate` so that a
    loaded document can be diagnosed in full.  ``links``, ``link_index``
    and ``link_names`` are views of the arrays, built on first read;
    nothing that builds or runs on a network reads them, and only
    messages read ``link_names``.
    """

    def __init__(self, layer_sizes: Sequence[int], links: Iterable[Link]):
        sizes = _checked_sizes(layer_sizes)
        keys, caps = [], []
        for k, link in enumerate(links, 1):
            key = zip(("layer", "src", "dst"), link.key)
            keys.append([_integer(value, f"links[{k}].{field}") for field, value in key])
            caps.append(_number(link.capacity, f"links[{k}].capacity"))
        columns = np.array(keys, dtype=np.intp).reshape(-1, 3).T
        self._build(sizes, *columns, np.array(caps, dtype=float))

    @classmethod
    def _from_arrays(cls, sizes: tuple[int, ...], layer, src, dst, capacity) -> "LayeredNetwork":
        """The network of layer sizes ``sizes`` (as :func:`_checked_sizes`
        returns them) and the links ``(layer[k], src[k], dst[k])`` with
        capacity ``capacity[k]``, given as three integer arrays and a float
        array of equal length, in any link order."""
        net = object.__new__(cls)
        net._build(sizes, layer, src, dst, capacity)
        return net

    def _build(self, sizes: tuple[int, ...], layer, src, dst, capacity) -> None:
        self.layer_sizes = sizes
        self.num_layers = len(sizes)
        self.num_nodes = sum(sizes)
        self._offsets = (0, *itertools.accumulate(sizes))
        first = np.array(self._offsets, dtype=np.intp)  # per layer: its first node id

        order = np.lexsort((dst, src, layer))
        layer, src, dst = layer[order], src[order], dst[order]
        size = np.array(sizes, dtype=np.intp)
        bad_layer = (layer < 0) | (layer >= self.num_layers - 1)
        at = np.where(bad_layer, 0, layer)
        bad_src = (src < 0) | (src >= size[at])
        bad_dst = (dst < 0) | (dst >= size[at + 1])
        duplicate = np.zeros(layer.size, dtype=bool)
        duplicate[1:] = (layer[1:] == layer[:-1]) & (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        bad = bad_layer | bad_src | bad_dst | duplicate
        if bad.any():  # the first bad link, by its first failed test
            k = int(np.argmax(bad))
            name = key_name((int(layer[k]), int(src[k]), int(dst[k])))
            ranges = ((bad_layer, "layer"), (bad_src, "source index"),
                      (bad_dst, "destination index"))
            what = next((what for flags, what in ranges if flags[k]), None)
            if what:
                raise ValueError(f"link {name}: {what} out of range")
            raise ValueError(f"duplicate link {name}")

        self.num_links = int(layer.size)
        self.capacities = np.asarray(capacity, dtype=float)[order]
        #: every link has a finite capacity
        self.bounded = not (self.capacities == UNBOUNDED).any()

        # the adjacency: each link's source and destination node ids, and
        # each node's out- and in-degree
        self.link_src = first[layer] + src
        self.link_dst = first[layer + 1] + dst
        self.out_degree = np.bincount(self.link_src, minlength=self.num_nodes)
        self.in_degree = np.bincount(self.link_dst, minlength=self.num_nodes)
        for arr in (self.capacities, self.link_src, self.link_dst,
                    self.out_degree, self.in_degree):
            arr.flags.writeable = False

    # -- links as keys -----------------------------------------------------

    def _key_columns(self) -> np.ndarray:
        """Per link its 0-based (layer, src, dst) key, as three rows."""
        first = np.array(self._offsets, dtype=np.intp)
        layer = np.searchsorted(first, self.link_src, side="right") - 1
        return np.stack((layer, self.link_src - first[layer], self.link_dst - first[layer + 1]))

    @cached_property
    def links(self) -> tuple[Link, ...]:
        """Every link as a :class:`Link`, in link order: a view of the
        arrays, built on first read."""
        return tuple(map(Link, *self._key_columns().tolist(), self.capacities.tolist()))

    @cached_property
    def link_index(self) -> dict[tuple[int, int, int], int]:
        """Position of each link by its 0-based key, built on first read."""
        return {key: k for k, key in enumerate(zip(*self._key_columns().tolist()))}

    @cached_property
    def link_names(self) -> tuple[str, ...]:
        """The file form ``l:i:j`` of every link, in link order: how
        messages name links, built on first read."""
        return tuple(map(key_name, self._key_columns().T.tolist()))

    # -- node addressing ---------------------------------------------------

    def node_id(self, layer: int, index: int) -> int:
        return self._offsets[layer] + index

    def node_coords(self, node_id: int) -> tuple[int, int]:
        for l in range(self.num_layers):
            if node_id < self._offsets[l + 1]:
                return l, node_id - self._offsets[l]
        raise IndexError(node_id)

    def layer_nodes(self, layer: int) -> range:
        return range(self._offsets[layer], self._offsets[layer + 1])

    @property
    def ingress_nodes(self) -> range:
        return self.layer_nodes(0)

    @property
    def egress_nodes(self) -> range:
        return self.layer_nodes(self.num_layers - 1)

    def is_single_sink(self) -> bool:
        return self.num_layers == 2 and self.layer_sizes[1] == 1

    def is_fan_in_tree(self) -> bool:
        """True when every non-egress node has exactly one outgoing link and
        the (undirected) topology is connected, i.e. a tree."""
        # single egress + unique out-edges => connected iff no node is isolated
        return (
            self.layer_sizes[-1] == 1
            and bool(np.all(self.out_degree[: self._offsets[-2]] == 1))
            and bool(np.all(self.in_degree[self.layer_sizes[0] :] > 0))
        )

    @cached_property
    def plan(self) -> tuple["LayerPlan", ...]:
        """One :class:`LayerPlan` per link layer, so ``plan[l]`` is link
        layer l (``plan_of(l, l)``), empty for a layer without links;
        built on first use and shared by the policies and engines."""
        return tuple(self.plan_of(l, l) for l in range(self.num_layers - 1))

    def plan_of(self, first: int, last: int) -> "LayerPlan":
        """The :class:`LayerPlan` of link layers ``first`` to ``last`` taken
        together, built on first use and kept with the network."""
        key = (first, last)
        if key not in self._plans:
            self._plans[key] = LayerPlan.build(self, first, last)
        return self._plans[key]

    @cached_property
    def _plans(self) -> dict[tuple[int, int], "LayerPlan"]:
        return {}

    @cached_property
    def _defects(self) -> tuple[str, ...]:
        """:func:`validate`'s messages on the network itself, found once."""
        errors = []
        caps = self.capacities.tolist()
        for k in np.flatnonzero(~(self.capacities > 0)).tolist():
            errors.append(f"nonpositive capacity: link {self.link_names[k]} capacity = {caps[k]}")
        no_out = self.out_degree == 0
        no_out[self.egress_nodes.start :] = False
        no_in = self.in_degree == 0
        no_in[: self.layer_sizes[0]] = False
        for nid in np.flatnonzero(no_out | no_in):
            l, i = self.node_coords(int(nid))
            for missing, kind in ((no_out, "egress"), (no_in, "ingress")):
                if missing[nid]:
                    errors.append(f"dangling node: layer {l + 1} node {i + 1} has no {kind} link")
        return tuple(errors)

    def __repr__(self) -> str:
        shape = "x".join(str(n) for n in self.layer_sizes)
        return f"LayeredNetwork({shape}, {self.num_links} links)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredNetwork):
            return NotImplemented
        return (
            self.layer_sizes == other.layer_sizes
            and np.array_equal(self.link_src, other.link_src)
            and np.array_equal(self.link_dst, other.link_dst)
            and np.array_equal(self.capacities, other.capacities, equal_nan=True)
        )

    def __hash__(self) -> int:
        return hash((self.layer_sizes, self.link_src.tobytes(), self.link_dst.tobytes()))


class LayerPlan(NamedTuple):
    """Index arrays for the links leaving one network layer, or a run of
    consecutive layers taken together, so that a per-step computation over
    them is a few whole-array operations.  ``plan[l].links`` is the
    network's only list of link layer l's links; a layer without links has
    an empty slice and empty arrays.

    Links are sorted by layer, then source, so the links are one slice of
    the link vector and each source's links one run inside it.  Per-link
    arrays are aligned with that slice; per-source arrays with ``srcs``,
    the nodes that have out-links.  For a run of layers l .. m the sources
    are the nodes of layers l .. m and the destinations those of layers
    l + 1 .. m + 1.
    """

    index: int  # the layer l; its links enter layer l + 1
    links: slice
    lo: int  # source node ids are lo .. lo + width - 1
    width: int
    next_lo: int  # destination node ids are next_lo .. next_lo + next_width - 1
    next_width: int
    srcs: np.ndarray  # node ids with out-links, ascending
    starts: np.ndarray  # per source: its first link within the slice (reduceat starts)
    ends: np.ndarray  # per source: one past its last link
    src_of: np.ndarray  # per link: index of its source in ``srcs``
    src_local: np.ndarray  # per link: source index from lo
    dst_local: np.ndarray  # per link: destination index from next_lo
    single: np.ndarray  # per link: it is its source's only out-link

    @classmethod
    def build(cls, net: "LayeredNetwork", first: int, last: int) -> "LayerPlan":
        nodes = net._offsets
        lo, next_lo = nodes[first], nodes[first + 1]
        start, stop = np.searchsorted(net.link_src, [lo, nodes[last + 1]]).tolist()
        links = slice(start, stop)
        src = net.link_src[links]
        srcs, starts, src_of = np.unique(src, return_index=True, return_inverse=True)
        ends = np.searchsorted(src, srcs, side="right")
        arrays = dict(
            srcs=srcs, starts=starts, ends=ends, src_of=src_of,
            src_local=src - lo, dst_local=net.link_dst[links] - next_lo,
            single=(ends - starts == 1)[src_of],
        )
        for arr in arrays.values():
            arr.flags.writeable = False
        return cls(
            first, links, lo, nodes[last + 1] - lo, next_lo, nodes[last + 2] - next_lo,
            **arrays,
        )


def _readonly_vector(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _RateProfile:
    """A read-only, non-empty vector of rates, named ``_vector`` in
    messages.  Profiles of different kinds never compare equal."""

    rates: np.ndarray

    def __init__(self, rates: Sequence[float]):
        object.__setattr__(self, "rates", _readonly_vector(rates, self._vector))

    @property
    def total(self) -> float:
        return float(self.rates.sum())

    def __len__(self) -> int:
        return self.rates.size


@dataclass(frozen=True, init=False)
class ArrivalProfile(_RateProfile):
    """External packet arrival rates at the ingress layer (packets/time)."""

    _vector = "lambda"


@dataclass(frozen=True, init=False)
class ServiceProfile(_RateProfile):
    """Maximum work-conserving service rates at the egress layer."""

    _vector = "mu"


class RateAssignment:
    """A transmission-rate vector ``g`` over the links of one network.

    Stored as an array in the network's link order; absent links are simply
    not representable, which matches treating their rate as zero.
    """

    def __init__(self, net: LayeredNetwork, values: Sequence[float]):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (net.num_links,):
            raise ValueError(
                f"expected {net.num_links} rates, got shape {arr.shape}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"non-finite rate {arr[k]} on link {net.link_names[k]}")
        if np.any(arr < 0):
            k = int(np.argmin(arr))
            raise ValueError(f"negative rate on link {net.link_names[k]}")
        self.net = net
        self.values = arr.copy()
        self.values.flags.writeable = False

    @classmethod
    def _trusted(cls, net: LayeredNetwork, values: np.ndarray) -> "RateAssignment":
        """An assignment on a fresh float vector of ``net.num_links``
        rates that the caller built and no one else holds: no copy, and no
        scan for non-finite or negative rates (a run's capacity check
        still rejects a NaN)."""
        rates = object.__new__(cls)
        rates.net = net
        rates.values = values
        values.flags.writeable = False
        return rates

    @classmethod
    def zeros(cls, net: LayeredNetwork) -> "RateAssignment":
        return cls(net, np.zeros(net.num_links))

    @classmethod
    def from_dict(cls, net: LayeredNetwork, mapping: Mapping) -> "RateAssignment":
        """Build from ``{(layer, src, dst): rate}`` with 0-based keys, or the
        file form ``{"l:i:j": rate}`` with 1-based indices."""
        values = np.zeros(net.num_links)
        for given, rate in mapping.items():
            key = given
            if isinstance(key, str):
                parts = key.split(":")
                if len(parts) != 3:
                    raise ValueError(f"bad link key {key!r}, expected 'l:i:j'")
                key = tuple(int(p) - 1 for p in parts)
            key = tuple(int(p) for p in key)
            if key not in net.link_index:
                # named as given: a file key 1-based, a tuple 0-based
                name = given if isinstance(given, str) else key
                raise ValueError(f"rate given for nonexistent link {name}")
            values[net.link_index[key]] = float(rate)
        return cls(net, values)

    def to_dict(self) -> dict[str, float]:
        """File form: 1-based ``"l:i:j"`` keys."""
        return dict(zip(self.net.link_names, self.values.tolist()))

    def __getitem__(self, key: tuple[int, int, int]) -> float:
        return float(self.values[self.net.link_index[tuple(key)]])

    def node_egress(self, node_id: int) -> float:
        return float(self.values[self.net.link_src == node_id].sum())

    def node_ingress(self, node_id: int) -> float:
        return float(self.values[self.net.link_dst == node_id].sum())

    def capacity_violations(self, tol: float = 1e-9) -> list[tuple[int, int, int]]:
        """Keys of the links whose rate is not within capacity (a NaN on
        either side counts as a violation)."""
        within = self.values <= self.net.capacities + tol
        if within.all():
            return []
        return list(zip(*self.net._key_columns()[:, ~within].tolist()))

    def __repr__(self) -> str:
        return f"RateAssignment({np.array2string(self.values, precision=4)})"


def _require_network(net: LayeredNetwork, rates: RateAssignment) -> None:
    """Reject an assignment built on another network object, as a run
    does: the closed forms and the checkers read its vector by ``net``'s
    links."""
    if rates.net is not net:
        raise ValueError("rate assignment belongs to a different network")


def require_finite_positive(name: str, value: float) -> None:
    """Reject a value that is not finite and positive (NaN included); the
    message starts with ``name``."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class SimConfig:
    """Simulation window and stepping parameters.

    ``dt`` defaults to 0.01 in fluid mode and 1.0 in integer-packet mode.
    ``q0`` is a per-node backlog vector (all zero when omitted).  The
    engines read the step through :meth:`resolved_dt`, the step count
    through :meth:`num_steps` and the backlog through
    :meth:`initial_backlog`, which reject bad values; each message starts
    with the field it names, except the integer-mode q0 one.
    """

    horizon: float
    dt: float | None = None
    q0: np.ndarray | None = None
    discretize: bool = False

    def resolved_dt(self) -> float:
        """The step length, after checking that it and the horizon are
        finite and positive and that the step fits in the horizon."""
        dt = self.dt if self.dt is not None else (1.0 if self.discretize else 0.01)
        require_finite_positive("horizon", self.horizon)
        require_finite_positive("dt", dt)
        if dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        return dt

    def num_steps(self) -> int:
        """Steps of :meth:`resolved_dt` that cover the horizon; a last
        partial step counts, a round-off excess of the quotient does not."""
        return math.ceil(self.horizon / self.resolved_dt() - 1e-12)

    def initial_backlog(self, net: LayeredNetwork) -> np.ndarray:
        if self.q0 is None:
            return np.zeros(net.num_nodes)
        q0 = np.asarray(self.q0, dtype=float)
        if q0.shape != (net.num_nodes,):
            raise ValueError(
                f"q0 has {q0.size} entries, network has {net.num_nodes} nodes"
            )
        finite = np.isfinite(q0)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"q0 must be finite, got {q0[k]} at entry {k + 1}")
        if np.any(q0 < 0):
            raise ValueError("q0 must be nonnegative")
        if self.discretize and not np.all(q0 == np.round(q0)):
            raise ValueError("integer mode requires an integral q0")
        return q0.copy()


# ---------------------------------------------------------------------------
# Validation


def validate(net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile) -> list[str]:
    """Check all type invariants and mutual dimensions.

    Returns an empty list when the instance is consistent, otherwise one
    message per violation with node/link coordinates (1-based, matching the
    document convention).  Every rate must be finite and positive: +inf
    reads ``non-finite rate``, NaN and the rest ``nonpositive rate``.  The
    network's own defects (capacities, dangling nodes) are found once.
    """
    errors: list[str] = []
    profiles = (("lambda", arr, "ingress", net.layer_sizes[0]),
                ("mu", svc, "egress", net.layer_sizes[-1]))
    for name, prof, layer, n in profiles:
        if len(prof) != n:
            errors.append(
                f"dimension mismatch: {name} has {len(prof)} entries but the {layer} "
                f"layer has {n} nodes"
            )
    for name, prof, _, _ in profiles:
        for i, v in enumerate(prof.rates.tolist()):
            if not 0 < v < math.inf:
                kind = "non-finite" if v == math.inf else "nonpositive"
                errors.append(f"{kind} rate: {name}[{i + 1}] = {v}")
    errors.extend(net._defects)
    return errors


def ensure_valid(net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile) -> None:
    errors = validate(net, arr, svc)
    if errors:
        raise ValidationError(errors)


def node_growth(
    net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile, values: np.ndarray
) -> np.ndarray:
    """Backlog growth rate per node if every link rate of ``values`` were
    fully realized: inflow minus outflow, with lambda_i entering layer 1
    and mu_j leaving the last layer.  The one home of node balance; each
    link sum is one ``bincount`` in link order."""
    n = net.num_nodes
    growth = np.bincount(net.link_dst, weights=values, minlength=n)
    growth -= np.bincount(net.link_src, weights=values, minlength=n)
    growth[: net.layer_sizes[0]] += arr.rates
    growth[n - net.layer_sizes[-1] :] -= svc.rates
    return growth


# ---------------------------------------------------------------------------
# Builders


def full_connection(
    layer_sizes: Sequence[int], capacity=UNBOUNDED
) -> LayeredNetwork:
    """Network with every adjacent-layer node pair linked.

    ``capacity`` may be a scalar shared by all links, one scalar per layer
    pair, or an array of per-link values for a layer pair (shape
    ``(N_l, N_{l+1})`` or anything broadcastable to it).
    """
    sizes = _checked_sizes(layer_sizes)
    caps = capacity
    if np.isscalar(caps):
        caps = [caps] * (len(sizes) - 1)
    if len(caps) != len(sizes) - 1:
        raise ValueError("need one capacity spec per adjacent layer pair")
    pairs = list(zip(sizes, sizes[1:]))
    counts = [a * b for a, b in pairs]
    capacities = np.empty(sum(counts))
    lo = 0
    for l, shape in enumerate(pairs):
        block = np.asarray(caps[l], dtype=float)
        try:
            np.copyto(capacities[lo : lo + counts[l]].reshape(shape), block)
        except ValueError:
            raise ValueError(
                f"capacity of layer pair ({l + 1}, {l + 2}) has shape {block.shape}; "
                f"it needs shape {shape} or one that broadcasts to it"
            ) from None
        lo += counts[l]
    # link k of layer pair l, counted from the pair's first link, joins
    # node k // N_{l+1} to node k % N_{l+1}
    layer = np.repeat(np.arange(len(pairs)), counts)
    start = np.repeat(np.cumsum(counts) - counts, counts)  # per link: its pair's first link
    src, dst = np.divmod(np.arange(layer.size) - start, np.array(sizes[1:])[layer])
    return LayeredNetwork._from_arrays(sizes, layer, src, dst, capacities)


def single_sink(num_sources: int, capacities=UNBOUNDED) -> LayeredNetwork:
    """N x 1 single-hop network; ``capacities`` is a scalar or one value per
    source link."""
    return full_connection([num_sources, 1], [np.reshape(capacities, (-1, 1))])


def fan_in_tree(
    layer_sizes: Sequence[int], child_of: Sequence[Sequence[int]], capacity=UNBOUNDED
) -> LayeredNetwork:
    """Tree where node ``i`` of layer ``l`` links only to ``child_of[l][i]``.

    ``child_of`` has one row per non-egress layer.  The resulting undirected
    topology is a tree whenever every next-layer node is some node's child.
    """
    sizes = _checked_sizes(layer_sizes)
    if len(child_of) != len(sizes) - 1:
        raise ValueError("need one child row per non-egress layer")
    for l, row in enumerate(child_of):
        if len(row) != sizes[l]:
            raise ValueError(f"child row {l} has {len(row)} entries, layer has {sizes[l]}")
    children = [
        _integer(j, f"child_of[{l}][{i}]")
        for l, row in enumerate(child_of)
        for i, j in enumerate(row)
    ]
    layer = np.repeat(np.arange(len(sizes) - 1), sizes[:-1])
    return LayeredNetwork._from_arrays(
        sizes,
        layer,
        np.concatenate([np.arange(n) for n in sizes[:-1]]),
        np.array(children, dtype=np.intp),
        np.full(layer.size, float(capacity)),
    )


# ---------------------------------------------------------------------------
# Topology documents (JSON)
#
# Normative keys: `layers` (int array), `links` (array of {l, i, j, c} with
# 1-based indices, c a number or the string "unbounded"), `lambda`, `mu`.


def network_to_doc(
    net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile
) -> dict:
    links = [
        {"l": l, "i": i, "j": j, "c": "unbounded" if c == UNBOUNDED else c}
        for l, i, j, c in zip(*(net._key_columns() + 1).tolist(), net.capacities.tolist())
    ]
    return {
        "layers": list(net.layer_sizes),
        "links": links,
        "lambda": [float(x) for x in arr.rates],
        "mu": [float(x) for x in svc.rates],
    }


def _json_int(value):
    """An integral JSON number such as ``2.0`` as the int it names;
    anything else as given."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def doc_to_network(doc: Mapping) -> tuple[LayeredNetwork, ArrivalProfile, ServiceProfile]:
    if not isinstance(doc, Mapping):
        raise NetworkFormatError(f"document must be a JSON object, got {type(doc).__name__}")
    for key in ("layers", "links", "lambda", "mu"):
        if key not in doc:
            raise NetworkFormatError(f"missing field {key!r}")
    try:
        keys, caps = [], []
        for k, entry in enumerate(doc["links"], 1):
            cap = entry["c"]
            caps.append(UNBOUNDED if cap == "unbounded" else _number(cap, f"links[{k}].c"))
            keys.append([_integer(_json_int(entry[f]), f"links[{k}].{f}") - 1 for f in "lij"])
        net = LayeredNetwork._from_arrays(
            _checked_sizes([_json_int(n) for n in doc["layers"]]),
            *np.array(keys, dtype=np.intp).reshape(-1, 3).T,
            np.array(caps, dtype=float),
        )
        lam, mu = ([_number(x, f"{key}[{k}]") for k, x in enumerate(doc[key], 1)]
                   for key in ("lambda", "mu"))
        arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"bad topology document: {exc}") from exc
    ensure_valid(net, arr, svc)
    return net, arr, svc


def canonical_json(doc: Mapping) -> str:
    """Canonical byte form: links sorted by (l, i, j), stable key order."""
    doc = dict(doc)
    doc["links"] = sorted(
        (dict(e) for e in doc.get("links", [])),
        key=lambda e: (e["l"], e["i"], e["j"]),
    )
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save(path, net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(network_to_doc(net, arr, svc)))


def load(path) -> tuple[LayeredNetwork, ArrivalProfile, ServiceProfile]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise NetworkFormatError("empty document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    return doc_to_network(doc)
