"""Link rate control policies and min-delay membership checkers.

Rate-proportional control keeps every node of a layer at the same
ingress/egress rate ratio; the per-layer ratios form the gamma vector.
Queue-proportional control replaces arrival-rate knowledge with live
backlogs and reaches the same delay asymptotically; it and the
rate-proportional construction split a node's egress over its links with
the same per-link weights (:func:`_split_weights`).  Backpressure and
max-link-rate serve as baselines.  The N x 1 checker is the layered one on
effective rates, a 2-layer network is judged by the layered one as it is,
and every checker ends in the same throughput clause, with each node's
link sums one ``bincount``.

A policy is any object with ``rates(state, net, arr, svc, dt)``.  Each
dynamic rule lives in its policy class (:class:`QueueProportionalPolicy`,
:class:`BackpressurePolicy`); :func:`queue_proportional_rates` and
:func:`backpressure_rates` are one call of a fresh policy object, validated.
Constant vectors (rate-proportional, tree, :func:`max_link_rate_rates`) run
through :class:`StaticPolicy`; ``fluidq.bench.make_policy`` maps names to
policies.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import QueueState, StaticPolicy, effective_flow
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    UNBOUNDED,
    _require_network,
    key_name,
    require_finite_positive,
)

log = logging.getLogger("fluidq")

@dataclass(frozen=True)
class CheckResult:
    """Outcome of a min-delay membership check.

    ``reason`` names the first violated clause when ``ok`` is false;
    ``gamma`` carries the per-layer ratios (supplied or inferred);
    ``residuals`` maps clause names to their deviations.
    """

    ok: bool
    reason: str | None = None
    gamma: tuple[float, ...] | None = None
    residuals: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def as_gamma(values, num_layers: int) -> tuple[float, ...]:
    gamma = tuple(float(v) for v in values)
    if len(gamma) != num_layers:
        raise ValueError(f"gamma needs {num_layers} entries, got {len(gamma)}")
    if any(not (v > 0 and math.isfinite(v)) for v in gamma):
        raise ValueError(f"gamma entries must be positive and finite, got {gamma}")
    return gamma


def _spread(ratios: np.ndarray) -> float:
    """Relative spread of a ratio family (0 when all equal)."""
    mean = ratios.mean()
    if mean == 0:
        return float(np.max(np.abs(ratios)))
    return float(np.max(np.abs(ratios - mean)) / abs(mean))


# ---------------------------------------------------------------------------
# Membership checks


def check_min_delay_single_sink(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    tol: float = 1e-9,
) -> CheckResult:
    """Membership in the N x 1 min-delay region.

    The region is the union of the rate-proportional branch (all g_i in one
    proportion to lambda_i with total at least mu) and the drain branch
    (every g_i at least lambda_i), intersected with the capacity box.  The
    effective rates min(g_i, lambda_i) have one ratio to lambda_i exactly on
    those branches, so past the capacity clause this is
    :func:`check_min_delay_layered` on the effective flow.
    """
    _require_network(net, rates)
    if not net.is_single_sink():
        raise ValueError("check applies to N x 1 single-hop networks only")
    bad = rates.capacity_violations(tol)
    if bad:
        return CheckResult(False, f"capacity exceeded on link {key_name(bad[0])}")
    g_tilde, _, _, _ = effective_flow(net, arr, rates.values)
    return _check_layered(net, arr, svc, g_tilde, None, tol)


def check_min_delay_layered(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    gamma=None,
    tol: float = 1e-9,
) -> CheckResult:
    """Layered-network condition: each layer's node ingress/egress ratios
    collapse to one constant (gamma_l inferred when not supplied) and the
    egress layer actually serves min(total arrivals, total service).

    The throughput clause is evaluated on the effective flow, so set rates
    that overcommit an empty node are judged by what they really deliver.
    A node with zero egress rate in a flow-carrying layer fails the check
    (its ratio is undefined).
    """
    _require_network(net, rates)
    return _check_layered(net, arr, svc, rates.values, gamma, tol)


def _check_layered(net, arr, svc, values, gamma, tol) -> CheckResult:
    """:func:`check_min_delay_layered` on a bare (possibly NaN) vector.

    A layer's ratios are taken over its nodes that carry flow: a node with
    neither ingress nor egress rate is skipped (a zero-flow node is
    equivalent to omitting its links, which the routing model permits).
    The egress layer's ratios are ingress over service rate.
    """
    ingress = np.bincount(net.link_dst, weights=values, minlength=net.num_nodes)
    egress = np.bincount(net.link_src, weights=values, minlength=net.num_nodes)
    ingress[: net.layer_sizes[0]] = arr.rates
    inferred: list[float] = []
    residuals = {}
    given = as_gamma(gamma, net.num_layers) if gamma is not None else None
    for l in range(net.num_layers):
        nodes = net.layer_nodes(l)
        into, out = ingress[nodes.start : nodes.stop], egress[nodes.start : nodes.stop]
        if l == net.num_layers - 1:
            r = into / svc.rates
        elif np.any((out <= 0) & (into > 0)):
            return CheckResult(False, f"zero egress rate at a node of layer {l + 1}")
        else:
            carrying = out > 0
            r = into[carrying] / out[carrying]
        if r.size == 0:
            return CheckResult(False, f"no flow through layer {l + 1}")
        target = given[l] if given else float(r.mean())
        dev = float(np.max(np.abs(r - target)) / max(abs(target), 1e-300))
        residuals[f"layer_{l + 1}_ratio_spread"] = dev
        if not dev <= tol:
            return CheckResult(
                False, f"unequal ingress/egress ratios at layer {l + 1}", None, residuals
            )
        inferred.append(target)
    best = min(arr.total, svc.total)
    return _throughput_clause(net, arr, svc, values, best, tuple(inferred), residuals, tol)


def _throughput_clause(net, arr, svc, values, best, gamma, residuals, tol) -> CheckResult:
    """Maximum throughput: on the effective flow of ``values`` the egress
    layer serves at least ``best``."""
    _, inflow, _, _ = effective_flow(net, arr, values)
    service = np.minimum(inflow[list(net.egress_nodes)], svc.rates).sum()
    residuals["throughput_deficit"] = float(best - service)
    if not service >= best - tol * max(1.0, best):
        return CheckResult(False, "maximum throughput not achieved", gamma, residuals)
    return CheckResult(True, None, gamma, residuals)


# ---------------------------------------------------------------------------
# Constructors


def _check_constructible(net: LayeredNetwork) -> None:
    """Every layer is fully connected or gives each of its nodes exactly one
    out-link; a layer without links is neither."""
    for layer in net.plan:
        if not (
            layer.src_local.size == layer.width * layer.next_width
            or np.array_equal(layer.src_local, np.arange(layer.width))
        ):
            l = layer.index
            raise ValueError(
                f"layers {l + 1}-{l + 2} are neither fully connected nor "
                "single-child; no constructive split available"
            )


def _split_weights(net: LayeredNetwork, svc: ServiceProfile) -> np.ndarray:
    """Per link, its fraction of its source's egress total: all of it on a
    node's only out-link, otherwise its destination's share of the next
    layer's masses (service rates into the egress layer, uniform
    elsewhere).  The link rates are ``node_egress[net.link_src]`` times
    these."""
    weights = np.empty(net.num_links)
    for layer in net.plan:
        mass = svc.rates if layer.index == net.num_layers - 2 else np.ones(layer.next_width)
        share = mass / mass.sum()
        weights[layer.links] = np.where(layer.single, 1.0, share[layer.dst_local])
    return weights


def construct_rate_proportional(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    gamma,
) -> RateAssignment:
    """Build a rate vector realizing the given per-layer ratios.

    Each node's egress total is its ingress divided by gamma_l, split by
    :func:`_split_weights`; the next layer's ingress is the sum of the link
    rates into each node.  Requires full connection (or single-child nodes)
    between adjacent layers and gamma consistent with maximum throughput.
    """
    gamma = as_gamma(gamma, net.num_layers)
    _check_constructible(net)
    if not svc.total > 0:
        raise ValueError(f"total service rate of mu must be positive, got {svc.total:g}")
    ratio = arr.total / svc.total
    prod = math.prod(gamma)
    if not abs(prod - ratio) <= 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"gamma product {prod:g} differs from total arrival/service ratio "
            f"{ratio:g}; the egress-layer clause cannot hold"
        )
    if len(svc) != net.layer_sizes[-1] or np.any(svc.rates <= 0):
        raise ValueError(f"bad egress masses for layer {net.num_layers}")
    values = np.zeros(net.num_links)
    ingress = arr.rates
    weights = _split_weights(net, svc)
    for layer in net.plan:
        v = (ingress / gamma[layer.index])[layer.src_local] * weights[layer.links]
        values[layer.links] = v
        ingress = np.bincount(layer.dst_local, weights=v, minlength=layer.next_width)
    over = np.flatnonzero(values > net.capacities + 1e-9 * np.maximum(1.0, values))
    if over.size:
        k = int(over[0])
        raise ValueError(
            f"gamma infeasible against capacities: link {net.link_names[k]} needs "
            f"{values[k]:g} > capacity {net.capacities[k]:g}"
        )
    return RateAssignment(net, values)


def proportional_fill(weights, caps, budget: float) -> np.ndarray:
    """Allocate ``budget`` in proportion to ``weights`` subject to per-entry
    caps, waterfilling the excess of saturated entries onto the rest."""
    w = np.asarray(weights, dtype=float)
    c = np.asarray(caps, dtype=float)
    x = np.zeros_like(w)
    active = w > 0
    if budget <= 0 or not active.any():
        return x
    saturated = np.zeros_like(active)
    for _ in range(len(w)):
        free = active & ~saturated
        if not free.any():
            break
        remaining = budget - x[saturated].sum()
        if remaining <= 0:
            break
        scale = remaining / w[free].sum()
        trial = scale * w
        over = free & (trial >= c * (1 - 1e-12))
        if not over.any():
            x[free] = trial[free]
            break
        x[over] = c[over]
        saturated |= over
    return x


# ---------------------------------------------------------------------------
# Policies


def require_bounded(net: LayeredNetwork, what: str) -> None:
    """Reject a network with an unbounded link: ``what`` needs capacities."""
    if not net.bounded:
        k = int(np.argmax(net.capacities == UNBOUNDED))
        raise ValueError(f"{what} undefined: link {net.link_names[k]} has unbounded capacity")


def max_link_rate_rates(net: LayeredNetwork) -> RateAssignment:
    """Every link at its capacity; undefined with unbounded links."""
    require_bounded(net, "max-link-rate")
    return RateAssignment(net, net.capacities)


class BackpressurePolicy:
    """Backpressure baseline: capacity on every link whose source backlog
    strictly exceeds its destination backlog, zero otherwise (egress
    service is handled by the engine's work-conserving servers); undefined
    with unbounded links.  Its rates are capacities or zeros, so they skip
    the constructor's scan."""

    def rates(self, state, net, arr, svc, dt) -> RateAssignment:
        require_bounded(net, "backpressure")
        active = state.q[net.link_src] > state.q[net.link_dst]
        return RateAssignment._trusted(net, np.where(active, net.capacities, 0.0))


def backpressure_rates(
    state: QueueState, net: LayeredNetwork, svc: ServiceProfile
) -> RateAssignment:
    """The rates of a fresh :class:`BackpressurePolicy` for ``state``,
    through the validating constructor."""
    return RateAssignment(net, BackpressurePolicy().rates(state, net, None, svc, 0.0).values)


_CLIP_WARNING = (
    "queue-proportional rates hit capacity and were downscaled; "
    "the throughput clause may be violated"
)


class QueueProportionalPolicy:
    """Queue-proportional control: egress rates proportional to live
    backlogs within each layer.

    Without ``gamma`` each layer's total egress budget is exactly the
    downstream service requirement (the minimal throughput-preserving
    choice); with ``gamma`` a node's egress is its backlog divided by
    gamma_l, scaled up if needed to preserve the throughput floor.  Zero
    backlogs are smoothed with the arrivals observed over the step
    (``arr`` and ``dt``), realizing the policy's vanishing-step limit
    without arrival-rate knowledge entering the proportions.  Per-link
    splits follow the proportional construction: service-rate shares into
    the egress layer, uniform elsewhere.  Rates that would exceed capacity
    are waterfilled (single-sink) or proportionally downscaled per source
    node, to its tightest link.

    The checked gamma, the per-link :func:`_split_weights` and each node's
    layer are built once per network and service profile, so a step is
    whole-network array operations and one sum per link layer.
    ``clipped_steps`` counts the steps on the current network whose rates
    capacity clipped; the first of them logs a warning, once per
    network."""

    def __init__(self, gamma=None):
        self.gamma = gamma
        self.clipped_steps = 0
        self._net = self._svc = None

    def _build(self, net: LayeredNetwork, svc: ServiceProfile) -> None:
        """The arrays of ``net`` and ``svc``; a new network restarts the
        clip count."""
        if net is not self._net:
            self.clipped_steps = 0
        gamma = None if self.gamma is None else as_gamma(self.gamma, net.num_layers)
        # per node above egress, its layer, which indexes the plan
        layer_of = np.repeat(np.arange(net.num_layers - 1), net.layer_sizes[:-1])
        self._weights, self._total = _split_weights(net, svc), svc.total
        self._checked, self._layer_of = gamma, layer_of
        self._node_gamma = None if gamma is None else np.asarray(gamma)[layer_of]
        self._net, self._svc = net, svc

    def rates(self, state, net, arr, svc, dt) -> RateAssignment:
        if net is not self._net or svc is not self._svc:
            self._build(net, svc)
        gamma, layer_of, total_service = self._checked, self._layer_of, self._total
        shares = state.q[: layer_of.size].astype(float)
        if arr is not None and dt > 0:
            shares[: net.layer_sizes[0]] += arr.rates * dt
        sums = []
        for layer in net.plan:
            nodes = slice(layer.lo, layer.next_lo)
            total = shares[nodes].sum()
            if total <= 0:
                shares[nodes] = 1.0
                total = shares[nodes].sum()
            sums.append(total)

        if net.is_single_sink():
            if not net.num_links:
                return RateAssignment._trusted(net, np.zeros(0))
            budget = total_service
            if gamma is not None:
                budget = max(budget, sums[0] / gamma[0])
            values = proportional_fill(shares, net.capacities, budget)
            clipped = values.sum() < budget - 1e-9 * max(1.0, budget)
        else:
            if gamma is not None:
                node_egress = shares / self._node_gamma
                scale = np.ones(len(sums))
                for layer in net.plan:
                    total = node_egress[layer.lo : layer.next_lo].sum()
                    if total > 0:
                        scale[layer.index] = max(1.0, total_service / total)
                node_egress *= scale[layer_of]
            else:
                node_egress = total_service * shares / np.array(sums)[layer_of]
            values = node_egress[net.link_src] * self._weights
            over = values > net.capacities
            clipped = over.any()
            if clipped:
                # each source keeps its split and scales down to its tightest
                # link: the smallest capacity-to-rate ratio over its run of links
                ratio = np.ones(net.num_links)
                np.divide(net.capacities, values, out=ratio, where=over)
                plan = net.plan_of(0, net.num_layers - 2)
                values *= np.minimum.reduceat(ratio, plan.starts)[plan.src_of]
        if clipped:
            if not self.clipped_steps:
                log.warning(_CLIP_WARNING)
            self.clipped_steps += 1
        return RateAssignment._trusted(net, values)


def queue_proportional_rates(
    state: QueueState,
    net: LayeredNetwork,
    svc: ServiceProfile,
    gamma=None,
    arr: ArrivalProfile | None = None,
    dt: float = 0.0,
) -> RateAssignment:
    """The rates of a fresh :class:`QueueProportionalPolicy` for ``state``,
    through the validating constructor; every call that clips logs a
    warning."""
    policy = QueueProportionalPolicy(gamma)
    return RateAssignment(net, policy.rates(state, net, arr, svc, dt).values)


# ---------------------------------------------------------------------------
# Trees


def parent_source_set(net: LayeredNetwork) -> list[frozenset[int]]:
    """Ingress-layer ancestors of every node (a node's own index at the
    ingress layer)."""
    pss: list[set[int]] = [set() for _ in range(net.num_nodes)]
    for i, nid in enumerate(net.ingress_nodes):
        pss[nid] = {i}
    # links run in layer order, so a source's set is whole before it is read
    for src, dst in zip(net.link_src.tolist(), net.link_dst.tolist()):
        pss[dst] |= pss[src]
    return [frozenset(s) for s in pss]


def _subtree_arrivals(net: LayeredNetwork, arr: ArrivalProfile, what: str) -> np.ndarray:
    """Per node, the total arrival rate of its ingress ancestors: in a
    fan-in tree, the sum over its parents, one layer at a time."""
    if not net.is_fan_in_tree():
        raise ValueError(f"{what} applies to fan-in tree topologies only")
    lam = np.zeros(net.num_nodes)
    lam[: net.layer_sizes[0]] = arr.rates
    for layer in net.plan:
        lam[layer.next_lo : layer.next_lo + layer.next_width] = np.bincount(
            layer.dst_local, weights=lam[net.link_src[layer.links]], minlength=layer.next_width
        )
    return lam


def check_min_delay_tree(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    tol: float = 1e-9,
) -> CheckResult:
    """Tree condition: into every node, the parents' total subtree arrival
    rates stand in one proportion to the link rates (a per-destination
    constant), and maximum throughput is achieved."""
    _require_network(net, rates)
    subtree_lam = _subtree_arrivals(net, arr, "check")
    residuals = {}
    for layer in net.plan:
        dest = layer.index + 2  # 1-based number of the layer the links enter
        g = rates.values[layer.links]
        lam = subtree_lam[net.link_src[layer.links]]
        for j in range(layer.next_width):
            into = layer.dst_local == j
            g_in = g[into]
            if np.any(g_in <= 0):
                return CheckResult(
                    False, f"zero rate into layer {dest} node {j + 1}"
                )
            dev = _spread(lam[into] / g_in)
            residuals[f"node_{dest}_{j + 1}_ratio_spread"] = dev
            if not dev <= tol:
                return CheckResult(
                    False,
                    f"link rates into layer {dest} node {j + 1} are not "
                    "proportional to their subtree arrival rates",
                    None,
                    residuals,
                )
    best = float(np.minimum(subtree_lam[list(net.egress_nodes)], svc.rates).sum())
    return _throughput_clause(net, arr, svc, rates.values, best, None, residuals, tol)


def tree_rate_proportional(
    net: LayeredNetwork, arr: ArrivalProfile, svc: ServiceProfile
) -> RateAssignment:
    """Each link carries a common multiple of its source's subtree arrival
    rate, the multiple chosen as the smallest that feeds every egress node
    its achievable throughput."""
    subtree_lam = _subtree_arrivals(net, arr, "construction")
    reachable = subtree_lam[-1]  # a fan-in tree has one egress node
    scale = max(0.0, min(float(svc.rates[0]), reachable) / reachable)
    assignment = RateAssignment(net, scale * subtree_lam[net.link_src])
    bad = assignment.capacity_violations()
    if bad:
        raise ValueError(f"tree rates exceed capacity on link {key_name(bad[0])}")
    return assignment


# ---------------------------------------------------------------------------
# Initial backlog correction (single-sink)


def initial_backlog_weights(arr: ArrivalProfile, q0, horizon: float) -> np.ndarray:
    """Rate-split weights for a single-sink network with initial backlog:
    w_i = sqrt(lambda_i (lambda_i + q0_i / T)).  Pairwise rate ratios are
    w_i / w_j, collapsing to lambda_i / lambda_j as q0/T vanishes."""
    require_finite_positive("horizon", horizon)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != arr.rates.shape:
        raise ValueError("q0 must give one backlog per ingress node")
    if not np.all(np.isfinite(q0) & (q0 >= 0)):
        raise ValueError("q0 must be finite and nonnegative")
    lam = arr.rates
    return np.sqrt(lam * (lam + q0 / horizon))
