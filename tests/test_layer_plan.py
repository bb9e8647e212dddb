"""The per-network layer plan and the whole-layer policy and fluid step
built on it: plan structure, the vectorized queue-proportional rates and
rate-proportional construction against the per-node loops they replace,
seeded trajectories pinned bit for bit, and the capacity check made once
per distinct assignment."""
import collections
import hashlib
import math
import re

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    EngineError,
    Link,
    LayeredNetwork,
    QueueState,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    analytic_report,
    check_min_delay_layered,
    construct_rate_proportional,
    fan_in_tree,
    full_connection,
    queue_proportional_rates,
    run,
    single_sink,
    tagged_run,
    validate,
)
from fluidq.engine import effective_flow
from fluidq.bench import make_policy, preset, sample_instance
from fluidq.policies import (
    CheckResult,
    QueueProportionalPolicy,
    StaticPolicy,
    _spread,
    _subtree_arrivals,
    _throughput_clause,
    check_min_delay_tree,
    parent_source_set,
    proportional_fill,
    tree_rate_proportional,
)

from conftest import adjacency

SEED = 20240811


def _mixed_net(rng, sizes, capacity, fan=0.5):
    """Random layered net whose layers mix fanned sources and sources with
    a single out-link (each source fans out further with probability
    ``fan``); every node keeps an in-link and an out-link."""
    links = []
    for l in range(len(sizes) - 1):
        n, m = sizes[l], sizes[l + 1]
        pairs = {(i, int(rng.integers(m))) for i in range(n)}
        pairs |= {(int(rng.integers(n)), j) for j in range(m)}
        for i in range(n):
            if rng.random() < fan:
                pairs |= {(i, int(j)) for j in rng.choice(m, size=min(m, 2), replace=False)}
        for i, j in sorted(pairs):
            links.append(Link(l, i, j, float(capacity(rng))))
    return LayeredNetwork(sizes, links)


def _reference_rates(state, net, svc, gamma=None, arr=None, dt=0.0):
    """The per-node, per-link loop that ``queue_proportional_rates`` ran
    before it was vectorized (multi-node egress layers only).  Returns the
    rate vector and whether capacity clipped it."""
    total_service = svc.total
    values = np.zeros(net.num_links)
    clipped = False
    adj = adjacency(net)
    for l in range(net.num_layers - 1):
        ids = list(net.layer_nodes(l))
        shares = state.q[ids].astype(float).copy()
        if l == 0 and arr is not None and dt > 0:
            shares = shares + arr.rates * dt
        if shares.sum() <= 0:
            shares = np.ones(len(ids))
        if gamma is not None:
            node_egress = shares / gamma[l]
            scale_up = total_service / node_egress.sum() if node_egress.sum() > 0 else 1.0
            if scale_up > 1.0:
                node_egress = node_egress * scale_up
        else:
            node_egress = total_service * shares / shares.sum()
        mass = svc.rates if l == net.num_layers - 2 else np.ones(net.layer_sizes[l + 1])
        share = mass / mass.sum()
        for local, nid in enumerate(ids):
            out = adj.out[nid]
            if len(out) == 1:
                values[out[0]] = node_egress[local]
            else:
                for lk in out:
                    values[lk] = node_egress[local] * share[net.links[lk].dst]
            factor = 1.0
            for lk in out:
                cap = net.links[lk].capacity
                if values[lk] > cap:
                    factor = min(factor, cap / values[lk])
            if factor < 1.0:
                clipped = True
                for lk in out:
                    values[lk] *= factor
    return values, clipped


# ---------------------------------------------------------------------------
# the plan


def test_plan_is_built_lazily_once_and_matches_the_links():
    rng = np.random.default_rng(3)
    net = _mixed_net(rng, (5, 4, 3, 2), lambda r: r.uniform(1, 5))
    assert "plan" not in vars(net)  # construction does not build it
    plan = net.plan
    assert net.plan is plan
    assert [layer.index for layer in plan] == [0, 1, 2]
    adj = adjacency(net)
    for layer in plan:
        ids = adj.layers[layer.index]
        assert np.array_equal(np.arange(net.num_links)[layer.links], ids)
        assert layer.lo == net.node_id(layer.index, 0)
        assert layer.next_lo == net.node_id(layer.index + 1, 0)
        assert np.array_equal(layer.lo + layer.src_local, net.link_src[ids])
        assert np.array_equal(layer.next_lo + layer.dst_local, net.link_dst[ids])
        assert np.array_equal(layer.srcs[layer.src_of], net.link_src[ids])
        assert np.array_equal(net.capacities[layer.links], net.capacities[ids])
        degree = np.array([len(adj.out[s]) for s in net.link_src[ids]])
        assert np.array_equal(layer.single, degree == 1)
        for s, src in enumerate(layer.srcs):
            assert tuple(ids[layer.starts[s] : layer.ends[s]]) == adj.out[src]
        assert not any(a.flags.writeable for a in layer if isinstance(a, np.ndarray))


def _linkless_layer_net():
    """A 3-2-2-2 network whose link layer 1 has no links (validation
    rejects it for the dangling nodes)."""
    links = [Link(0, i, j, 3.0) for i in range(3) for j in range(2)]
    links += [Link(2, i, j, 2.0) for i in range(2) for j in range(2)]
    return LayeredNetwork((3, 2, 2, 2), links)


@pytest.mark.parametrize("name", ["full", "tree", "nx1", "linkless"])
def test_plan_entry_l_is_link_layer_l(name):
    net = {
        "full": lambda: full_connection((3, 4, 2), 5.0),
        "tree": lambda: fan_in_tree((4, 2, 1), [[0, 0, 1, 1], [0, 0]]),
        "nx1": lambda: single_sink(3, [1.0, 2.0, 3.0]),
        "linkless": _linkless_layer_net,
    }[name]()
    assert len(net.plan) == net.num_layers - 1
    for l, layer in enumerate(net.plan):
        assert layer.index == l
        assert layer is net.plan_of(l, l)
        assert (layer.lo, layer.next_lo) == (net.node_id(l, 0), net.node_id(l + 1, 0))
    if name == "linkless":
        empty = net.plan[1]
        assert empty.links == slice(6, 6)
        assert empty.srcs.size == empty.src_local.size == empty.single.size == 0


def test_closed_forms_on_a_layer_without_links_keep_their_values():
    """``effective_flow`` and ``queue_proportional_rates`` on the
    linkless-layer network give the values recorded when the plan still
    left that layer out."""
    net = _linkless_layer_net()
    arr, svc = ArrivalProfile([2.0, 1.0, 3.0]), ServiceProfile([1.0, 0.5])
    values = np.array([1.0, 0.5, 2.0, 0.25, 1.5, 0.75, 1.0, 0.5, 0.25, 2.0])
    g_tilde, inflow, set_out, sinks = effective_flow(net, arr, values)
    assert g_tilde.tolist() == [
        1.0, 0.5, 0.8888888888888888, 0.1111111111111111, 1.5, 0.75, 0.0, 0.0, 0.0, 0.0
    ]
    assert inflow.tolist() == [2.0, 1.0, 3.0, 3.388888888888889, 1.3611111111111112,
                               0.0, 0.0, 0.0, 0.0]
    assert set_out.tolist() == [1.5, 2.25, 2.25, 0.0, 0.0, 1.5, 2.25, 0.0, 0.0]
    assert sinks == [(1, 0), (1, 1)]

    gamma = (2.0, 1.5, 1.0, 1.0)
    q = QueueState(np.array([3.0, 1.0, 2.0, 4.0, 1.0, 2.0, 5.0, 0.0, 0.0]), 0.0)
    zero = QueueState(np.zeros(net.num_nodes), 0.0)
    third, sixth = 0.3333333333333333, 0.6666666666666666
    sevenths = [0.2857142857142857, 0.14285714285714285, 0.7142857142857142,
                0.3571428571428571]
    cases = [
        ((q, None), [0.375, 0.375, 0.125, 0.125, 0.25, 0.25] + sevenths),
        ((q, None, arr, 0.5),
         [third, third, 0.125, 0.125, 0.2916666666666667, 0.2916666666666667] + sevenths),
        ((q, gamma), [0.75, 0.75, 0.25, 0.25, 0.5, 0.5, 1.3333333333333333, sixth, 2.0, 1.0]),
        ((q, gamma, arr, 0.5),
         [1.0, 1.0, 0.375, 0.375, 0.875, 0.875, 1.3333333333333333, sixth, 2.0, 1.0]),
        ((zero, None), [0.25] * 6 + [0.5, 0.25, 0.5, 0.25]),
        ((zero, gamma), [0.25] * 6 + [sixth, third, sixth, third]),
    ]
    for (state, g, *smoothing), expected in cases:
        got = queue_proportional_rates(state, net, svc, g, *smoothing)
        assert got.values.tolist() == expected, (g, smoothing)


def test_plan_of_a_run_of_layers_joins_the_layer_plans():
    rng = np.random.default_rng(4)
    net = _mixed_net(rng, (5, 4, 3, 2, 3), lambda r: r.uniform(1, 5))
    assert net.plan_of(1, 1) is net.plan[1]  # the layer plans are the one-layer runs
    run = net.plan_of(1, 3)
    assert net.plan_of(1, 3) is run
    layers = net.plan[1:4]
    adj = adjacency(net)
    ids = np.concatenate([adj.layers[layer.index] for layer in layers])
    assert np.array_equal(np.arange(net.num_links)[run.links], ids)
    assert (run.index, run.lo, run.next_lo) == (1, net.node_id(1, 0), net.node_id(2, 0))
    assert run.lo + run.width == net.node_id(4, 0)
    assert run.next_lo + run.next_width == net.num_nodes
    assert np.array_equal(run.srcs, np.concatenate([layer.srcs for layer in layers]))
    assert np.array_equal(run.single, np.concatenate([layer.single for layer in layers]))
    assert np.array_equal(run.lo + run.src_local, net.link_src[ids])
    assert np.array_equal(run.next_lo + run.dst_local, net.link_dst[ids])
    assert np.array_equal(run.srcs[run.src_of], net.link_src[ids])
    for s, src in enumerate(run.srcs):
        assert tuple(ids[run.starts[s] : run.ends[s]]) == adj.out[src]


# ---------------------------------------------------------------------------
# vectorized queue-proportional rates against the per-node loop


@pytest.mark.parametrize("case", range(60))
def test_queue_proportional_matches_per_node_loop(case):
    rng = np.random.default_rng([SEED, case])
    sizes = tuple(int(n) for n in rng.integers(2, 7, size=int(rng.integers(2, 5))))
    if case % 3 == 0:  # fully connected: every source fanned
        net = full_connection(sizes, float(rng.uniform(0.5, 6.0)))
    else:  # mostly single out-links, or a mix
        fan = 0.0 if case % 3 == 1 else 0.5
        net = _mixed_net(rng, sizes, lambda r: r.uniform(0.5, 6.0), fan)
    arr = ArrivalProfile(rng.integers(1, 10, size=sizes[0]).astype(float))
    svc = ServiceProfile(rng.integers(1, 8, size=sizes[-1]).astype(float))
    q = rng.uniform(0, 20, size=net.num_nodes) * (rng.random(net.num_nodes) < 0.7)
    if case % 5 == 0:
        q[:] = 0.0  # zero backlogs: arrivals smooth the ingress shares
    gamma = None
    if case % 2:
        gamma = tuple(rng.uniform(0.3, 3.0, size=net.num_layers))
    state = QueueState(q, 0.0)
    dt = 0.0 if case % 7 == 0 else 0.01
    expected, _ = _reference_rates(state, net, svc, gamma, arr, dt)
    got = queue_proportional_rates(state, net, svc, gamma, arr, dt)
    assert np.array_equal(got.values, expected)


def test_queue_proportional_match_covers_clipping_and_single_links(caplog):
    """On mixed nets with tight capacities the rates match the loop, many
    calls clip, and a warning is logged exactly when the loop clipped."""
    import logging

    clipped_cases = singles = 0
    for case in range(40):
        rng = np.random.default_rng([SEED, 99, case])
        net = _mixed_net(rng, (6, 5, 4), lambda r: r.uniform(0.2, 3.0))
        arr = ArrivalProfile(rng.integers(1, 10, size=6).astype(float))
        svc = ServiceProfile(rng.integers(2, 9, size=4).astype(float))
        state = QueueState(rng.uniform(0, 9, size=net.num_nodes), 0.0)
        expected, clipped = _reference_rates(state, net, svc, None, arr, 0.01)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fluidq"):
            got = queue_proportional_rates(state, net, svc, None, arr, 0.01)
        assert np.array_equal(got.values, expected)
        assert bool(caplog.records) == clipped
        clipped_cases += clipped
        singles += any(layer.single.any() for layer in net.plan)
    assert clipped_cases >= 10 and singles >= 30


def test_queue_proportional_on_a_tree_matches_loop():
    net = fan_in_tree([4, 2, 1], [[0, 0, 1, 1], [0, 0]], capacity=2.0)
    arr = ArrivalProfile([3.0, 1.0, 4.0, 1.0])
    svc = ServiceProfile([2.0])
    for q in ([5.0, 1.0, 0.0, 2.0, 3.0, 0.5, 1.0], [0.0] * 7):
        state = QueueState(np.array(q), 0.0)
        expected, _ = _reference_rates(state, net, svc, None, arr, 0.1)
        got = queue_proportional_rates(state, net, svc, None, arr, 0.1)
        assert np.array_equal(got.values, expected)


def _per_layer_weights(net, svc):
    """``_split_weights`` as it was, one array per plan layer."""
    weights = []
    for layer in net.plan:
        mass = svc.rates if layer.index == net.num_layers - 2 else np.ones(layer.next_width)
        share = mass / mass.sum()
        weights.append(np.where(layer.single, 1.0, share[layer.dst_local]))
    return weights


def _per_layer_rates(state, net, svc, gamma, arr, dt, branches):
    """``_queue_proportional`` as it ran one plan layer at a time, before
    the whole-network arrays; ``branches`` collects the branches taken."""
    weights = _per_layer_weights(net, svc)
    total_service = svc.total
    values = np.zeros(net.num_links)
    clipped = False
    for layer, weight in zip(net.plan, weights):
        l = layer.index
        shares = state.q[layer.lo : layer.next_lo].astype(float)
        if l == 0 and arr is not None and dt > 0:
            shares = shares + arr.rates * dt
        if shares.sum() <= 0:
            branches.add("zero-backlog layer")
            shares = np.ones(layer.width)

        if net.is_single_sink():
            branches.add("single sink")
            budget = total_service
            if gamma is not None:
                budget = max(budget, shares.sum() / gamma[0])
            values = proportional_fill(shares, net.capacities, budget)
            return values, values.sum() < budget - 1e-9 * max(1.0, budget)

        if gamma is not None:
            node_egress = shares / gamma[l]
            scale_up = total_service / node_egress.sum() if node_egress.sum() > 0 else 1.0
            if scale_up > 1.0:
                branches.add("gamma scaled up")
                node_egress = node_egress * scale_up
            else:
                branches.add("gamma as is")
        else:
            branches.add("no gamma")
            node_egress = total_service * shares / shares.sum()
        v = node_egress[layer.src_local] * weight
        caps = net.capacities[layer.links]
        over = v > caps
        if over.any():
            branches.add("capacity clip")
            factor = np.ones(layer.width)
            np.minimum.at(factor, layer.src_local[over], caps[over] / v[over])
            v = v * factor[layer.src_local]
            clipped = True
        values[layer.links] = v
    return values, clipped


def _ragged_net(rng, capacity):
    """A multi-layer net of uneven layers, some of 9 to 13 nodes, so that
    layers start at odd node offsets."""
    sizes = [int(rng.integers(1, 6)) * 2 + 1]
    for _ in range(int(rng.integers(2, 5))):
        sizes.append(int(rng.integers(9, 14)) if rng.random() < 0.6 else int(rng.integers(1, 6)))
    return _mixed_net(rng, tuple(sizes), capacity, fan=float(rng.uniform(0.2, 0.9)))


def test_whole_network_queue_proportional_matches_per_layer_code(caplog):
    """On 160 seeded nets (full, mixed, fan-in trees, ragged, single-sink)
    the whole-network rates equal the per-layer ones bit for bit, through
    the function and through the policy, with and without gamma, at dt = 0,
    with zero-backlog layers and with capacity clipping."""
    import logging

    branches = set()
    shapes = collections.Counter()
    for case in range(160):
        rng = np.random.default_rng([SEED, 14, case])
        cap = lambda r, hi=float(rng.uniform(0.5, 8.0)): r.uniform(0.2, hi)
        kind = case % 5
        if kind == 0:
            sizes = tuple(int(n) for n in rng.integers(2, 10, size=int(rng.integers(2, 6))))
            net = full_connection(sizes, float(rng.uniform(0.5, 8.0)))
        elif kind == 1:
            sizes = tuple(int(n) for n in rng.integers(2, 8, size=int(rng.integers(3, 6))))
            net = _mixed_net(rng, sizes, cap)
        elif kind == 2:
            sizes = sorted((int(n) for n in rng.integers(1, 12, size=3)), reverse=True)
            net = _random_fan_in_tree(rng, tuple(sizes) + (1,), float(rng.uniform(1, 9)))
        elif kind == 3:
            net = _ragged_net(rng, cap)
        else:
            net = full_connection((int(rng.integers(2, 12)), 1), float(rng.uniform(1, 9)))
        shapes[kind] += 1
        shapes["wide layer at an odd offset"] += any(
            net.layer_sizes[l] >= 9 and net.node_id(l, 0) % 2 for l in range(net.num_layers)
        )
        arr = ArrivalProfile(rng.uniform(0.5, 9.0, size=net.layer_sizes[0]))
        svc = ServiceProfile(rng.uniform(0.5, 6.0, size=net.layer_sizes[-1]))
        gamma = None
        if case % 2:
            gamma = tuple(float(g) for g in rng.uniform(0.2, 4.0, size=net.num_layers))
        policy = QueueProportionalPolicy(gamma)
        for step in range(4):
            q = rng.uniform(0, 30, size=net.num_nodes) * (rng.random(net.num_nodes) < 0.8)
            if step == 1 and case % 3:  # one layer without backlog
                l = int(rng.integers(net.num_layers))
                q[list(net.layer_nodes(l))] = 0.0
            elif step == 1:  # no backlog anywhere
                q[:] = 0.0
            dt = (0.0, 0.01, 0.5, 0.0)[step]
            state = QueueState(q, step * 0.1)
            expected, clipped = _per_layer_rates(state, net, svc, gamma, arr, dt, branches)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fluidq"):
                got = queue_proportional_rates(state, net, svc, gamma, arr, dt)
            assert np.array_equal(got.values, expected), (case, step)
            assert bool(caplog.records) == bool(clipped)
            stepped = policy.rates(state, net, arr, svc, dt)
            assert np.array_equal(stepped.values, expected), (case, step)
    assert branches == {
        "zero-backlog layer", "single sink", "gamma scaled up", "gamma as is",
        "no gamma", "capacity clip",
    }
    assert [shapes[kind] for kind in range(5)] == [32] * 5
    assert shapes["wide layer at an odd offset"] >= 20


def test_queue_proportional_policy_rebuilds_for_a_new_service_profile():
    rng = np.random.default_rng([SEED, 15])
    net = _ragged_net(rng, lambda r: r.uniform(2.0, 9.0))
    arr = ArrivalProfile(rng.uniform(1, 5, size=net.layer_sizes[0]))
    state = QueueState(rng.uniform(0, 9, size=net.num_nodes), 0.0)
    policy = QueueProportionalPolicy()
    for _ in range(3):
        svc = ServiceProfile(rng.uniform(0.5, 6.0, size=net.layer_sizes[-1]))
        expected, _ = _per_layer_rates(state, net, svc, None, arr, 0.1, set())
        assert np.array_equal(policy.rates(state, net, arr, svc, 0.1).values, expected)


# ---------------------------------------------------------------------------
# rate-proportional construction on the plan against the per-node loop


def _reference_construct(net, arr, svc, gamma):
    """The per-node loop that ``construct_rate_proportional`` ran before it
    was built on the plan.  Returns the rate vector or the rejection."""
    adj = adjacency(net)
    for l in range(net.num_layers - 1):
        full = adj.layers[l].size == net.layer_sizes[l] * net.layer_sizes[l + 1]
        unique = all(len(adj.out[nid]) == 1 for nid in net.layer_nodes(l))
        if not (full or unique):
            return f"layers {l + 1}-{l + 2} are neither fully connected nor single-child"
    ratio = arr.total / svc.total
    if not abs(math.prod(gamma) - ratio) <= 1e-9 * max(1.0, ratio):
        return "gamma product"
    values = np.zeros(net.num_links)
    ingress = arr.rates.copy()
    for l in range(net.num_layers - 1):
        node_egress = ingress / gamma[l]
        next_size = net.layer_sizes[l + 1]
        mass = svc.rates if l == net.num_layers - 2 else np.ones(next_size)
        if len(mass) != next_size or np.any(mass <= 0):
            return f"bad egress masses for layer {l + 2}"
        nxt = np.zeros(next_size)
        for nid in net.layer_nodes(l):
            _, i = net.node_coords(nid)
            out = adj.out[nid]
            if len(out) == 1:
                values[out[0]] = node_egress[i]
                nxt[net.links[out[0]].dst] += node_egress[i]
            else:
                share = mass / mass.sum()
                for lk in out:
                    j = net.links[lk].dst
                    values[lk] = node_egress[i] * share[j]
                    nxt[j] += values[lk]
        ingress = nxt
    for k, link in enumerate(net.links):
        if values[k] > link.capacity + 1e-9 * max(1.0, values[k]):
            return f"link {link.layer + 1}:{link.src + 1}:{link.dst + 1} needs"
    return values


def _random_fan_in_tree(rng, sizes, capacity):
    parents = []
    for n, m in zip(sizes[:-1], sizes[1:]):
        p = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        rng.shuffle(p)
        parents.append([int(v) for v in p])
    return fan_in_tree(sizes, parents, capacity)


def test_construct_rate_proportional_matches_per_node_loop():
    """Bit-identical vectors and the same rejections on full connections,
    fan-in trees and non-constructible nets (sparse layers, a layer with no
    links, a zero service rate), with and without capacities."""
    outcomes = collections.Counter()
    for case in range(400):
        rng = np.random.default_rng([SEED, 7, case])
        num_layers = int(rng.integers(2, 6))
        cap = float(rng.uniform(0.5, 20.0)) if case % 4 else math.inf
        if case % 2:
            sizes = tuple(int(n) for n in rng.integers(1, 7, size=num_layers))
            net = full_connection(sizes, cap)
            if case % 10 == 1:
                empty = int(rng.integers(num_layers - 1))
                keep = [ln for ln in net.links if rng.random() < 0.7 and ln.layer != empty]
                net = LayeredNetwork(sizes, keep)
        else:
            sizes = tuple(sorted(rng.integers(1, 9, size=num_layers - 1), reverse=True)) + (1,)
            net = _random_fan_in_tree(rng, sizes, cap)
        arr = ArrivalProfile(rng.uniform(0.5, 10.0, size=sizes[0]).round(case % 3))
        mu = rng.uniform(0.5, 10.0, size=sizes[-1]).round(case % 4)
        if case % 10 == 3 and mu.size > 1:
            mu[0] = 0.0
        svc = ServiceProfile(mu)
        gamma = rng.uniform(0.3, 3.0, size=num_layers)
        if case % 13:  # consistent with maximum throughput
            gamma[-1] = arr.total / svc.total / math.prod(gamma[:-1])
        expected = _reference_construct(net, arr, svc, tuple(gamma))
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                construct_rate_proportional(net, arr, svc, gamma)
            outcomes[expected.split(" ")[0]] += 1
        else:
            got = construct_rate_proportional(net, arr, svc, gamma).values
            assert got.tobytes() == expected.tobytes(), case
            outcomes["built"] += 1
    # every rejection kind is reached: split, gamma product, masses, capacity
    assert outcomes["built"] >= 200
    assert min(outcomes[k] for k in ("layers", "gamma", "bad")) >= 10
    assert outcomes["link"] >= 30


# ---------------------------------------------------------------------------
# oracles on the link arrays and the plan against per-node link lists


def _reference_validate(net, adj):
    """``validate``'s capacity and dangling-node messages, from per-node
    link lists."""
    errors = [
        f"nonpositive capacity: link {ln.layer + 1}:{ln.src + 1}:{ln.dst + 1} "
        f"capacity = {ln.capacity}"
        for ln in net.links
        if not ln.capacity > 0
    ]
    for l in range(net.num_layers):
        for i, nid in enumerate(net.layer_nodes(l)):
            if l < net.num_layers - 1 and not adj.out[nid]:
                errors.append(f"dangling node: layer {l + 1} node {i + 1} has no egress link")
            if l > 0 and not adj.into[nid]:
                errors.append(f"dangling node: layer {l + 1} node {i + 1} has no ingress link")
    return errors


def _reference_is_fan_in_tree(net, adj):
    inner = [nid for l in range(net.num_layers - 1) for nid in net.layer_nodes(l)]
    fed = [nid for l in range(1, net.num_layers) for nid in net.layer_nodes(l)]
    return (
        net.layer_sizes[-1] == 1
        and all(len(adj.out[nid]) == 1 for nid in inner)
        and all(adj.into[nid] for nid in fed)
    )


def _reference_parent_sets(net):
    pss = [set() for _ in range(net.num_nodes)]
    for i, nid in enumerate(net.ingress_nodes):
        pss[nid] = {i}
    for ln in net.links:  # sorted by layer
        pss[net.node_id(ln.layer + 1, ln.dst)] |= pss[net.node_id(ln.layer, ln.src)]
    return [frozenset(s) for s in pss]


def _reference_tree_check(net, arr, svc, rates, adj, lam, tol=1e-9):
    residuals = {}
    for l in range(1, net.num_layers):
        for j, nid in enumerate(net.layer_nodes(l)):
            into = list(adj.into[nid])
            g_in = rates.values[into]
            if np.any(g_in <= 0):
                return CheckResult(False, f"zero rate into layer {l + 1} node {j + 1}")
            lam_in = np.array([lam[net.node_id(l - 1, net.links[k].src)] for k in into])
            dev = _spread(lam_in / g_in)
            residuals[f"node_{l + 1}_{j + 1}_ratio_spread"] = dev
            if not dev <= tol:
                return CheckResult(
                    False,
                    f"link rates into layer {l + 1} node {j + 1} are not "
                    "proportional to their subtree arrival rates",
                    None,
                    residuals,
                )
    best = float(np.minimum(lam[list(net.egress_nodes)], svc.rates).sum())
    return _throughput_clause(net, arr, svc, rates.values, best, None, residuals, tol)


def _reference_single_hop(arr, svc, rows, cols, tol=1e-9):
    """The specialised single-hop rule that 2-layer networks were judged by
    before the layered check took them over: ingress totals ``rows``
    proportional to lambda, egress totals ``cols`` proportional to mu, and
    every egress node fed at least its service rate."""
    if np.any(rows <= 0):
        return CheckResult(False, "an ingress node has zero egress rate")
    residuals = {
        "ingress_ratio_spread": _spread(rows / arr.rates),
        "egress_ratio_spread": _spread(cols / svc.rates),
        "throughput_deficit": float(np.max(svc.rates - cols)),
    }
    clauses = (
        ("ingress_ratio_spread", tol, "ingress totals are not proportional to arrivals"),
        ("egress_ratio_spread", tol, "egress totals are not proportional to service rates"),
        ("throughput_deficit", tol * max(1.0, float(svc.rates.max())),
         "an egress node is fed below its service rate"),
    )
    for key, bound, reason in clauses:
        if not residuals[key] <= bound:
            return CheckResult(False, reason, None, residuals)
    gamma = (float((arr.rates / rows).mean()), float((cols / svc.rates).mean()))
    return CheckResult(True, None, gamma, residuals)


def _same_verdict(got, expected):
    """Same verdict, reason and residual keys; residual values and gamma
    within a few ulps (the sums behind them may run in another order)."""
    assert (got.ok, got.reason) == (expected.ok, expected.reason)
    assert list(got.residuals) == list(expected.residuals)
    for key, value in expected.residuals.items():
        assert got.residuals[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
    if expected.gamma is None:
        assert got.gamma is None
    else:
        assert got.gamma == pytest.approx(expected.gamma, rel=1e-12)
    return f"{got.ok}:{(got.reason or '').split(' ')[0]}"


def _oracle_net(rng, case):
    """A seeded full, mixed or fan-in-tree net.  One case in three has
    nonpositive and NaN capacities and dangling nodes: links dropped, or
    in a tree links moved to another child."""
    num_layers = 2 if case % 4 == 0 else int(rng.integers(3, 6))
    if case % 3 == 2:
        sizes = tuple(sorted(rng.integers(1, 7, size=num_layers - 1), reverse=True)) + (1,)
        net = _random_fan_in_tree(rng, sizes, math.inf)
    else:
        sizes = tuple(int(n) for n in rng.integers(1, 6, size=num_layers))
        if case % 3 == 0:
            net = full_connection(sizes, float(rng.uniform(1, 5)))
        else:
            net = _mixed_net(rng, sizes, lambda r: r.uniform(1, 5))
    if case % 9 >= 6:
        bad = rng.choice([0.0, -1.0, math.nan], size=net.num_links)
        links = []
        for k, ln in enumerate(net.links):
            cap = float(bad[k]) if rng.random() < 0.2 else ln.capacity
            if case % 3 == 2:  # one out-link per source: a moved link stays unique
                dst = ln.dst if rng.random() < 0.7 else int(rng.integers(sizes[ln.layer + 1]))
                links.append(Link(ln.layer, ln.src, dst, cap))
            elif rng.random() < 0.8:
                links.append(Link(ln.layer, ln.src, ln.dst, cap))
        net = LayeredNetwork(sizes, links)
    return net


def test_topology_oracles_match_per_node_link_lists():
    """``validate``, ``is_fan_in_tree``, ``node_egress``/``node_ingress``,
    ``parent_source_set``, ``_subtree_arrivals`` and the tree checker
    against the per-node link lists they read before they moved onto the
    link arrays and the plan."""
    outcomes = collections.Counter()
    for case in range(180):
        rng = np.random.default_rng([SEED, 13, case])
        net = _oracle_net(rng, case)
        adj = adjacency(net)
        arr = ArrivalProfile(rng.uniform(0.5, 10.0, size=net.layer_sizes[0]).round(case % 2))
        svc = ServiceProfile(rng.uniform(0.5, 10.0, size=net.layer_sizes[-1]))
        expected = _reference_validate(net, adj)
        assert validate(net, arr, svc) == expected, case
        outcomes["dangling"] += any(e.startswith("dangling") for e in expected)
        outcomes["capacity"] += any(e.startswith("nonpositive capacity") for e in expected)
        tree = _reference_is_fan_in_tree(net, adj)
        assert net.is_fan_in_tree() == tree, case
        rates = RateAssignment(net, rng.uniform(0.0, 3.0, size=net.num_links))
        for nid in range(net.num_nodes):
            out, into = list(adj.out[nid]), list(adj.into[nid])
            assert rates.node_egress(nid) == float(rates.values[out].sum()), case
            assert rates.node_ingress(nid) == float(rates.values[into].sum()), case
        if expected:
            continue
        if not tree:
            continue
        pss = _reference_parent_sets(net)
        assert parent_source_set(net) == pss, case
        lam = np.array([sum(arr.rates[i] for i in s) for s in pss])
        subtree = _subtree_arrivals(net, arr, "check")
        if case % 2 == 0:  # integer arrival rates: every sum is exact
            assert subtree.tobytes() == lam.tobytes(), case
            if not net.bounded:  # the sampled trees; opt-tree ignores capacity there
                scale = max(0.0, min(float(svc.rates[0]), lam[-1]) / lam[-1])
                opt_tree = tree_rate_proportional(net, arr, svc).values
                assert opt_tree.tobytes() == (scale * lam[net.link_src]).tobytes(), case
                outcomes["opt-tree"] += 1
        else:
            assert subtree == pytest.approx(lam, rel=1e-14), case
        good = lam[net.link_src] * float(rng.uniform(0.2, 2.0))
        skewed, starved = good.copy(), good.copy()
        skewed[int(rng.integers(net.num_links))] *= 1.5
        starved[int(rng.integers(net.num_links))] = 0.0
        for values in (good, skewed, starved):
            g = RateAssignment(net, values)
            got = check_min_delay_tree(net, arr, svc, g)
            outcomes["tree " + _same_verdict(got, _reference_tree_check(net, arr, svc, g, adj, lam))] += 1
    # every branch is reached: both injections, and each checker's verdicts
    assert min(outcomes[k] for k in ("dangling", "capacity", "opt-tree")) >= 10, outcomes
    for kind in ("tree True:", "tree False:zero", "tree False:link", "tree False:maximum"):
        assert outcomes[kind] >= 3, (kind, outcomes)


def _two_layer_draw(rng, case):
    """A seeded 2-layer instance and rate vector on 1-5 by 1-5 nodes, fully
    or partly connected, with finite capacities above the rates or none.
    Rates are drawn first; in two cases of three lambda and mu are then
    read off their row and column totals at random ratios c and d, so the
    vector is rate-proportional, or it is with one link zeroed or scaled
    (by as little as 1 + 1e-6).
    The third case draws lambda, mu and the rates independently."""
    n, m = (int(x) for x in rng.integers(1, 6, size=2))
    if case % 2:
        pairs = [(i, j) for i in range(n) for j in range(m)]
    else:
        pairs = sorted(
            {(i, int(rng.integers(m))) for i in range(n)}
            | {(int(rng.integers(n)), j) for j in range(m)}
            | {(i, j) for i in range(n) for j in range(m) if rng.random() < 0.3}
        )
    flow = rng.uniform(0.1, 3.0, size=len(pairs))
    kind = case % 3
    if kind == 2:
        flow[rng.random(len(pairs)) < 0.2] = 0.0
    caps = np.full(len(pairs), math.inf)
    if case % 4 < 2:
        caps = flow * rng.uniform(2.0, 3.0, size=len(pairs)) + 0.1  # above any scaled link
    net = LayeredNetwork((n, m), [Link(0, i, j, float(c)) for (i, j), c in zip(pairs, caps)])
    rows = np.bincount(net.link_src, weights=flow, minlength=n)
    cols = np.bincount(net.link_dst - n, weights=flow, minlength=m)
    if kind == 2:
        lam, mu = rng.uniform(0.5, 10.0, size=n), rng.uniform(0.5, 10.0, size=m)
    else:
        c, d = np.exp(rng.uniform(-1.5, 1.5, size=2))
        if case % 5 == 0:
            d = 1.0  # egress nodes fed exactly their service rates
        lam, mu = rows / c, cols / d
        if kind == 1:
            k = int(rng.integers(len(pairs)))
            scale = 1.0 + 1e-6 if case % 11 == 0 else rng.uniform(1.2, 2.0)
            flow[k] = 0.0 if case % 7 == 0 else flow[k] * scale
    return net, ArrivalProfile(lam), ServiceProfile(mu), RateAssignment(net, flow)


def test_layered_check_on_two_layer_networks_matches_the_single_hop_rule():
    """The layered check on 2-layer networks against the single-hop rule it
    replaced (:func:`_reference_single_hop`).  Overloaded (sum lambda >= sum
    mu): the same verdict and the same gamma.  Underloaded: it accepts every
    vector the rule accepts, and a vector that only it accepts serves every
    arrival at once, so its analytic d_avg is the minimum, 0."""
    outcomes = collections.Counter()
    for case in range(600):
        rng = np.random.default_rng([SEED, 27, case])
        net, arr, svc, g = _two_layer_draw(rng, case)
        adj = adjacency(net)
        rows = np.array([g.values[list(adj.out[n])].sum() for n in net.ingress_nodes])
        cols = np.array([g.values[list(adj.into[n])].sum() for n in net.egress_nodes])
        expected = _reference_single_hop(arr, svc, rows, cols)
        got = check_min_delay_layered(net, arr, svc, g)
        load = "over" if arr.total >= svc.total else "under"
        if load == "over" or expected.ok:
            assert got.ok == expected.ok, (case, got, expected)
            assert got.gamma == expected.gamma or not got.ok, (case, got, expected)
        elif got.ok:
            report = analytic_report(net, arr, svc, g, horizon=10.0)
            assert report.d_avg <= 1e-9, (case, report)
            outcomes["under, only the layered check accepts"] += 1
        shape = "full" if net.num_links == net.layer_sizes[0] * net.layer_sizes[1] else "partial"
        bound = "bounded" if net.bounded else "unbounded"
        outcomes[f"{load} {got.ok} {shape} {bound}"] += 1
        reason = " ".join((expected.reason or "").split(" ")[:2])
        outcomes[f"{load} {expected.ok} {reason}"] += 1
    # every branch is reached: each load, verdict, shape and capacity, and
    # each clause of the reference rule
    for load in ("over", "under"):
        for ok in (True, False):
            for shape in ("full", "partial"):
                for bound in ("bounded", "unbounded"):
                    assert outcomes[f"{load} {ok} {shape} {bound}"] >= 3, outcomes
        for reason in ("an ingress", "ingress totals", "egress totals", "an egress"):
            assert outcomes[f"{load} False {reason}"] >= 3, (load, reason, outcomes)
    assert outcomes["under, only the layered check accepts"] >= 10, outcomes


# ---------------------------------------------------------------------------
# seeded trajectories pinned bit for bit


def _digest(traj) -> str:
    h = hashlib.sha256()
    for part in (traj.queues, traj.rates, traj.link_flow, traj.served):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()[:16]


# (preset, mode, policy) -> digest of queues, rates, link flow and service,
# recorded with the per-node policy loop and the fluid step it replaces; the
# fluid max and opt-static runs (static rates) are read off exact segments,
# within 1.4e-14 of the largest backlog of the stepped runs first pinned here
PINNED = {
    ("nsxnd", "fluid", "opt-queue"): "cc59b7a52a578c5c",
    ("nsxnd", "fluid", "bp"): "7b107d015d01352c",
    ("nsxnd", "fluid", "max"): "9c393be0e8fafe57",
    ("nsxnd", "fluid", "opt-static"): "d87a1497882e1a16",
    ("nsxnd", "integer", "opt-queue"): "947e1509fbaf0554",
    ("nsxnd", "integer", "bp"): "52abdb99dad83a01",
    ("nsxnd", "integer", "max"): "a6a0eaf4678953e7",
    ("nsxnd", "integer", "opt-static"): "58fac2f6a2b98814",
    ("multistage-16x12x8x6", "fluid", "opt-queue"): "f11fe29819bb0229",
    ("multistage-16x12x8x6", "fluid", "bp"): "d72fadbb0f30cd4c",
    ("multistage-16x12x8x6", "fluid", "max"): "8f8a5ebc7691a3de",
    ("multistage-16x12x8x6", "fluid", "opt-static"): "ae29823d9ce283a3",
    ("multistage-16x12x8x6", "integer", "opt-queue"): "772f579e48809eb2",
    ("multistage-16x12x8x6", "integer", "bp"): "3c8ca4c7e8cddcd8",
    ("multistage-16x12x8x6", "integer", "max"): "42c496b6c9c5685f",
    ("multistage-16x12x8x6", "integer", "opt-static"): "1304cc9f81894f92",
    # dt 0.3 gives every arrival, link and service budget a fraction, so the
    # banks carry remainders and each diagonal's bank slice is exercised
    ("nsxnd", "integer-frac", "opt-queue"): "24c15c0d71d4ae34",
    ("nsxnd", "integer-frac", "bp"): "42f0217f7ada933c",
    ("nsxnd", "integer-frac", "max"): "4f94ef63fddf4b52",
    ("nsxnd", "integer-frac", "opt-static"): "fff71bf4dc5ffc02",
    ("multistage-16x12x8x6", "integer-frac", "opt-queue"): "371672f5e66173c0",
    ("multistage-16x12x8x6", "integer-frac", "bp"): "b6cc3c2615b6c747",
    ("multistage-16x12x8x6", "integer-frac", "max"): "b1a43407b4209ba0",
    ("multistage-16x12x8x6", "integer-frac", "opt-static"): "ebf4cd6a0866c5d5",
}
MODES = {
    "fluid": SimConfig(horizon=0.6, dt=0.01),
    "integer": SimConfig(horizon=30.0, dt=1.0, discretize=True),
    "integer-frac": SimConfig(horizon=9.0, dt=0.3, discretize=True),
}


def _pinned_run(family, mode, policy):
    inst = sample_instance(preset(family), np.random.default_rng([SEED, 7]), 0)
    return run(inst.net, inst.arr, inst.svc, make_policy(policy, inst), MODES[mode])


@pytest.mark.parametrize("key", sorted(PINNED), ids="/".join)
def test_seeded_trajectories_are_bit_identical(key):
    assert _digest(_pinned_run(*key)) == PINNED[key]


# ---------------------------------------------------------------------------
# capacity check once per distinct assignment


@pytest.fixture
def count_checks(monkeypatch):
    calls = []
    original = RateAssignment.capacity_violations

    def counted(self, tol=1e-9):
        calls.append(self)
        return original(self, tol)

    monkeypatch.setattr(RateAssignment, "capacity_violations", counted)
    return calls


def _small_instance():
    net = full_connection([2, 2], 3.0)
    return net, ArrivalProfile([2.0, 1.0]), ServiceProfile([1.0, 1.0])


class _Alternating:
    """Returns assignment a, a, b, b, a, a, ... (new objects only on change)."""

    def __init__(self, a, b):
        self.pair, self.calls = (a, b), 0

    def rates(self, state, net, arr, svc, dt):
        self.calls += 1
        return self.pair[(self.calls - 1) // 2 % 2]


@pytest.mark.parametrize("discretize", [False, True])
def test_static_assignment_is_capacity_checked_once_per_run(count_checks, discretize):
    net, arr, svc = _small_instance()
    a = RateAssignment(net, [1.0, 0.5, 0.5, 1.0])
    cfg = SimConfig(horizon=10.0, dt=1.0, discretize=discretize)
    run(net, arr, svc, StaticPolicy(a), cfg)
    assert count_checks == [a]
    count_checks.clear()
    run(net, arr, svc, a, cfg)  # a bare assignment too, once more per run
    assert count_checks == [a]


@pytest.mark.parametrize("discretize", [False, True])
def test_changed_assignment_is_checked_again(count_checks, discretize):
    net, arr, svc = _small_instance()
    a = RateAssignment(net, [1.0, 0.5, 0.5, 1.0])
    b = RateAssignment(net, [2.0, 0.0, 0.0, 2.0])
    cfg = SimConfig(horizon=10.0, dt=1.0, discretize=discretize)
    run(net, arr, svc, _Alternating(a, b), cfg)
    assert count_checks == [a, b, a, b, a]


@pytest.mark.parametrize("discretize", [False, True])
def test_over_capacity_assignment_still_fails_after_a_good_one(discretize):
    net, arr, svc = _small_instance()
    good = RateAssignment(net, [1.0, 0.5, 0.5, 1.0])
    bad = RateAssignment(net, [4.0, 0.0, 0.0, 1.0])  # 4 > capacity 3
    cfg = SimConfig(horizon=10.0, dt=1.0, discretize=discretize)
    with pytest.raises(EngineError, match="exceed capacity"):
        run(net, arr, svc, _Alternating(good, bad), cfg)


def test_tagged_run_checks_a_static_policy_once(count_checks):
    net, arr, svc = _small_instance()
    a = RateAssignment(net, [1.0, 0.5, 0.5, 1.0])
    tagged_run(net, arr, svc, StaticPolicy(a), SimConfig(horizon=5.0, dt=1.0, discretize=True))
    assert count_checks == [a]
