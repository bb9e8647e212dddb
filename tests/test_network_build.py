"""LayeredNetwork built from link arrays, checked against the sorted-loop
constructor it replaced, and the integer and shape checks of the builders
and documents."""
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    LayeredNetwork,
    Link,
    NetworkFormatError,
    ObjectiveSpec,
    QueueProportionalPolicy,
    ServiceProfile,
    SimConfig,
    analytic_report,
    balanced_growth_gamma,
    co_optimize,
    construct_rate_proportional,
    fan_in_tree,
    full_connection,
    run,
    single_sink,
    tagged_run,
)
from fluidq.network import LayerPlan, doc_to_network

POSITIVE = (math.inf, 1.0, 2.5, 4.0)
CAPACITIES = POSITIVE + (math.nan, -math.inf, 0.0, -1.5)


def _reference_network(layer_sizes, links):
    """The constructor that LayeredNetwork used before it was built from
    link arrays: sort the Link objects, check each in a Python loop with a
    ``seen`` set, and read the arrays and the network's defects off the
    sorted links.  ``layer_sizes`` must be valid."""
    sizes = tuple(int(n) for n in layer_sizes)
    offsets = [0]
    for n in sizes:
        offsets.append(offsets[-1] + n)
    seen = set()
    ordered = []
    for link in sorted(links):
        if not 0 <= link.layer < len(sizes) - 1:
            raise ValueError(f"link {link.name}: layer out of range")
        if not 0 <= link.src < sizes[link.layer]:
            raise ValueError(f"link {link.name}: source index out of range")
        if not 0 <= link.dst < sizes[link.layer + 1]:
            raise ValueError(f"link {link.name}: destination index out of range")
        if link.key in seen:
            raise ValueError(f"duplicate link {link.name}")
        seen.add(link.key)
        ordered.append(link)
    keys = np.array([link.key for link in ordered], dtype=np.intp).reshape(-1, 3)
    first = np.array(offsets, dtype=np.intp)
    net = SimpleNamespace(
        layer_sizes=sizes,
        _offsets=tuple(offsets),
        links=tuple(ordered),
        link_index={link.key: k for k, link in enumerate(ordered)},
        capacities=np.array([link.capacity for link in ordered], dtype=float),
        bounded=not any(link.unbounded for link in ordered),
        link_src=first[keys[:, 0]] + keys[:, 1],
        link_dst=first[keys[:, 0] + 1] + keys[:, 2],
    )
    net.out_degree = np.bincount(net.link_src, minlength=offsets[-1])
    net.in_degree = np.bincount(net.link_dst, minlength=offsets[-1])

    defects = []
    for k in np.flatnonzero(~(net.capacities > 0)):
        link = ordered[k]
        defects.append(f"nonpositive capacity: link {link.name} capacity = {link.capacity}")
    for l, n in enumerate(sizes):
        for i in range(n):
            nid = offsets[l] + i
            if l < len(sizes) - 1 and net.out_degree[nid] == 0:
                defects.append(f"dangling node: layer {l + 1} node {i + 1} has no egress link")
            if l > 0 and net.in_degree[nid] == 0:
                defects.append(f"dangling node: layer {l + 1} node {i + 1} has no ingress link")
    net.defects = tuple(defects)
    net.plan = tuple(LayerPlan.build(net, l, l) for l in range(len(sizes) - 1))
    return net


def _same_link(a, b):
    return a.key == b.key and np.array_equal([a.capacity], [b.capacity], equal_nan=True)


def assert_same_network(net, ref):
    """``net`` holds the links, arrays, defects and layer plans of ``ref``
    (capacities equal as floats, NaN equal to NaN)."""
    assert net.layer_sizes == ref.layer_sizes
    assert len(net.links) == len(ref.links)
    assert all(_same_link(a, b) for a, b in zip(net.links, ref.links))
    assert net.link_index == ref.link_index
    assert np.array_equal(net.capacities, ref.capacities, equal_nan=True)
    for name in ("link_src", "link_dst", "out_degree", "in_degree"):
        got, expected = getattr(net, name), getattr(ref, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert net.bounded == ref.bounded
    assert net._defects == (ref.defects if hasattr(ref, "defects") else ref._defects)
    for got, expected in zip(net.plan, ref.plan, strict=True):
        assert (got.index, got.links, got.lo, got.width, got.next_lo, got.next_width) == (
            expected.index, expected.links, expected.lo, expected.width,
            expected.next_lo, expected.next_width,
        )
        for field in ("srcs", "starts", "ends", "src_of", "src_local", "dst_local", "single"):
            assert np.array_equal(getattr(got, field), getattr(expected, field)), field


def _draw(rng):
    """Seeded layer sizes and a shuffled Link list: 2-5 layers, each layer
    pair fully or partly connected, capacities from CAPACITIES.  Half the
    draws get one or two bad links: an index out of range by one, at either
    end, or a second link on an existing key."""
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 6))).tolist()
    links = []
    for l in range(len(sizes) - 1):
        keep = 1.0 if rng.random() < 0.5 else 0.6
        links += [
            Link(l, i, j, float(rng.choice(CAPACITIES)))
            for i in range(sizes[l])
            for j in range(sizes[l + 1])
            if rng.random() < keep
        ]
    for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.5 else 0):
        kind = rng.integers(4)
        if kind == 3 and links:
            twin = links[int(rng.integers(len(links)))]
            links.append(Link(*twin.key, float(rng.choice(CAPACITIES))))
            continue
        l = int(rng.integers(len(sizes) - 1))
        key = [l, int(rng.integers(sizes[l])), int(rng.integers(sizes[l + 1]))]
        bound = (len(sizes) - 1, sizes[l], sizes[l + 1])[kind % 3]
        key[kind % 3] = bound if rng.random() < 0.5 else -1
        links.append(Link(*key, 1.0))
    order = rng.permutation(len(links))
    return sizes, [links[k] for k in order]


def _outcome(build, *args):
    try:
        return build(*args), None
    except ValueError as exc:
        return None, str(exc)


def test_link_arrays_match_the_sorted_loop_constructor():
    rng = np.random.default_rng(20240811)
    kinds = dict.fromkeys(["valid", "layer", "source", "destination", "duplicate"], 0)
    for _ in range(600):
        sizes, links = _draw(rng)
        ref, expected = _outcome(_reference_network, sizes, links)
        net, message = _outcome(LayeredNetwork, sizes, links)
        assert message == expected, (sizes, links)
        if expected is None:
            assert_same_network(net, ref)
        kinds[next((k for k in kinds if k in (expected or "")), "valid")] += 1
    # every outcome is drawn
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize(
    "links, message",
    [
        ([Link(0, 0, 0), Link(1, 0, 0)], "link 2:1:1: layer out of range"),
        ([Link(-1, 0, 0)], "link 0:1:1: layer out of range"),
        ([Link(0, 2, 0)], "link 1:3:1: source index out of range"),
        ([Link(0, -1, 0)], "link 1:0:1: source index out of range"),
        ([Link(0, 0, 1)], "link 1:1:2: destination index out of range"),
        ([Link(0, 1, 0, 2.0), Link(0, 1, 0, 1.0)], "duplicate link 1:2:1"),
        # the first bad link in (layer, source, destination) order is named
        ([Link(0, 1, 1), Link(0, 1, 0), Link(0, 1, 0)], "duplicate link 1:2:1"),
        ([Link(0, 0, 0), Link(0, 0, 0), Link(0, 0, 5)], "duplicate link 1:1:1"),
        ([Link(0, 0, 5), Link(0, 3, 0)], "link 1:1:6: destination index out of range"),
    ],
)
def test_first_bad_link_in_key_order_is_named(links, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LayeredNetwork([2, 1], links)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _reference_network([2, 1], links)


def _links_of(sizes, caps):
    return [
        Link(l, i, j, float(caps[l][i, j]))
        for l in range(len(sizes) - 1)
        for i in range(sizes[l])
        for j in range(sizes[l + 1])
    ]


def test_array_builders_equal_the_network_of_their_link_lists():
    rng = np.random.default_rng(41)
    for _ in range(40):
        sizes = rng.integers(1, 6, size=int(rng.integers(2, 6))).tolist()
        caps = [rng.choice(CAPACITIES, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        links = _links_of(sizes, caps)
        rng.shuffle(links)
        assert_same_network(full_connection(sizes, caps), LayeredNetwork(sizes, links))
        assert_same_network(full_connection(sizes, caps), _reference_network(sizes, links))

        uniform = _links_of(sizes, [np.full((a, b), 3.0) for a, b in zip(sizes, sizes[1:])])
        assert_same_network(full_connection(sizes, 3.0), LayeredNetwork(sizes, uniform))

        child_of = [rng.integers(0, b, size=a).tolist() for a, b in zip(sizes, sizes[1:])]
        tree = [Link(l, i, j, 2.5) for l, row in enumerate(child_of) for i, j in enumerate(row)]
        assert_same_network(fan_in_tree(sizes, child_of, 2.5), LayeredNetwork(sizes, tree))

        n = sizes[0]
        column = rng.choice(CAPACITIES, size=n)
        sink = [Link(0, i, 0, float(column[i])) for i in range(n)]
        assert_same_network(single_sink(n, column), LayeredNetwork([n, 1], sink))

        # a document must pass validation: positive capacities only
        positive = [rng.choice(POSITIVE, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        valid = _links_of(sizes, positive)
        rng.shuffle(valid)
        entries = [
            {"l": ln.layer + 1, "i": ln.src + 1, "j": ln.dst + 1,
             "c": "unbounded" if ln.capacity == math.inf else ln.capacity}
            for ln in valid
        ]
        doc = {"layers": sizes, "links": entries,
               "lambda": np.ones(sizes[0]), "mu": np.ones(sizes[-1])}
        assert_same_network(doc_to_network(doc)[0], LayeredNetwork(sizes, valid))


def test_a_network_with_no_links_is_built_and_reports_its_dangling_nodes():
    net = LayeredNetwork([2, 1], [])
    ref = _reference_network([2, 1], [])
    assert_same_network(net, ref)
    assert net.num_links == 0 and net.links == ()


def test_building_and_running_creates_no_link_objects():
    """``links``, ``link_index`` and ``link_names`` are built on first
    read, and nothing that builds a network or runs on it reads them."""
    net = full_connection([3, 2, 2], [np.full((3, 2), 6.0), np.full((2, 2), 6.0)])
    arr, svc = ArrivalProfile([4.0, 3.0, 2.0]), ServiceProfile([2.0, 1.0])
    gamma = balanced_growth_gamma(arr, svc, net.num_layers)
    rates = construct_rate_proportional(net, arr, svc, gamma)
    cfg = SimConfig(horizon=5.0, dt=1.0, discretize=True)
    run(net, arr, svc, rates, SimConfig(horizon=1.0))
    run(net, arr, svc, QueueProportionalPolicy(), cfg)
    tagged_run(net, arr, svc, QueueProportionalPolicy(), cfg)
    analytic_report(net, arr, svc, rates, horizon=5.0)
    for kind in ("total_bandwidth", "max_utilization", "avg_utilization", "max_overload_rate"):
        co_optimize(net, arr, svc, ObjectiveSpec(kind))
    assert "links" not in net.__dict__
    assert "link_index" not in net.__dict__
    assert "link_names" not in net.__dict__
    assert net.links[0] == Link(0, 0, 0, 6.0)
    assert net.link_index[(1, 1, 1)] == net.num_links - 1


def test_equal_networks_compare_and_hash_alike():
    a = full_connection([2, 2], 3.0)
    b = LayeredNetwork([2, 2], [Link(0, i, j, 3.0) for i in (1, 0) for j in (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != full_connection([2, 2], 4.0)
    assert a != single_sink(2, 3.0)
    nan, again = single_sink(2, [math.nan, 1.0]), single_sink(2, [math.nan, 1.0])
    assert nan == again and hash(nan) == hash(again)


# ---------------------------------------------------------------------------
# Indices and sizes must be integers


def _doc(**changes):
    doc = {
        "layers": [2, 1],
        "links": [{"l": 1, "i": 1, "j": 1, "c": 4}, {"l": 1, "i": 2, "j": 1, "c": 4}],
        "lambda": [1.0, 2.0],
        "mu": [1.0],
    }
    for key, value in changes.items():
        if key == "layers":
            doc["layers"] = value
        else:
            doc["links"][1][key] = value
    return doc


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"l": 1.7}, "links[2].l must be an integer, got 1.7"),
        ({"j": 1.9}, "links[2].j must be an integer, got 1.9"),
        ({"i": "2"}, "links[2].i must be an integer, got '2'"),
        ({"l": True}, "links[2].l must be an integer, got True"),
        ({"c": True}, "links[2].c must be a number, got True"),
        ({"c": "3"}, "links[2].c must be a number, got '3'"),
        ({"i": 1e30}, "links[2].i out of range, got 1000000000000000019884624838656"),
        ({"layers": [2.5, 1]}, "layer size 1 must be an integer, got 2.5"),
        ({"layers": [2, True]}, "layer size 2 must be an integer, got True"),
    ],
)
def test_document_rejects_indices_sizes_and_capacities_of_the_wrong_type(changes, message):
    with pytest.raises(NetworkFormatError, match=f"^bad topology document: {re.escape(message)}$"):
        doc_to_network(_doc(**changes))


def test_document_accepts_integral_json_numbers():
    net = doc_to_network(_doc(l=1.0, i=2.0, c="unbounded", layers=[2.0, 1]))[0]
    assert net == LayeredNetwork([2, 1], [Link(0, 0, 0, 4.0), Link(0, 1, 0)])
    assert net.links[1].name == "1:2:1"


@pytest.mark.parametrize(
    "links, message",
    [
        ([Link(0, 1.0, 0), Link(0, 0, 0)], "links[1].src must be an integer, got 1.0"),
        ([Link(0.5, 0, 0), Link(0, 1, 0)], "links[1].layer must be an integer, got 0.5"),
        ([Link(0, 0, 0), Link(0, 1, True)], "links[2].dst must be an integer, got True"),
        ([Link(0, 0, 0, "3")], "links[1].capacity must be a number, got '3'"),
        ([Link(0, 0, 0, False)], "links[1].capacity must be a number, got False"),
    ],
)
def test_link_list_rejects_fields_of_the_wrong_type(links, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LayeredNetwork([2, 1], links)


def test_numpy_integers_are_indices_and_sizes():
    sizes = np.array([2, 1])
    net = LayeredNetwork(sizes, [Link(np.int64(0), np.int32(i), np.uint8(0), 1.0) for i in (1, 0)])
    assert net == full_connection(sizes, 1.0) == full_connection((2, 1), 1.0)
    assert net.layer_sizes == (2, 1) and type(net.layer_sizes[0]) is int
    assert net.links[0].name == "1:1:1"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: full_connection([2.9, 1.2]), "layer size 1 must be an integer, got 2.9"),
        (lambda: single_sink(2.0), "layer size 1 must be an integer, got 2.0"),
        (lambda: fan_in_tree([2, 1], [[0, 0.0]]), "child_of[0][1] must be an integer, got 0.0"),
        (lambda: fan_in_tree([2, 1.5], [[0, 0]]), "layer size 2 must be an integer, got 1.5"),
    ],
)
def test_builders_reject_sizes_and_children_that_are_not_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# ---------------------------------------------------------------------------
# Capacity shapes


@pytest.mark.parametrize(
    "sizes, capacity, message",
    [
        ([2, 2], [[1, 2, 3]], "capacity of layer pair (1, 2) has shape (3,); "
                              "it needs shape (2, 2) or one that broadcasts to it"),
        ([3, 2, 2], [1.0, np.ones((3, 2))], "capacity of layer pair (2, 3) has shape (3, 2); "
                                            "it needs shape (2, 2) or one that broadcasts to it"),
    ],
)
def test_capacity_shape_errors_name_the_layer_pair(sizes, capacity, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        full_connection(sizes, capacity)


def test_single_sink_names_the_shape_of_a_wrong_capacity_count():
    message = ("capacity of layer pair (1, 2) has shape (3, 1); "
               "it needs shape (2, 1) or one that broadcasts to it")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        single_sink(2, [1.0, 2.0, 3.0])


def test_capacities_broadcast_per_row_and_column():
    net = full_connection([2, 3], [[[1.0], [2.0]]])
    assert net.capacities.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    net = full_connection([2, 3], [[1.0, 2.0, 3.0]])
    assert net.capacities.tolist() == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
