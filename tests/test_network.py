import json
import math
import os
import random
import re

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    LayeredNetwork,
    Link,
    NetworkFormatError,
    ObjectiveSpec,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    ValidationError,
    analytic_report,
    co_optimize,
    fan_in_tree,
    full_connection,
    load,
    overload_check,
    run,
    save,
    single_sink,
    validate,
)
from fluidq.network import canonical_json, doc_to_network, network_to_doc

from conftest import adjacency

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_validate_accepts_overloaded_two_source_instance(two_source_instance):
    net, arr, svc, _ = two_source_instance
    assert validate(net, arr, svc) == []


def test_validate_reports_dimension_mismatch(two_source_instance):
    net, _, svc, _ = two_source_instance
    errors = validate(net, ArrivalProfile([1.0, 2.0, 3.0]), svc)
    assert len(errors) == 1 and "dimension mismatch" in errors[0]


def test_validate_reports_dangling_middle_node():
    # middle node 2 has an ingress link but no egress link
    net = LayeredNetwork(
        [1, 2, 1],
        [Link(0, 0, 0), Link(0, 0, 1), Link(1, 0, 0)],
    )
    errors = validate(net, ArrivalProfile([1.0]), ServiceProfile([1.0]))
    assert any("dangling node" in e and "layer 2 node 2" in e for e in errors)


def test_validate_reports_nonpositive_values():
    net = single_sink(2, [4.0, 0.0])
    errors = validate(net, ArrivalProfile([1.0, -2.0]), ServiceProfile([0.0]))
    joined = "\n".join(errors)
    assert "nonpositive capacity" in joined
    assert "lambda[2]" in joined and "mu[1]" in joined


GATED_ENTRIES = {
    "run-fluid": lambda net, arr, svc: run(net, arr, svc, RateAssignment.zeros(net),
                                           SimConfig(1.0)),
    "run-integer": lambda net, arr, svc: run(net, arr, svc, RateAssignment.zeros(net),
                                             SimConfig(2.0, discretize=True)),
    "analytic_report": lambda net, arr, svc: analytic_report(
        net, arr, svc, RateAssignment(net, [1.0, 1.0]), 2.0),
    "analytic_report-q0": lambda net, arr, svc: analytic_report(
        net, arr, svc, RateAssignment(net, [1.0, 1.0]), 2.0, q0=[5.0, 1.0, 0.0]),
    "overload_check": overload_check,
    "co_optimize": lambda net, arr, svc: co_optimize(
        net, arr, svc, ObjectiveSpec("total_bandwidth")),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("name", ["lambda", "mu"])
@pytest.mark.parametrize("entry", sorted(GATED_ENTRIES))
def test_every_entry_rejects_a_rate_that_is_not_finite_and_positive(entry, name, value):
    net = single_sink(2, [4.0, 4.0])
    lam, mu = [2.0, 3.0], [2.0]
    (lam if name == "lambda" else mu)[0] = value
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    kind = "non-finite" if value == math.inf else "nonpositive"
    message = f"{kind} rate: {name}[1] = {value}"
    assert validate(net, arr, svc) == [message]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        GATED_ENTRIES[entry](net, arr, svc)


def test_validate_judges_the_rates_on_every_call_before_the_network_defects():
    net = single_sink(2, [4.0, 0.0])
    good = (ArrivalProfile([1.0, 2.0]), ServiceProfile([1.0]))
    defects = ["nonpositive capacity: link 1:2:1 capacity = 0.0"]
    assert validate(net, *good) == defects
    assert validate(net, ArrivalProfile([math.inf, 2.0]), ServiceProfile([1.0])) == [
        "non-finite rate: lambda[1] = inf", *defects
    ]
    assert validate(net, *good) == defects


def test_construction_rejects_structural_errors():
    with pytest.raises(ValueError):
        LayeredNetwork([3], [])
    with pytest.raises(ValueError):
        LayeredNetwork([2, 1], [Link(0, 2, 0)])
    with pytest.raises(ValueError):
        LayeredNetwork([2, 1], [Link(1, 0, 0)])
    with pytest.raises(ValueError):
        LayeredNetwork([2, 1], [Link(0, 0, 0), Link(0, 0, 0)])


def test_roundtrip_is_canonical_and_identical(tmp_path, two_source_instance):
    net, arr, svc, _ = two_source_instance
    path = tmp_path / "net.json"
    save(path, net, arr, svc)
    loaded = load(path)
    assert loaded[0] == net
    assert np.array_equal(loaded[1].rates, arr.rates)
    assert np.array_equal(loaded[2].rates, svc.rates)
    second = tmp_path / "again.json"
    save(second, *loaded)
    assert path.read_bytes() == second.read_bytes()
    # canonicalization is stable on reordered documents
    doc = network_to_doc(net, arr, svc)
    doc["links"] = list(reversed(doc["links"]))
    assert canonical_json(doc) == path.read_text()


def test_load_four_layer_document():
    net, arr, svc = load(os.path.join(DATA, "fourlayer.json"))
    assert net.layer_sizes == (3, 3, 3, 3)
    assert net.num_links == 27
    assert all(link.unbounded for link in net.links)


def test_load_rejects_empty_and_malformed_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(NetworkFormatError):
        load(empty)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  'layers': [2, 1]\n")
    with pytest.raises(NetworkFormatError, match="line"):
        load(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"layers": [2, 1], "links": []}))
    with pytest.raises(NetworkFormatError, match="lambda"):
        load(missing)


@pytest.mark.parametrize("text", ["5", "null", '"x"', "[]"])
def test_load_rejects_a_document_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    with pytest.raises(NetworkFormatError, match="must be a JSON object"):
        load(path)


def test_unbounded_capacity_is_structural(tmp_path):
    doc = {
        "layers": [1, 1],
        "links": [{"l": 1, "i": 1, "j": 1, "c": "unbounded"}],
        "lambda": [1.0],
        "mu": [2.0],
    }
    path = tmp_path / "u.json"
    path.write_text(canonical_json(doc))
    net, _, _ = load(path)
    assert net.links[0].unbounded
    assert math.isinf(net.links[0].capacity)


def test_negative_infinite_capacity_is_not_saved_as_unbounded(tmp_path):
    """Only +inf is written as "unbounded": a -inf link survives a save and
    load as the invalid link it is."""
    net = full_connection([2, 1], [np.array([[-math.inf], [4.0]])])
    path = tmp_path / "neg.json"
    save(path, net, ArrivalProfile([1.0, 2.0]), ServiceProfile([2.0]))
    with pytest.raises(ValidationError) as err:
        load(path)
    assert err.value.errors == ["nonpositive capacity: link 1:1:1 capacity = -inf"]


@pytest.mark.parametrize("name, rates, bad", [
    ("lambda", [True, 3.0], "lambda[1] must be a number, got True"),
    ("lambda", [1.0, "3"], "lambda[2] must be a number, got '3'"),
    ("mu", ["2"], "mu[1] must be a number, got '2'"),
    ("mu", [False], "mu[1] must be a number, got False"),
])
def test_document_rates_must_be_numbers(name, rates, bad):
    """lambda and mu entries are checked like link capacities: a boolean
    or a numeric string is no rate."""
    doc = {
        "layers": [2, 1],
        "links": [{"l": 1, "i": 1, "j": 1, "c": 4}, {"l": 1, "i": 2, "j": 1, "c": 4}],
        "lambda": [1.0, 3.0],
        "mu": [2.0],
    }
    doc[name] = rates
    with pytest.raises(NetworkFormatError, match=rf"^bad topology document: {re.escape(bad)}$"):
        doc_to_network(doc)


def test_mutations_flip_exactly_the_violated_check(two_source_instance):
    """Each single-field corruption of a valid document trips validation
    with the matching message and nothing else."""
    net, arr, svc, _ = two_source_instance
    base = network_to_doc(net, arr, svc)
    rng = random.Random(7)
    mutations = [
        ("dimension mismatch", lambda d: d["lambda"].append(5.0)),
        ("dimension mismatch", lambda d: d["mu"].append(5.0)),
        ("nonpositive rate", lambda d: d["lambda"].__setitem__(rng.randrange(2), 0.0)),
        ("nonpositive rate", lambda d: d["mu"].__setitem__(0, -1.0)),
        (
            "nonpositive capacity",
            lambda d: d["links"][rng.randrange(2)].__setitem__("c", 0.0),
        ),
        ("dangling node", lambda d: d["links"].pop(rng.randrange(2))),
    ]
    for expected, corrupt in mutations:
        doc = json.loads(canonical_json(base))
        corrupt(doc)
        with pytest.raises(ValidationError) as err:
            doc_to_network(doc)
        messages = err.value.errors
        assert all(expected in m for m in messages), (expected, messages)


def test_builders_shapes():
    net = full_connection([3, 2, 4])
    assert net.num_links == 3 * 2 + 2 * 4
    assert adjacency(net).layers[0].size == 6
    nx1 = single_sink(5, 3.0)
    assert nx1.is_single_sink() and nx1.num_links == 5
    tree = fan_in_tree([4, 2, 1], [[0, 0, 1, 1], [0, 0]])
    assert tree.is_fan_in_tree()
    assert not net.is_fan_in_tree()


def test_rate_assignment_mapping_and_errors(two_source_instance):
    net, _, _, rates = two_source_instance
    assert rates[(0, 0, 0)] == 2.0
    as_doc = rates.to_dict()
    assert as_doc == {"1:1:1": 2.0, "1:2:1": 0.75}
    again = RateAssignment.from_dict(net, as_doc)
    assert np.array_equal(again.values, rates.values)
    with pytest.raises(ValueError, match="nonexistent"):
        RateAssignment.from_dict(net, {(0, 0, 1): 1.0})
    with pytest.raises(ValueError, match="negative"):
        RateAssignment(net, [-1.0, 0.0])
    over = RateAssignment(net, [5.0, 0.0])
    assert over.capacity_violations() == [(0, 0, 0)]


def test_nonexistent_link_is_named_as_given(two_source_instance):
    net = two_source_instance[0]
    # a file key is 1-based, a tuple key 0-based
    with pytest.raises(ValueError, match=r"^rate given for nonexistent link 9:9:9$"):
        RateAssignment.from_dict(net, {"9:9:9": 1.0})
    with pytest.raises(ValueError, match=r"^rate given for nonexistent link \(8, 8, 8\)$"):
        RateAssignment.from_dict(net, {(8, 8, 8): 1.0})
    with pytest.raises(ValueError, match=r"^rate given for nonexistent link \(0, 0, 1\)$"):
        RateAssignment.from_dict(net, {(np.int64(0), 0, 1): 1.0})



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_assignment_rejects_non_finite_rates(two_source_instance, bad):
    net = two_source_instance[0]
    with pytest.raises(ValueError, match=r"non-finite rate .* on link 1:2:1$"):
        RateAssignment(net, [1.0, bad])


def test_capacity_violations_flag_nan_capacity():
    net = LayeredNetwork([2, 1], [Link(0, 0, 0, 4.0), Link(0, 1, 0, math.nan)])
    assert RateAssignment(net, [1.0, 1.0]).capacity_violations() == [(0, 1, 0)]


def test_capacity_violations_flag_nan_rate_and_pass_rates_within_capacity():
    net = single_sink(3, [4.0, 2.0, math.inf])
    assert RateAssignment(net, [4.0, 2.0, 1e300]).capacity_violations() == []
    # a trusted vector skips the constructor's finiteness scan
    nan = RateAssignment._trusted(net, np.array([1.0, math.nan, 5.0]))
    assert nan.capacity_violations() == [(0, 1, 0)]


def test_bounded_flag_tracks_unbounded_links():
    assert single_sink(2, [4.0, 2.0]).bounded
    assert not single_sink(2).bounded
    assert not single_sink(2, [4.0, math.inf]).bounded


def test_negative_infinite_capacity_is_not_unbounded():
    """Only +inf means unbounded: a -inf link is a nonpositive one, and a
    policy that needs capacities fails on its value, not on a missing
    bound."""
    from fluidq.policies import max_link_rate_rates

    net = full_connection([2, 1], [np.array([[-math.inf], [4.0]])])
    assert net.bounded
    assert not net.links[0].unbounded
    with pytest.raises(ValueError) as err:
        max_link_rate_rates(net)
    assert "unbounded capacity" not in str(err.value)
    assert str(err.value) == "non-finite rate -inf on link 1:1:1"
    # next to a +inf link, that one is named
    net = full_connection([2, 1], [np.array([[-math.inf], [math.inf]])])
    assert not net.bounded
    with pytest.raises(ValueError, match="^max-link-rate undefined: link 1:2:1 has unbounded capacity$"):
        max_link_rate_rates(net)

@pytest.mark.parametrize("sizes", [(2, -1), (-2, 2), (0, 2)])
def test_full_connection_rejects_nonpositive_layer_sizes_before_shaping_capacities(sizes):
    message = re.escape(f"layer sizes must be positive, got {sizes}")
    for capacity in (math.inf, [np.ones((2, 2))]):
        with pytest.raises(ValueError, match=message):
            full_connection(sizes, capacity)


def test_single_sink_rejects_a_nonpositive_source_count():
    with pytest.raises(ValueError, match=re.escape("layer sizes must be positive, got (-1, 1)")):
        single_sink(-1)


def test_sim_config_guards(two_source_instance):
    net = two_source_instance[0]
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, dt=2.0).resolved_dt()
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, dt=0.0).resolved_dt()
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, q0=np.zeros(2)).initial_backlog(net)
    assert SimConfig(horizon=1.0).resolved_dt() == 0.01
    assert SimConfig(horizon=10.0, discretize=True).resolved_dt() == 1.0


@pytest.mark.parametrize("discretize", [False, True], ids=["fluid", "integer"])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"horizon": math.nan}, "horizon must be finite and positive, got nan"),
        ({"horizon": math.inf}, "horizon must be finite and positive, got inf"),
        ({"horizon": -3.0}, "horizon must be finite and positive, got -3.0"),
        ({"dt": math.nan}, "dt must be finite and positive, got nan"),
        ({"dt": math.inf}, "dt must be finite and positive, got inf"),
        ({"q0": [math.nan, 0.0, 0.0]}, "q0 must be finite, got nan at entry 1"),
        ({"q0": [0.0, 0.0, math.inf]}, "q0 must be finite, got inf at entry 3"),
    ],
)
def test_sim_config_rejects_non_finite_fields_before_a_run(
    two_source_instance, fields, message, discretize
):
    from fluidq import run

    net, arr, svc, rates = two_source_instance
    cfg = SimConfig(**{"horizon": 4.0, "dt": 1.0, "discretize": discretize, **fields})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(net, arr, svc, rates, cfg)
