import json
import os
import re

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    QueueState,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    StaticPolicy,
    bench,
    fan_in_tree,
    load,
    save,
    single_sink,
    tagged_run,
)
from fluidq.cli import _make_policy, main
from fluidq.network import network_to_doc


@pytest.fixture
def instance_doc(tmp_path):
    net = single_sink(2, [4.0, 2.0])
    arr = ArrivalProfile([8.0, 3.0])
    svc = ServiceProfile([2.0])
    path = tmp_path / "net.json"
    save(path, net, arr, svc)
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"1:1:1": 2.0, "1:2:1": 0.75}))
    return str(path), str(rates)


def test_simulate_fluid_and_export(tmp_path, capsys, instance_doc):
    net_path, rates_path = instance_doc
    out = tmp_path / "out"
    code = main([
        "--out", str(out), "simulate", "--net", net_path, "--policy", "opt-static",
        "--rates", rates_path, "--horizon", "10", "--dt", "0.1", "--report",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "final backlog" in text and "analytic d_avg = 22.5" in text
    assert (out / "trajectory.csv").exists()


def test_simulate_integer_report(capsys, instance_doc):
    net_path, rates_path = instance_doc
    code = main([
        "simulate", "--net", net_path, "--policy", "custom:" + rates_path,
        "--horizon", "50", "--mode", "integer", "--report",
    ])
    assert code == 0
    assert "empirical d_avg" in capsys.readouterr().out


def test_check_in_and_out(capsys, instance_doc, tmp_path):
    net_path, rates_path = instance_doc
    assert main(["check", "--net", net_path, "--rates", rates_path]) == 0
    assert "in the min-delay region" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"1:1:1": 3.0, "1:2:1": 0.75}))
    assert main(["check", "--net", net_path, "--rates", str(bad)]) == 2
    assert "outside the min-delay region" in capsys.readouterr().out


def test_overload_verdict(capsys, instance_doc):
    net_path, _ = instance_doc
    assert main(["overload", "--net", net_path]) == 0
    assert "overloaded" in capsys.readouterr().out


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_overload_names_the_minimum_cut(capsys):
    # lambda (3, 7) over unbounded links into one egress node of mu = 4
    assert main(["overload", "--net", os.path.join(DATA, "nx1.json")]) == 0
    assert capsys.readouterr().out == (
        "overloaded\nminimum cut 4 < total arrival rate 10: mu[1]\n"
    )


def test_overload_verbose_prints_the_witness(capsys):
    assert main(["overload", "--net", os.path.join(DATA, "threelayer.json"), "--verbose"]) == 0
    out = capsys.readouterr().out
    head, _, doc = out.partition("{")
    assert head == "not overloaded\nbounded-backlog rates exist\n"
    assert json.loads("{" + doc) == {
        "1:1:1": 2.0, "1:1:2": 1.0, "1:2:2": 1.0, "2:1:1": 2.0, "2:2:1": 0.0, "2:2:2": 2.0,
    }


def test_optimize_emits_loadable_rates(tmp_path, capsys, instance_doc):
    net_path, _ = instance_doc
    # unbounded variant so the bandwidth optimum is interior
    from fluidq import load

    net, arr, svc = load(net_path)
    free = single_sink(2)
    free_path = tmp_path / "free.json"
    save(free_path, free, arr, svc)
    out = tmp_path / "opt"
    code = main([
        "--out", str(out), "optimize", "--net", str(free_path),
        "--objective", "total_bandwidth",
    ])
    assert code == 0
    assert "total_bandwidth = 2" in capsys.readouterr().out
    emitted = json.loads((out / "rates.json").read_text())
    rates = RateAssignment.from_dict(free, emitted)
    assert rates.values.sum() == pytest.approx(2.0, abs=1e-8)
    # round-trips through the checker CLI
    assert main(["check", "--net", str(free_path), "--rates", str(out / "rates.json")]) == 0


def test_optimize_with_constraints_file(tmp_path, capsys):
    from fluidq import full_connection

    net = full_connection([2, 2])
    arr, svc = ArrivalProfile([4.0, 8.0]), ServiceProfile([4.0, 4.0])
    net_path = tmp_path / "n.json"
    save(net_path, net, arr, svc)
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({"forced_zero": ["1:1:1"]}))
    code = main([
        "optimize", "--net", str(net_path), "--objective", "total_bandwidth",
        "--constraints", str(cons),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert payload["1:1:1"] == pytest.approx(0.0, abs=1e-9)


def test_optimize_reports_infeasible_input_on_stderr(tmp_path, capsys):
    from fluidq import full_connection

    # the only source cannot reach d1 yet d1 must be fed mu_1: the minimum
    # cut is the forced-zero link and d2's demand
    net = full_connection([1, 2])
    arr, svc = ArrivalProfile([6.0]), ServiceProfile([2.0, 2.0])
    net_path = tmp_path / "n.json"
    save(net_path, net, arr, svc)
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({"forced_zero": ["1:1:1"]}))
    code = main([
        "optimize", "--net", str(net_path), "--objective", "total_bandwidth",
        "--constraints", str(cons),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "min-delay constraint system is infeasible" in captured.err
    assert "minimum cut 3 < total arrival rate 6" in captured.err
    assert "forced zero on link 1:1:1; egress ratio at node 2" in captured.err


def test_bench_and_conjecture_subcommands(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "--seed", "3", "--out", str(out), "bench", "--family", "nx1-sufficient",
        "--instances", "2", "--horizon", "30",
    ])
    assert code == 0
    assert (out / "results.csv").exists()
    assert "mean d_avg ratio vs opt" in capsys.readouterr().out

    code = main(["conjecture", "--samples", "50", "--layers", "2,2"])
    assert code == 0
    assert "50/50 samples agree" in capsys.readouterr().out


def test_simulate_tree_policy(tmp_path, capsys):
    from fluidq import ArrivalProfile, ServiceProfile, fan_in_tree, save

    net = fan_in_tree([4, 2, 1], [[0, 0, 1, 1], [0, 0]], capacity=50.0)
    arr = ArrivalProfile([3.0, 1.0, 2.0, 2.0])
    svc = ServiceProfile([4.0])
    path = tmp_path / "tree.json"
    save(path, net, arr, svc)
    code = main(["simulate", "--net", str(path), "--policy", "tree", "--horizon", "20"])
    assert code == 0
    assert "final backlog" in capsys.readouterr().out


def _bench_with(monkeypatch, tmp_path, fake):
    """Run a 3-instance sweep with ``bench.measure_policy`` replaced by
    ``fake(real, instance, name, horizon, dt)``."""
    real = bench.measure_policy
    monkeypatch.setattr(
        bench, "measure_policy", lambda *args: fake(real, *args)
    )
    out = tmp_path / "bench"
    code = main([
        "--seed", "3", "--out", str(out), "bench", "--family", "nx1-sufficient",
        "--instances", "3", "--horizon", "30",
    ])
    rows = (out / "results.csv").read_text().splitlines()[1:]
    return code, rows


def test_bench_counts_a_failed_instance_and_exits_nonzero(tmp_path, capsys, monkeypatch):
    def fake(real, instance, *args):
        if instance.instance_id == 1:
            raise RuntimeError("injected failure")
        return real(instance, *args)

    code, rows = _bench_with(monkeypatch, tmp_path, fake)
    assert code == 1
    assert "1 of 3 instances produced no rows" in capsys.readouterr().err
    assert sorted({row.split(",")[0] for row in rows}) == ["0", "2"]


def test_bench_skips_a_nan_report_instead_of_writing_nan_ratios(
    tmp_path, capsys, monkeypatch
):
    from dataclasses import replace

    def fake(real, instance, *args):
        report = real(instance, *args)
        if instance.instance_id == 0:
            return replace(report, d_avg=float("nan"), d_max=float("nan"))
        return report

    code, rows = _bench_with(monkeypatch, tmp_path, fake)
    assert code == 1
    assert "1 of 3 instances produced no rows" in capsys.readouterr().err
    assert sorted({row.split(",")[0] for row in rows}) == ["1", "2"]
    assert not any("nan" in row for row in rows)


# ---------------------------------------------------------------------------
# one policy registry behind both front ends


@pytest.fixture
def tree_instance():
    """A capacitated fan-in tree on which every registry name is defined."""
    net = fan_in_tree([4, 2, 1], [[0, 0, 1, 1], [0, 0]], capacity=50.0)
    return net, ArrivalProfile([3.0, 1.0, 2.0, 2.0]), ServiceProfile([4.0])


@pytest.mark.parametrize("name", sorted(bench.POLICIES))
def test_cli_and_bench_build_the_same_policy(name, tree_instance):
    net, arr, svc = tree_instance
    inst = bench.Instance(0, net, arr, svc, np.zeros(net.num_nodes))
    ours, theirs = _make_policy(name, net, arr, svc), bench.make_policy(name, inst)
    assert type(ours) is type(theirs)
    # uneven backlogs, so the dynamic policies' first step is not trivial
    state = QueueState(np.arange(net.num_nodes, 0.0, -1.0), 0.0)
    first = [p.rates(state, net, arr, svc, 1.0).values for p in (ours, theirs)]
    assert np.array_equal(first[0], first[1])


def test_tree_is_an_alias_of_opt_tree(tree_instance):
    net, arr, svc = tree_instance
    inst = bench.Instance(0, net, arr, svc, np.zeros(net.num_nodes))
    tree, opt_tree = (bench.make_policy(n, inst) for n in ("tree", "opt-tree"))
    assert isinstance(tree, StaticPolicy) and isinstance(opt_tree, StaticPolicy)
    assert np.array_equal(tree.assignment.values, opt_tree.assignment.values)


def test_unknown_policy_lists_the_known_names(tree_instance, instance_doc):
    net, arr, svc = tree_instance
    inst = bench.Instance(0, net, arr, svc, np.zeros(net.num_nodes))
    known = "opt-queue, opt-static, opt-tree, bp, max, tree"
    with pytest.raises(ValueError, match=f"unknown policy 'bpp'; known: {known}$"):
        bench.make_policy("bpp", inst)
    net_path, _ = instance_doc
    with pytest.raises(SystemExit, match=f"expected one of {known}, custom:<file>$"):
        main(["simulate", "--net", net_path, "--policy", "bpp", "--horizon", "5"])


def test_custom_file_and_opt_static_rates_give_one_trajectory(tmp_path, instance_doc):
    net_path, rates_path = instance_doc
    texts = []
    for tag, policy in (("custom", ["custom:" + rates_path]),
                        ("static", ["opt-static", "--rates", rates_path])):
        out = tmp_path / tag
        assert main(["--out", str(out), "simulate", "--net", net_path, "--policy",
                     *policy, "--horizon", "10", "--dt", "0.5"]) == 0
        texts.append((out / "trajectory.csv").read_text())
    assert texts[0] == texts[1]


def test_opt_static_without_rates_and_max_report(capsys, instance_doc):
    net_path, _ = instance_doc
    assert main(["simulate", "--net", net_path, "--policy", "opt-static",
                 "--horizon", "10", "--report"]) == 0
    assert "analytic d_avg" in capsys.readouterr().out
    assert main(["simulate", "--net", net_path, "--policy", "max",
                 "--horizon", "10", "--report"]) == 0
    assert "analytic d_avg" in capsys.readouterr().out


def test_bench_rejects_a_zero_horizon(capsys):
    with pytest.raises(SystemExit, match="horizon must be finite and positive, got 0.0"):
        main(["bench", "--family", "nx1-limited", "--instances", "1", "--horizon", "0"])
    assert capsys.readouterr().out == ""


def test_bench_rejects_an_infinite_horizon_before_writing(capsys, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^bench: horizon must be finite and positive, got inf$"):
        main(["--out", str(out), "bench", "--family", "nx1-limited", "--instances", "2",
              "--horizon", "inf"])
    assert capsys.readouterr() == ("", "")
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate input errors end in one line, not a traceback

FOURLAYER = os.path.join(DATA, "fourlayer.json")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--policy", "max", "--rates", "r.json"],
         "--rates applies to --policy opt-static only, not max"),
        (["--policy", "bp", "--gamma", "1,1,1,1"],
         "--gamma applies to --policy opt-queue only, not bp"),
        (["--policy", "opt-queue", "--gamma", "1,2"], "--gamma: gamma needs 4 entries, got 2"),
        (["--policy", "opt-queue", "--gamma", "@missing.json"],
         "--gamma @missing.json: No such file or directory"),
        (["--policy", "tree"],
         "policy tree: construction applies to fan-in tree topologies only"),
        (["--policy", "max"],
         "policy max: max-link-rate undefined: link 1:1:1 has unbounded capacity"),
        (["--policy", "bp"],
         "policy bp: backpressure undefined: link 1:1:1 has unbounded capacity"),
    ],
)
def test_simulate_input_errors_exit_with_one_line(extra, message, capsys):
    with pytest.raises(SystemExit, match=f"^{message}$"):
        main(["simulate", "--net", FOURLAYER, *extra, "--horizon", "2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q0, message", [
    ("1,2", "--q0: q0 has 2 entries, network has 12 nodes"),
    ("1,x", "--q0: could not convert string to float: 'x'"),
])
def test_simulate_q0_errors_exit_with_one_line(q0, message, capsys):
    with pytest.raises(SystemExit, match=f"^{message}$"):
        main(["simulate", "--net", FOURLAYER, "--policy", "opt-queue", "--q0", q0,
              "--horizon", "2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra, message", [
    (["--horizon", "nan"], "--horizon: horizon must be finite and positive, got nan"),
    (["--horizon", "inf"], "--horizon: horizon must be finite and positive, got inf"),
    (["--horizon", "-3"], "--horizon: horizon must be finite and positive, got -3.0"),
    (["--horizon", "2", "--dt", "nan"], "--dt: dt must be finite and positive, got nan"),
    (["--horizon", "2", "--q0", ",".join(["nan"] + ["0"] * 11)],
     "--q0: q0 must be finite, got nan at entry 1"),
    (["--horizon", "2", "--mode", "integer", "--q0", ",".join(["inf"] + ["0"] * 11)],
     "--q0: q0 must be finite, got inf at entry 1"),
])
def test_simulate_config_errors_exit_with_one_line(extra, message, capsys):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["simulate", "--net", FOURLAYER, "--policy", "opt-queue", *extra])
    assert capsys.readouterr().out == ""


def test_simulate_report_outside_the_closed_form_exits_with_one_line(capsys):
    # initial backlog on a multi-sink network: no closed form, checked before the run
    q0 = ",".join(["1"] + ["0"] * 11)
    with pytest.raises(SystemExit, match="^--report: analytic metrics with initial backlog "
                                         "cover single-sink networks only; "):
        main(["simulate", "--net", FOURLAYER, "--policy", "opt-static", "--horizon", "5",
              "--q0", q0, "--report"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("policy", ["opt-queue", "bp"])
def test_simulate_report_of_a_dynamic_policy_says_why_it_has_no_metrics(policy, capsys):
    net = FOURLAYER if policy == "opt-queue" else os.path.join(DATA, "bounded.json")
    assert main(["simulate", "--net", net, "--policy", policy, "--horizon", "5",
                 "--report"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("final backlog:")
    assert lines[2:] == [
        f"no analytic metrics: policy {policy} is dynamic and has no closed form; "
        "--mode integer --report gives empirical metrics"
    ]


@pytest.mark.parametrize("policy", ["bp", "max"])
def test_simulate_bp_and_max_on_a_bounded_network(policy, capsys):
    net = os.path.join(DATA, "bounded.json")
    assert main(["simulate", "--net", net, "--policy", policy, "--horizon", "5"]) == 0
    assert "final backlog" in capsys.readouterr().out
    assert main(["simulate", "--net", net, "--policy", policy, "--horizon", "5",
                 "--mode", "integer", "--report"]) == 0
    assert "empirical d_avg" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["0.5", "10.5", "100000.5"])
@pytest.mark.parametrize("report", [[], ["--report"]])
def test_simulate_rejects_fractional_q0_in_integer_mode(entry, report, capsys):
    # exactly integral: a tolerance that grows with the value would pass
    # 100000.5 on to the run, which rejects it with a traceback
    q0 = ",".join([entry] + ["0"] * 11)
    with pytest.raises(SystemExit, match="^--q0: integer mode requires an integral q0$"):
        main(["simulate", "--net", FOURLAYER, "--policy", "opt-queue", "--mode", "integer",
              "--q0", q0, "--horizon", "2", *report])
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# a bad --net file ends in one line in every subcommand that reads one

NET_COMMANDS = {
    "simulate": ["--policy", "opt-static", "--horizon", "2"],
    "check": ["--rates", "rates.json"],
    "optimize": ["--objective", "total_bandwidth"],
    "overload": [],
}


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("  \n", "empty document"),
    ('{\n  "layers":\n', "parse error at line 3: Expecting value"),
    ("INVALID", "non-finite rate: lambda[1] = inf"),
], ids=["missing", "empty", "unparsable", "invalid"])
@pytest.mark.parametrize("command", sorted(NET_COMMANDS))
def test_bad_net_file_exits_with_one_line(command, content, message, tmp_path, capsys):
    path = tmp_path / "net.json"
    if content == "INVALID":
        doc = network_to_doc(single_sink(3), ArrivalProfile([1.0, 2.0, 2.0]),
                             ServiceProfile([1.0]))
        text = json.dumps({**doc, "lambda": [float("inf"), 2, 2]})
        assert '"lambda": [Infinity, 2, 2]' in text
        path.write_text(text)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([command, "--net", str(path), *NET_COMMANDS[command]])
    assert exc.value.code == f"--net {path}: {message}"
    assert exc.value.code.count(str(path)) == 1
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# check input errors end in one line too


def test_check_missing_rates_file_exits_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit, match=f"^rates {missing}: No such file or directory$"):
        main(["check", "--net", FOURLAYER, "--rates", str(missing)])
    assert capsys.readouterr().out == ""


def test_check_rates_for_nonexistent_link_exit_with_one_line(tmp_path, capsys):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"9:9:9": 1.0}))
    with pytest.raises(SystemExit,
                       match=rf"^rates {rates}: rate given for nonexistent link 9:9:9$"):
        main(["check", "--net", FOURLAYER, "--rates", str(rates)])
    assert capsys.readouterr().out == ""


def test_check_tree_kind_on_full_connection_exits_with_one_line(tmp_path, capsys):
    net, arr, svc = load(FOURLAYER)
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps(RateAssignment.zeros(net).to_dict()))
    with pytest.raises(SystemExit,
                       match="^check --kind tree: check applies to fan-in tree topologies only$"):
        main(["check", "--net", FOURLAYER, "--rates", str(rates), "--kind", "tree"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", ["auto", "single-sink"])
def test_check_rejects_gamma_outside_the_layered_kind(kind, capsys, instance_doc):
    # single_sink(2, [4, 2]), lambda (8, 3), mu 2, rates (2, 0.75): the
    # single-sink check would pass and print its own gamma, not 9, 9
    net_path, rates_path = instance_doc
    with pytest.raises(SystemExit,
                       match="^--gamma applies to --kind layered only, not single-sink$"):
        main(["check", "--net", net_path, "--rates", rates_path, "--kind", kind,
              "--gamma", "9,9"])
    assert capsys.readouterr().out == ""
    assert main(["check", "--net", net_path, "--rates", rates_path, "--kind", "layered",
                 "--gamma", "9,9"]) == 2


def test_check_judges_a_two_layer_network_by_the_layered_check(tmp_path, capsys):
    # --kind auto picks the layered check on a 2 x 2 network, so --gamma applies
    twohop = os.path.join(DATA, "twohop.json")
    out = tmp_path / "hop"
    assert main(["--out", str(out), "optimize", "--net", twohop,
                 "--objective", "total_bandwidth"]) == 0
    capsys.readouterr()
    rates = str(out / "rates.json")
    for extra in ([], ["--gamma", "tight"]):
        assert main(["check", "--net", twohop, "--rates", rates, *extra]) == 0
        assert capsys.readouterr().out == "in the min-delay region\ngamma: 2.4, 1\n"


OVER_CAPACITY = {"1:1:1": 4, "1:1:2": 2.6666666666666665, "1:2:1": 8, "1:2:2": 5.333333333333333}


@pytest.mark.parametrize("kind", ["auto", "layered", "tree", "single-sink"])
def test_check_names_a_rate_over_capacity_for_every_kind(kind, tmp_path, capsys):
    """twohop.json has capacity 3 on every link.  These rates meet the
    layered check's ratio and throughput clauses (gamma 0.6, 4), but
    1:1:1 and others exceed their capacity: every kind answers with the
    single-sink checker's words and exit 2."""
    rates = tmp_path / "over.json"
    rates.write_text(json.dumps(OVER_CAPACITY))
    twohop = os.path.join(DATA, "twohop.json")
    assert main(["check", "--net", twohop, "--rates", str(rates), "--kind", kind]) == 2
    assert capsys.readouterr().out == (
        "outside the min-delay region: capacity exceeded on link 1:1:1\n"
    )


@pytest.mark.parametrize("policy", [["custom:{}"], ["opt-static", "--rates", "{}"]])
@pytest.mark.parametrize("mode", [[], ["--mode", "integer", "--report"]])
def test_simulate_rates_over_capacity_exit_with_one_line(policy, mode, tmp_path, capsys):
    """A rate file over a capacity ended in an EngineError traceback."""
    rates = tmp_path / "over.json"
    rates.write_text(json.dumps(OVER_CAPACITY))
    twohop = os.path.join(DATA, "twohop.json")
    with pytest.raises(SystemExit,
                       match=f"^rates {rates}: rates exceed capacity on link 1:1:1$"):
        main(["simulate", "--net", twohop, "--policy", *[p.format(rates) for p in policy],
              "--horizon", "5", *mode])
    assert capsys.readouterr().out == ""


def test_optimize_max_overload_rate_where_a_middle_node_binds(capsys):
    """midgrowth.json: middle node 2 of layer 2 can receive at most 2, so
    node 1 receives 13 and grows by 13 (1 - 1/1.5), above t_lo = 2.5."""
    assert main(["optimize", "--net", os.path.join(DATA, "midgrowth.json"),
                 "--objective", "max_overload_rate"]) == 0
    assert capsys.readouterr().out.startswith("objective max_overload_rate = 4.33333333\n")


def test_check_refuses_the_single_hop_kind(capsys, instance_doc):
    net_path, rates_path = instance_doc
    with pytest.raises(SystemExit) as exc:
        main(["check", "--net", net_path, "--rates", rates_path, "--kind", "single-hop"])
    assert exc.value.code == 2
    assert "invalid choice: 'single-hop'" in capsys.readouterr().err


def test_bp_on_unbounded_links_fails_when_built():
    net, arr, svc = load(FOURLAYER)
    inst = bench.Instance(0, net, arr, svc, np.zeros(net.num_nodes))
    with pytest.raises(ValueError, match="backpressure undefined"):
        bench.make_policy("bp", inst)


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ('{"forced_zero": [', "Expecting value: line 1 column 18 \\(char 17\\)"),
    ('{"theta": 1.5}', "utilization cap must be in \\(0, 1\\]"),
    ('{"beta": "x"}', "split cap must be a number in \\(0, 1\\], got 'x'"),
    ('{"forced_zero": ["9:9:9"]}', "forced-zero link 9:9:9 does not exist"),
    ('{"forced_zero": ["1:1"]}', "bad link key '1:1', expected 'l:i:j'"),
    ("[]", "expected a JSON object"),
    ('{"utilization_cap": 0.01}',
     "unknown key 'utilization_cap'; the known keys are forced_zero, beta and theta"),
    ('{"theta": 0.5, "split_cap": 0.5}',
     "unknown key 'split_cap'; the known keys are forced_zero, beta and theta"),
    ('{"forced_zero": "1:1:1"}', "forced_zero must be a list of 'l:i:j' link keys, got '1:1:1'"),
])
def test_optimize_constraint_errors_exit_with_one_line(content, message, tmp_path, capsys):
    cons = tmp_path / "cons.json"
    if content is not None:
        cons.write_text(content)
    with pytest.raises(SystemExit, match=f"^--constraints {cons}: {message}$"):
        main(["optimize", "--net", FOURLAYER, "--objective", "total_bandwidth",
              "--constraints", str(cons)])
    assert capsys.readouterr().out == ""


def test_optimize_constraints_file_keys_decide_the_outcome(tmp_path, capsys):
    """On a bounded network a utilization cap of 0.01 is infeasible.  Under
    its file key ``theta`` the optimizer says so; under a key the file does
    not know, the run stops before optimizing, where it used to run
    uncapped and exit 0."""
    net = os.path.join(DATA, "bounded.json")
    cons = tmp_path / "cons.json"
    args = ["optimize", "--net", net, "--objective", "max_utilization", "--constraints", str(cons)]
    cons.write_text('{"theta": 1}')
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("objective max_utilization = 0.5\n")
    cons.write_text('{"theta": 0.01}')
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible: min-delay constraint system is infeasible: ")
    cons.write_text('{"utilization_cap": 0.01}')
    with pytest.raises(SystemExit, match="unknown key 'utilization_cap'"):
        main(args)
    assert capsys.readouterr().out == ""


def test_optimize_objective_errors_exit_with_one_line(capsys):
    # every link of fourlayer.json is unbounded
    with pytest.raises(SystemExit, match="^optimize --objective avg_utilization: average "
                                         "utilization needs at least one finite capacity$"):
        main(["optimize", "--net", FOURLAYER, "--objective", "avg_utilization"])
    assert capsys.readouterr().out == ""



@pytest.mark.parametrize("extra, message", [
    (["--layers", "2"], "--layers 2: a layered network needs at least 2 layers"),
    (["--layers", "2,x"], "--layers 2,x: invalid literal for int() with base 10: 'x'"),
    (["--layers", "0,2"], "--layers 0,2: layer sizes must be positive, got (0, 2)"),
    (["--layers=2,-1"], "--layers 2,-1: layer sizes must be positive, got (2, -1)"),
    (["--layers=-2,2"], "--layers -2,2: layer sizes must be positive, got (-2, 2)"),
    (["--samples", "-1"], "--samples must be positive, got -1"),
])
def test_conjecture_input_errors_exit_with_one_line(extra, message, capsys):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["conjecture", *extra])
    assert capsys.readouterr().out == ""


def test_simulate_integer_report_writes_the_trajectory_through_the_extension(
    tmp_path, capsys
):
    out = tmp_path / "int"
    assert main(["--out", str(out), "simulate", "--net", FOURLAYER, "--policy", "opt-queue",
                 "--horizon", "5", "--mode", "integer", "--report"]) == 0
    text = capsys.readouterr().out
    path = out / "trajectory.csv"
    assert f"trajectory written to {path}" in text
    extension = float(re.search(r"horizon extended by (\S+) ", text).group(1))
    assert extension > 0
    net, arr, svc = load(FOURLAYER)
    policy = bench.make_policy("opt-queue", bench.Instance(0, net, arr, svc, None))
    tr = tagged_run(net, arr, svc, policy, SimConfig(5.0, discretize=True),
                    keep_trajectory=True)
    rows = path.read_text().splitlines()
    assert len(rows) == 1 + tr.trajectory.queues.size
    assert rows[-1].startswith(f"{5 + extension:g},")
