import os
from dataclasses import replace

import numpy as np
import pytest

from fluidq import (
    ArrivalProfile,
    RateAssignment,
    ServiceProfile,
    full_connection,
    single_sink,
)
from fluidq.bench import (
    ExperimentConfig,
    conjecture_check,
    conjecture_sweep,
    preset,
    run_experiment,
    sample_instance,
)

from conftest import single_sink_rates


def test_sampler_follows_family_rules():
    cfg = preset("nx1-sufficient")
    rng = np.random.default_rng([3, 0])
    inst = sample_instance(cfg, rng)
    lam = inst.arr.rates
    assert inst.net.layer_sizes == (32, 1)
    assert np.all((lam >= 12) & (lam <= 20)) and np.allclose(lam, np.round(lam))
    assert inst.svc.rates[0] == np.round(0.4 * lam.sum())
    caps = inst.net.capacities
    assert np.all((caps >= 20) & (caps <= 35)) and np.allclose(caps, np.round(caps))
    assert np.all((inst.q0 >= 101) & (inst.q0 <= 300))

    cfg16 = preset("nsxnd")
    inst16 = sample_instance(cfg16, np.random.default_rng([3, 1]))
    lam = inst16.arr.rates
    mu = inst16.svc.rates
    assert inst16.net.layer_sizes == (32, 16)
    assert np.all((lam >= 60) & (lam <= 100))
    assert np.all(mu >= 1) and np.allclose(mu, np.round(mu))
    # weights sum to one before rounding: totals match up to rounding slack
    assert abs(mu.sum() - 0.4 * lam.sum()) <= len(mu)
    assert np.all(inst16.q0 == 0)


def test_sampler_degenerate_ranges_are_deterministic():
    cfg = ExperimentConfig(
        "nx1", (4, 1), lambda_range=(15.0, 15.0), capacity_range=(30.0, 30.0),
        q0_range=None, horizon=10.0,
    )
    a = sample_instance(cfg, np.random.default_rng([0, 5]))
    b = sample_instance(cfg, np.random.default_rng([0, 9]))
    assert np.array_equal(a.arr.rates, b.arr.rates)
    assert np.array_equal(a.net.capacities, b.net.capacities)


def test_tree_family_samples_trees():
    cfg = preset("tree")
    inst = sample_instance(cfg, np.random.default_rng([11, 0]))
    assert inst.net.is_fan_in_tree()


def test_experiment_is_deterministic_and_writes_contract_csv(tmp_path):
    cfg = replace(
        preset("nx1-sufficient"), num_instances=3, horizon=40.0, seed=12345,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rows_a = run_experiment(cfg, out_dir=out_a)
    rows_b = run_experiment(cfg, out_dir=out_b)
    assert rows_a == rows_b
    csv_a = (out_a / "results.csv").read_bytes()
    assert csv_a == (out_b / "results.csv").read_bytes()
    header = csv_a.decode().splitlines()[0]
    assert header == "instance_id,policy,d_avg,d_max,ratio_avg_vs_opt,ratio_max_vs_opt,fairness"
    cdf_lines = (out_a / "cdf_bp_d_avg.csv").read_text().strip().splitlines()
    assert cdf_lines[0] == "value,probability"
    assert cdf_lines[-1].endswith(",1")  # empirical CDF reaches one
    # every instance carries an OPT row with unit ratios
    opt_rows = [r for r in rows_a if r.policy == "opt-queue"]
    assert len(opt_rows) == 3
    assert all(r.ratio_avg_vs_opt == 1.0 for r in opt_rows)


def test_opt_dominates_baselines_within_rounding():
    cfg = replace(preset("nx1-sufficient"), num_instances=4, horizon=60.0, seed=5)
    rows = run_experiment(cfg)
    for row in rows:
        assert row.ratio_avg_vs_opt >= 0.98


def test_worker_pool_matches_sequential():
    cfg = replace(preset("nx1-limited"), num_instances=2, horizon=30.0, seed=8)
    assert run_experiment(cfg, workers=2) == run_experiment(cfg)


# ---------------------------------------------------------------------------
# conjecture study


@pytest.fixture
def conjecture_instance():
    net = full_connection([2, 2])
    arr = ArrivalProfile([4.0, 8.0])
    svc = ServiceProfile([4.0, 4.0])
    return net, arr, svc


def test_conjecture_agrees_on_min_delay_vector(conjecture_instance):
    net, arr, svc = conjecture_instance
    rates = RateAssignment(net, [4.0, 4.0, 5.0, 5.0])  # effective [2,2,4,4]
    outcome = conjecture_check(net, arr, svc, rates)
    assert outcome.predicted_min and outcome.empirical_min and outcome.agree


def test_conjecture_agrees_on_suboptimal_vector(conjecture_instance):
    net, arr, svc = conjecture_instance
    rates = RateAssignment(net, [4.0, 4.0, 5.0, 15.0])  # effective [2,2,2,6]
    outcome = conjecture_check(net, arr, svc, rates)
    assert not outcome.predicted_min and not outcome.empirical_min and outcome.agree


def test_conjecture_single_sink_drain_branch():
    lam = np.array([5.0, 9.0])
    net = single_sink(2)
    arr, svc = ArrivalProfile(lam), ServiceProfile([6.0])
    rates = single_sink_rates(net, lam + 2.0)
    outcome = conjecture_check(net, arr, svc, rates)
    assert outcome.predicted_min and outcome.empirical_min and outcome.agree


def test_conjecture_mini_sweep_has_no_counterexamples(tmp_path):
    agree, bad = conjecture_sweep(300, seed=6, out_dir=tmp_path)
    assert agree == 300 and not bad
    assert not os.path.exists(tmp_path / "conjecture_counterexamples.json")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("nx1", (2, 1), num_instances=0)
    with pytest.raises(ValueError):
        ExperimentConfig("nx1", (2, 1), lambda_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig("nx1", (2, 1), policies=())
    with pytest.raises(ValueError):
        preset("no-such-family")


def test_experiment_config_rejects_unknown_policies_and_nonpositive_steps():
    # a typo used to fail every instance at run time, dropping the valid rows too
    with pytest.raises(ValueError, match=r"unknown policies \['bpp'\]; known: opt-queue"):
        ExperimentConfig("nx1", (4, 1), num_instances=2, horizon=5.0,
                         policies=("opt-queue", "bpp"))
    for field in ("horizon", "dt"):
        for value in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
                ExperimentConfig("nx1", (2, 1), **{field: value})
    with pytest.raises(ValueError, match="dt must not exceed the horizon"):
        ExperimentConfig("nx1", (2, 1), horizon=1.0, dt=2.0)


def test_experiment_json_output(tmp_path):
    import json

    cfg = replace(
        preset("nx1-sufficient"), num_instances=2, horizon=30.0, seed=4,
        policies=("opt-queue", "max"),
    )
    run_experiment(cfg, out_dir=tmp_path, fmt="json")
    payload = json.loads((tmp_path / "results.json").read_text())
    assert len(payload) == 4
    assert {"instance_id", "policy", "d_avg", "d_max", "fairness"} <= set(payload[0])
