"""Benchmark harness: instance sampling, policy sweeps, and the
effective-rate min-delay agreement study.

Instances are sampled per topology family (arrival rates uniform on a
range, total service pinned to a fraction of total arrivals so the network
is overloaded, values rounded to integers for discrete transmission) and
each policy is measured empirically with the tagged integer simulator.
Everything is deterministic given the seed: instance k uses an RNG derived
from (seed, k), so results are independent of worker scheduling.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytics import DelayReport, analytic_report, empirical_report
from .discrete import tagged_run
from .engine import effective_flow
from .network import (
    ArrivalProfile,
    LayeredNetwork,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    fan_in_tree,
    full_connection,
)
from .optimize import throughput_tight_gamma
from .policies import (
    BackpressurePolicy,
    QueueProportionalPolicy,
    StaticPolicy,
    check_min_delay_layered,
    construct_rate_proportional,
    max_link_rate_rates,
    proportional_fill,
    require_bounded,
    tree_rate_proportional,
)

log = logging.getLogger("fluidq")

TABLE_SHAPES = {
    "16x12x16": (16, 12, 16),
    "12x16x12": (12, 16, 12),
    "16x12x8x6": (16, 12, 8, 6),
    "6x8x12x16": (6, 8, 12, 16),
    "15x12x9x12x15": (15, 12, 9, 12, 15),
    "9x12x15x12x9": (9, 12, 15, 12, 9),
    "12x12x12x12x12": (12, 12, 12, 12, 12),
}

RESULT_HEADER = (
    "instance_id,policy,d_avg,d_max,ratio_avg_vs_opt,ratio_max_vs_opt,fairness"
)


#: The policy registry: name -> ``build(instance, gamma)``.  Sweeps, the
#: CLI and :func:`make_policy` all read it; ``tree`` aliases ``opt-tree``.
#: ``bp`` and ``max`` reject an unbounded network when they are built.
POLICIES = {
    "opt-queue": lambda inst, gamma: QueueProportionalPolicy(gamma),
    "opt-static": lambda inst, gamma: StaticPolicy(_static_opt_rates(inst)),
    "opt-tree": lambda inst, gamma: StaticPolicy(
        tree_rate_proportional(inst.net, inst.arr, inst.svc)
    ),
    "bp": lambda inst, gamma: require_bounded(inst.net, "backpressure") or BackpressurePolicy(),
    "max": lambda inst, gamma: StaticPolicy(max_link_rate_rates(inst.net)),
}
POLICIES["tree"] = POLICIES["opt-tree"]


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    layer_sizes: tuple[int, ...]
    num_instances: int = 50
    horizon: float = 200.0
    dt: float = 1.0
    seed: int = 0
    lambda_range: tuple[float, float] = (12.0, 20.0)
    mu_fraction: float = 0.4
    capacity_range: tuple[float, float] | None = None  # None = sufficient
    q0_range: tuple[int, int] | None = None
    policies: tuple[str, ...] = ("opt-queue", "bp", "max")

    def __post_init__(self):
        if self.num_instances < 1:
            raise ValueError("need at least one instance")
        if self.lambda_range[0] > self.lambda_range[1]:
            raise ValueError("empty lambda range")
        if not self.policies:
            raise ValueError("need at least one policy")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(
                f"unknown policies {unknown}; known: {', '.join(POLICIES)}"
            )
        SimConfig(self.horizon, self.dt, discretize=True).resolved_dt()


FAMILY_PRESETS = {
    "nx1-sufficient": ExperimentConfig(
        "nx1", (32, 1), horizon=200.0, lambda_range=(12.0, 20.0),
        capacity_range=(20.0, 35.0), q0_range=(101, 300),
    ),
    "nx1-limited": ExperimentConfig(
        "nx1", (32, 1), horizon=200.0, lambda_range=(12.0, 20.0),
        capacity_range=(5.0, 15.0), q0_range=(101, 300),
    ),
    "nsxnd": ExperimentConfig(
        "nsxnd", (32, 16), horizon=50.0, lambda_range=(60.0, 100.0),
    ),
    "tree": ExperimentConfig(
        "tree", (8, 4, 2, 1), horizon=50.0, lambda_range=(12.0, 20.0),
        policies=("opt-tree", "bp", "max"),
    ),
}
for _name, _shape in TABLE_SHAPES.items():
    FAMILY_PRESETS[f"multistage-{_name}"] = ExperimentConfig(
        "multistage", _shape, horizon=50.0, lambda_range=(30.0, 50.0),
    )


def preset(name: str) -> ExperimentConfig:
    if name not in FAMILY_PRESETS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_PRESETS)}")
    return FAMILY_PRESETS[name]


@dataclass(frozen=True)
class Instance:
    instance_id: int
    net: LayeredNetwork
    arr: ArrivalProfile
    svc: ServiceProfile
    q0: np.ndarray


@dataclass(frozen=True)
class ResultRow:
    instance_id: int
    policy: str
    d_avg: float
    d_max: float
    ratio_avg_vs_opt: float
    ratio_max_vs_opt: float
    fairness: float


def _dirichlet_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform weights on the simplex via sorted-uniform spacings."""
    if n == 1:
        return np.ones(1)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
    return np.diff(np.concatenate([[0.0], cuts, [1.0]]))


def sample_instance(cfg: ExperimentConfig, rng: np.random.Generator, instance_id: int = 0) -> Instance:
    """Draw one instance following the family's sampling law (integer
    rates/capacities to model discrete packet transmission)."""
    sizes = cfg.layer_sizes
    lam = np.maximum(1, np.round(rng.uniform(*cfg.lambda_range, size=sizes[0])))
    n_egress = sizes[-1]
    if n_egress == 1:
        mu = np.array([max(1.0, np.round(cfg.mu_fraction * lam.sum()))])
    else:
        alpha = _dirichlet_uniform(rng, n_egress)
        mu = np.maximum(1.0, np.round(cfg.mu_fraction * alpha * lam.sum()))

    if cfg.family == "tree":
        child_of = []
        for l in range(len(sizes) - 1):
            row = [int(i) for i in rng.integers(0, sizes[l + 1], size=sizes[l])]
            # every next-layer node needs at least one parent
            missing = set(range(sizes[l + 1])) - set(row)
            spots = list(rng.permutation(sizes[l]))
            for j in missing:
                row[int(spots.pop())] = j
            child_of.append(row)
        capacity = float(np.ceil(lam.sum()))
        net = fan_in_tree(sizes, child_of, capacity)
    else:
        caps = []
        for l in range(len(sizes) - 1):
            if cfg.capacity_range is None:
                block = np.full((sizes[l], sizes[l + 1]), float(np.ceil(lam.max())))
            else:
                block = np.round(
                    rng.uniform(*cfg.capacity_range, size=(sizes[l], sizes[l + 1]))
                )
                block = np.maximum(block, 1.0)
            caps.append(block)
        net = full_connection(sizes, caps)

    if cfg.q0_range is None:
        q0 = np.zeros(net.num_nodes)
    else:
        q0 = rng.integers(cfg.q0_range[0], cfg.q0_range[1] + 1, size=net.num_nodes)
        q0 = q0.astype(float)
    return Instance(instance_id, net, ArrivalProfile(lam), ServiceProfile(mu), q0)


def _static_opt_rates(instance: Instance) -> RateAssignment:
    """Rate-proportional static vector for an instance: on a single-sink
    network the capacity-aware waterfill of the total service rate in
    proportion to the arrivals (link k leaves ingress node k)."""
    net, arr, svc = instance.net, instance.arr, instance.svc
    if net.is_single_sink():
        return RateAssignment(net, proportional_fill(arr.rates, net.capacities, svc.total))
    gamma = throughput_tight_gamma(arr, svc, net.num_layers)
    return construct_rate_proportional(net, arr, svc, gamma)


def make_policy(name: str, instance: Instance, gamma=None):
    """A fresh policy object for ``name`` on ``instance``; ``gamma`` only
    reaches queue-proportional control."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICIES)}")
    return POLICIES[name](instance, gamma)


def measure_policy(instance: Instance, name: str, horizon: float, dt: float) -> DelayReport:
    cfg = SimConfig(horizon=horizon, dt=dt, q0=instance.q0, discretize=True)
    policy = make_policy(name, instance)
    run = tagged_run(instance.net, instance.arr, instance.svc, policy, cfg)
    return empirical_report(run, instance.arr)


def _run_one(args) -> tuple[int, list[tuple] | None]:
    cfg, instance_id = args
    try:
        rng = np.random.default_rng([cfg.seed, instance_id])
        instance = sample_instance(cfg, rng, instance_id)
        out = []
        for name in cfg.policies:
            report = measure_policy(instance, name, cfg.horizon, cfg.dt)
            out.append((instance_id, name, report.d_avg, report.d_max, report.fairness))
        return instance_id, out
    except Exception:
        log.exception("instance %d failed; skipping", instance_id)
        return instance_id, None


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, fmt: str = "csv", workers: int = 1
) -> list[ResultRow]:
    """One ResultRow per (instance, policy); deterministic given the seed.

    Per-instance failures are logged and skipped rather than aborting the
    sweep, as is an instance whose optimal row has a nonpositive or NaN
    delay; such instances have no rows in the result.  When ``out_dir`` is
    given, writes ``results.{csv,json}`` plus one empirical-CDF file per
    (policy, metric).
    """
    opt_name = next((p for p in cfg.policies if p.startswith("opt")), cfg.policies[0])
    jobs = [(cfg, k) for k in range(cfg.num_instances)]
    raw: dict[int, list[tuple]] = {}
    if workers > 1:
        # imported here: the process pool loads multiprocessing, which a
        # serial sweep does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, jobs))
    else:
        outcomes = [_run_one(job) for job in jobs]
    for instance_id, rows in outcomes:
        if rows is not None:
            raw[instance_id] = rows

    results: list[ResultRow] = []
    for k in sorted(raw):
        rows = raw[k]
        opt = next((r for r in rows if r[1] == opt_name), None)
        if opt is None or not (opt[2] > 0 and opt[3] > 0):
            log.warning("instance %d has no usable %s row; skipping", k, opt_name)
            continue
        for _, name, d_avg, d_max, fairness in rows:
            results.append(
                ResultRow(
                    k, name, d_avg, d_max,
                    d_avg / opt[2], d_max / opt[3], fairness,
                )
            )
    if out_dir is not None:
        write_results(results, cfg, out_dir, fmt)
    return results


def write_results(results: list[ResultRow], cfg: ExperimentConfig, out_dir, fmt: str = "csv") -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        payload = [row.__dict__ for row in results]
        with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(os.path.join(out_dir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
            fh.write(RESULT_HEADER + "\n")
            writer = csv.writer(fh)
            for row in results:
                writer.writerow(
                    [
                        row.instance_id,
                        row.policy,
                        f"{row.d_avg:.9g}",
                        f"{row.d_max:.9g}",
                        f"{row.ratio_avg_vs_opt:.9g}",
                        f"{row.ratio_max_vs_opt:.9g}",
                        f"{row.fairness:.9g}",
                    ]
                )
    for name in cfg.policies:
        for metric in ("d_avg", "d_max"):
            values = sorted(
                getattr(r, metric) for r in results if r.policy == name
            )
            path = os.path.join(out_dir, f"cdf_{name}_{metric}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["value", "probability"])
                for i, v in enumerate(values):
                    writer.writerow([f"{v:.9g}", f"{(i + 1) / len(values):.9g}"])


def policy_values(results: list[ResultRow], policy: str, metric: str = "d_avg") -> np.ndarray:
    return np.array([getattr(r, metric) for r in results if r.policy == policy])


# ---------------------------------------------------------------------------
# Effective-rate min-delay agreement (numerical test of the conjectured
# sufficient-and-necessary condition)


@dataclass(frozen=True)
class ConjectureOutcome:
    predicted_min: bool
    empirical_min: bool
    d_avg: float
    d_min: float
    #: the vector sits within measurement resolution of the region boundary:
    #: its membership residual is too small for the value tolerance to
    #: separate (the delay excess grows quadratically in ratio residuals),
    #: so the two classifiers cannot disagree meaningfully
    boundary: bool = False

    @property
    def agree(self) -> bool:
        return self.predicted_min == self.empirical_min or self.boundary


def conjecture_check(
    net: LayeredNetwork,
    arr: ArrivalProfile,
    svc: ServiceProfile,
    rates: RateAssignment,
    horizon: float = 50.0,
    rel_tol: float = 1e-6,
) -> ConjectureOutcome:
    """Compare the effective-rate membership prediction against the actual
    analytic average delay for a static rate vector.

    Membership is checked at 1e-9 residuals while minimality is measured at
    ``rel_tol`` on the value; since the value excess is quadratic in ratio
    residuals (and linear in throughput deficit), residuals between 1e-9
    and sqrt(10 * rel_tol) land inside the value tolerance without being
    members.  Such samples are flagged ``boundary`` rather than counted as
    disagreements: they probe measurement resolution, not the predicted
    equivalence.
    """
    g_tilde, _, _, _ = effective_flow(net, arr, rates.values)
    predicted = check_min_delay_layered(net, arr, svc, RateAssignment(net, g_tilde))
    report = analytic_report(net, arr, svc, rates, horizon)
    d_min = (horizon / 2.0) * max(arr.total / svc.total - 1.0, 0.0)
    empirical = (
        math.isfinite(report.d_avg)
        and abs(report.d_avg - d_min) <= rel_tol * max(d_min, 1.0)
    )
    boundary = False
    if empirical and not predicted:
        loose = check_min_delay_layered(
            net, arr, svc, RateAssignment(net, g_tilde), tol=math.sqrt(10.0 * rel_tol)
        )
        boundary = bool(loose)
    return ConjectureOutcome(bool(predicted), empirical, report.d_avg, d_min, boundary)


def conjecture_sweep(
    num_samples: int,
    seed: int = 0,
    layer_sizes: tuple[int, ...] = (2, 2),
    horizon: float = 50.0,
    out_dir=None,
) -> tuple[int, list[dict]]:
    """Random static vectors on one overloaded instance; returns the number
    of agreeing samples and a list of counterexample artifacts (also written
    to ``out_dir`` when given)."""
    rng = np.random.default_rng([seed, 42])
    lam = np.round(rng.uniform(4.0, 12.0, size=layer_sizes[0]))
    lam = np.maximum(lam, 1.0)
    if layer_sizes[-1] == 1:
        mu = np.array([max(1.0, np.round(0.4 * lam.sum()))])
    else:
        mu = np.maximum(
            1.0,
            np.round(0.4 * _dirichlet_uniform(rng, layer_sizes[-1]) * lam.sum()),
        )
    net = full_connection(layer_sizes)
    arr, svc = ArrivalProfile(lam), ServiceProfile(mu)
    hi = 2.0 * float(lam.max())
    agree = 0
    boundary = 0
    counterexamples: list[dict] = []
    for k in range(num_samples):
        values = rng.uniform(0.0, hi, size=net.num_links)
        rates = RateAssignment(net, values)
        outcome = conjecture_check(net, arr, svc, rates, horizon)
        if outcome.agree:
            agree += 1
            boundary += outcome.boundary
        else:
            counterexamples.append(
                {
                    "sample": k,
                    "lambda": lam.tolist(),
                    "mu": mu.tolist(),
                    "layers": list(layer_sizes),
                    "g": values.tolist(),
                    "predicted_min": outcome.predicted_min,
                    "empirical_min": outcome.empirical_min,
                    "d_avg": outcome.d_avg,
                    "d_min": outcome.d_min,
                }
            )
    if boundary:
        log.info("%d samples sat within measurement resolution of the region "
                 "boundary (consistent at the loose tolerance)", boundary)
    if counterexamples and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "conjecture_counterexamples.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counterexamples, fh, indent=2)
            fh.write("\n")
        log.error("conjecture disagreement: %d counterexamples written to %s",
                  len(counterexamples), path)
    return agree, counterexamples
