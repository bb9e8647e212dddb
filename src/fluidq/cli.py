"""Command-line interface.

Subcommands: simulate, check, optimize, overload, bench, conjecture.
Topology documents are JSON (see network.py); custom static rates are JSON
maps keyed "l:i:j" with 1-based indices.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import bench as bench_mod
from .analytics import analytic_report, empirical_report
from .discrete import tagged_run
from .engine import run
from .network import (
    RateAssignment,
    SimConfig,
    full_connection,
    key_name,
    load,
    require_finite_positive,
)
from .optimize import (
    OBJECTIVE_KINDS,
    InfeasibleError,
    ObjectiveSpec,
    balanced_growth_gamma,
    co_optimize,
    overload_check,
    throughput_tight_gamma,
)
from .policies import (
    CheckResult,
    StaticPolicy,
    as_gamma,
    check_min_delay_layered,
    check_min_delay_single_sink,
    check_min_delay_tree,
)

POLICY_HELP = f"one of {', '.join(bench_mod.POLICIES)}, custom:<file>"


@contextmanager
def _one_line(prefix: str):
    """End an input error raised inside the block in one line,
    ``prefix: message``, not a traceback: an ``OSError`` by its
    ``strerror``, a ``ValueError`` or ``TypeError`` by its text."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"{prefix}: {exc.strerror or exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"{prefix}: {exc}") from exc


def _load_net(path):
    with _one_line(f"--net {path}"):
        return load(path)


def _load_rates(net, path) -> RateAssignment:
    with _one_line(f"rates {path}"), open(path, "r", encoding="utf-8") as fh:
        return RateAssignment.from_dict(net, json.load(fh))


def _over_capacity(rates: RateAssignment) -> str | None:
    """Name of the first link whose rate exceeds its capacity, if any."""
    bad = rates.capacity_violations()
    return key_name(bad[0]) if bad else None


def _parse_gamma(spec: str, net, arr, svc):
    if spec == "balanced":
        return balanced_growth_gamma(arr, svc, net.num_layers)
    if spec == "tight":
        return throughput_tight_gamma(arr, svc, net.num_layers)
    if spec.startswith("@"):
        with _one_line(f"--gamma {spec}"), open(spec[1:], "r", encoding="utf-8") as fh:
            values = json.load(fh)
    else:
        values = spec.split(",")
    with _one_line("--gamma"):
        return as_gamma(values, net.num_layers)


def _make_policy(name: str, net, arr, svc, rates_path=None, gamma=None):
    """Rate files are the CLI's own: ``custom:<file>`` and ``opt-static
    --rates <file>`` run the loaded vector.  Every other name goes to the
    policy registry, ``bench.make_policy``."""
    if name.startswith("custom:"):
        name, rates_path = "opt-static", name.split(":", 1)[1]
    if name not in bench_mod.POLICIES:
        raise SystemExit(f"unknown policy {name!r}; expected {POLICY_HELP}")
    if name == "opt-static" and rates_path is not None:
        rates = _load_rates(net, rates_path)
        link = _over_capacity(rates)
        if link:
            raise SystemExit(f"rates {rates_path}: rates exceed capacity on link {link}")
        return StaticPolicy(rates)
    with _one_line(f"policy {name}"):
        instance = bench_mod.Instance(0, net, arr, svc, np.zeros(net.num_nodes))
        return bench_mod.make_policy(name, instance, gamma)


def _write_trajectory(traj, net, out) -> None:
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "trajectory.csv")
    traj.to_csv(net, path)
    print(f"trajectory written to {path}")


def cmd_simulate(args) -> int:
    for flag, value, owner in (("--rates", args.rates, "opt-static"),
                               ("--gamma", args.gamma, "opt-queue")):
        if value and args.policy != owner:
            raise SystemExit(f"{flag} applies to --policy {owner} only, not {args.policy}")
    net, arr, svc = _load_net(args.net)
    gamma = _parse_gamma(args.gamma, net, arr, svc) if args.gamma else None
    policy = _make_policy(args.policy, net, arr, svc, args.rates, gamma)
    cfg = SimConfig(args.horizon, args.dt, discretize=args.mode == "integer")
    with _one_line("--horizon"):
        require_finite_positive("horizon", args.horizon)
    with _one_line("--dt"):
        cfg.resolved_dt()
    q0 = None
    if args.q0:
        with _one_line("--q0"):
            cfg.q0 = [float(v) for v in args.q0.split(",")]
            q0 = cfg.initial_backlog(net)
    if args.mode == "integer" and args.report:
        # with --out the trajectory covers the extension steps too
        tr = tagged_run(net, arr, svc, policy, cfg, keep_trajectory=bool(args.out))
        report = empirical_report(tr, arr)
        print(f"empirical d_avg = {report.d_avg:.6g}, d_max = {report.d_max:.6g}")
        if tr.extension:
            print(f"horizon extended by {tr.extension:g} to drain tagged packets")
        if args.out:
            _write_trajectory(tr.trajectory, net, args.out)
        return 0
    report = None
    if args.report and isinstance(policy, StaticPolicy):
        with _one_line("--report"):
            report = analytic_report(net, arr, svc, policy.assignment, args.horizon, q0=q0)
    traj = run(net, arr, svc, policy, cfg)
    final = traj.final
    print(f"simulated {traj.num_steps} steps of dt={traj.dt:g}")
    print("final backlog:", np.array2string(final.q, precision=3))
    if report is not None:
        print(f"analytic d_avg = {report.d_avg:.6g}, d_max = {report.d_max:.6g}")
    elif args.report:
        print(f"no analytic metrics: policy {args.policy} is dynamic and has no closed "
              "form; --mode integer --report gives empirical metrics")
    if args.out:
        _write_trajectory(traj, net, args.out)
    return 0


def cmd_check(args) -> int:
    net, arr, svc = _load_net(args.net)
    kind = args.kind
    if kind == "auto":
        if net.is_single_sink():
            kind = "single-sink"
        elif net.is_fan_in_tree():
            kind = "tree"
        else:
            kind = "layered"
    if args.gamma and kind != "layered":
        raise SystemExit(f"--gamma applies to --kind layered only, not {kind}")
    rates = _load_rates(net, args.rates)
    gamma = _parse_gamma(args.gamma, net, arr, svc) if args.gamma else None
    link = _over_capacity(rates)
    with _one_line(f"check --kind {kind}"):
        if link:
            # the single-sink checker's capacity clause, for every kind: the
            # layered and tree checkers judge flows, not the capacity box
            result = CheckResult(False, f"capacity exceeded on link {link}")
        elif kind == "single-sink":
            result = check_min_delay_single_sink(net, arr, svc, rates)
        elif kind == "tree":
            result = check_min_delay_tree(net, arr, svc, rates)
        else:
            result = check_min_delay_layered(net, arr, svc, rates, gamma)
    if result.ok:
        print("in the min-delay region")
        if result.gamma:
            print("gamma:", ", ".join(f"{g:.6g}" for g in result.gamma))
        return 0
    print(f"outside the min-delay region: {result.reason}")
    for name, value in result.residuals.items():
        print(f"  {name} = {value:.3g}")
    return 2


def _load_objective(kind: str, net, path) -> ObjectiveSpec:
    """The objective with the restrictions of a constraints file:
    ``forced_zero`` (1-based "l:i:j" link keys), ``beta`` (split cap) and
    ``theta`` (utilization cap)."""
    if path is None:
        return ObjectiveSpec(kind)
    with _one_line(f"--constraints {path}"), open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        unknown = sorted(set(doc) - {"forced_zero", "beta", "theta"})
        if unknown:
            raise ValueError(
                f"unknown key {unknown[0]!r}; the known keys are forced_zero, beta and theta"
            )
        keys = doc.get("forced_zero", [])
        if not isinstance(keys, list):
            raise ValueError(f"forced_zero must be a list of 'l:i:j' link keys, got {keys!r}")
        forced = []
        for key in keys:
            parts = str(key).split(":")
            if len(parts) != 3 or not all(p.isdigit() for p in parts):
                raise ValueError(f"bad link key {key!r}, expected 'l:i:j'")
            link = tuple(int(p) - 1 for p in parts)
            if link not in net.link_index:
                raise ValueError(f"forced-zero link {key} does not exist")
            forced.append(link)
        return ObjectiveSpec(kind, tuple(forced), doc.get("beta"), doc.get("theta"))


def cmd_optimize(args) -> int:
    net, arr, svc = _load_net(args.net)
    gamma = _parse_gamma(args.gamma, net, arr, svc) if args.gamma else None
    spec = _load_objective(args.objective, net, args.constraints)
    try:
        with _one_line(f"optimize --objective {args.objective}"):
            rates, value = co_optimize(net, arr, svc, spec, gamma)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"objective {args.objective} = {value:.9g}")
    payload = json.dumps(rates.to_dict(), indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "rates.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"rates written to {path}")
    else:
        print(payload)
    return 0


def cmd_overload(args) -> int:
    net, arr, svc = _load_net(args.net)
    verdict = overload_check(net, arr, svc)
    print("overloaded" if verdict.overloaded else "not overloaded")
    print(verdict.detail)
    if verdict.witness is not None and args.verbose:
        print(json.dumps(verdict.witness.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    from dataclasses import replace

    with _one_line("bench"):
        cfg = replace(
            bench_mod.preset(args.family),
            num_instances=args.instances,
            seed=args.seed,
            **({"horizon": args.horizon} if args.horizon is not None else {}),
        )
    results = bench_mod.run_experiment(cfg, out_dir=args.out, fmt=args.format,
                                       workers=args.workers)
    missing = cfg.num_instances - len({row.instance_id for row in results})
    by_policy: dict[str, list[float]] = {}
    for row in results:
        by_policy.setdefault(row.policy, []).append(row.ratio_avg_vs_opt)
    for name, ratios in by_policy.items():
        print(
            f"{name}: mean d_avg ratio vs opt = {np.mean(ratios):.3f}, "
            f"max = {np.max(ratios):.3f}"
        )
    if missing:
        print(f"{missing} of {cfg.num_instances} instances produced no rows",
              file=sys.stderr)
        return 1
    return 0


def cmd_conjecture(args) -> int:
    with _one_line(f"--layers {args.layers}"):
        layers = tuple(int(v) for v in args.layers.split(","))
        full_connection(layers)
    if args.samples < 1:
        raise SystemExit(f"--samples must be positive, got {args.samples}")
    agree, bad = bench_mod.conjecture_sweep(
        args.samples, seed=args.seed, layer_sizes=layers, out_dir=args.out
    )
    print(f"{agree}/{args.samples} samples agree")
    if bad:
        print(f"{len(bad)} counterexamples found")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluidq",
        description="Queueing-delay tools for overloaded layered networks",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the queueing dynamics")
    p.add_argument("--net", required=True)
    p.add_argument("--policy", required=True, help=POLICY_HELP)
    p.add_argument("--rates", help="static rates JSON for opt-static (default: sweep rates)")
    p.add_argument("--gamma", help="balanced | tight | g1,g2,... | @file")
    p.add_argument("--horizon", "-T", type=float, required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--mode", choices=("fluid", "integer"), default="fluid")
    p.add_argument("--q0", help="comma-separated per-node initial backlog")
    p.add_argument("--report", action="store_true", help="print delay metrics")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", help="min-delay region membership")
    p.add_argument("--net", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--gamma")
    p.add_argument(
        "--kind",
        choices=("auto", "single-sink", "layered", "tree"),
        default="auto",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("optimize", help="co-optimize a secondary objective")
    p.add_argument("--net", required=True)
    p.add_argument("--objective", choices=OBJECTIVE_KINDS, required=True)
    p.add_argument("--gamma", help="balanced | tight | g1,g2,... | @file")
    p.add_argument("--constraints", help="JSON with forced_zero/beta/theta")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("overload", help="overload verdict for an instance")
    p.add_argument("--net", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_overload)

    p = sub.add_parser("bench", help="policy comparison sweep")
    p.add_argument("--family", required=True,
                   help=f"one of {sorted(bench_mod.FAMILY_PRESETS)}")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--horizon", type=float)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("conjecture", help="effective-rate agreement sweep")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--layers", default="2,2")
    p.set_defaults(fn=cmd_conjecture)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
