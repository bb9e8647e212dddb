"""Per-layer metrics of the traced run.

``install`` wraps the public calls into each layer of the package
(network, engine, discrete, analytics, policies, lp, optimize, bench);
``summarise`` turns the recorded spans into the per-layer metrics.  The
catalogue lists every metric; a workload reports 0 for a layer it does
not run.  Times are means per call or per simulated step over the whole
traced phase, scaled to the reference machine speed like the end-to-end
timings (set-up spans are not scaled); counts are means over the first
pass over the inputs, which every run completes, so they repeat exactly
for a seed.
"""
from __future__ import annotations

from collections import defaultdict

import fluidq as fq

import workloads as wl
from tracing import durations

MODULES = ("network", "engine", "discrete", "analytics", "policies", "lp", "optimize", "bench")
POLICIES = ("opt-queue", "opt-tree", "bp", "max", "opt-static")
PAPER_CLASSES = [
    (family, policy)
    for family, (preset, _, _) in wl.PAPER_FAMILIES.items()
    for policy in fq.bench.preset(preset).policies
]


def catalogue() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {}
    for family, policy in PAPER_CLASSES:
        names[f"discrete.tagged_step_ms.{family}.{policy}"] = "ms"
    for count in ("steps", "extension_steps", "tagged_packets"):
        for family, policy in PAPER_CLASSES:
            names[f"discrete.{count}.{family}.{policy}"] = "count"
    names["analytics.empirical_report_us"] = "us"
    for policy in POLICIES:
        names[f"policies.rates_us.{policy}"] = "us"
    names["policies.share"] = "ratio"
    for mode in wl.SIM_MODES:
        for shape in wl.SIM_SHAPES:
            names[f"engine.{mode}_step_us.{shape}"] = "us"
    for shape in wl.CF_SHAPES:
        names[f"engine.effective_flow_us.{shape}"] = "us"
        names[f"policies.check_layered_us.{shape}"] = "us"
        names[f"analytics.analytic_report_us.{shape}"] = "us"
    names["lp.solve_lp_s"] = "s"
    names["lp.share"] = "ratio"
    for size in ("rows", "cols", "cells"):
        names[f"lp.tableau_{size}"] = "count"
    names["optimize.build_s"] = "s"
    for op in wl.OPT_OPS:
        names[f"optimize.{op}_ms"] = "ms"
    for op in wl.OPT_OPS:
        for outcome in ("ok", "infeasible", "failed"):
            names[f"optimize.outcome.{op}.{outcome}"] = "count"
    names["bench.sample_instance_s"] = "s"
    names["bench.make_policy_s"] = "s"
    names["network.ensure_valid_us"] = "us"
    for module in MODULES:
        names[f"self_share.{module}"] = "ratio"
    names["failed_share"] = "ratio"
    names["trace.overhead"] = "ratio"
    return names


def _tableau_size(args, kwargs):
    """Dense tableau the simplex builds for these arguments (computed from
    them, not read from the solver): one row per constraint plus the cost
    row; columns for variables, slacks, artificials and the right-hand
    side.  Equality rows and inequality rows with a negative bound need an
    artificial."""
    given = dict(zip(("c", "a_ub", "b_ub", "a_eq", "b_eq"), args))
    given.update(kwargs)
    n = len(given["c"])
    a_ub, b_ub, a_eq = given.get("a_ub"), given.get("b_ub"), given.get("a_eq")
    n_ub = 0 if a_ub is None else len(a_ub)
    n_eq = 0 if a_eq is None else len(a_eq)
    negative = 0 if n_ub == 0 else int((b_ub < 0).sum())
    rows = n_ub + n_eq + 1
    cols = n + n_ub + n_eq + negative + 1
    return rows, cols


def install(tracer) -> None:
    import fluidq.analytics
    import fluidq.bench
    import fluidq.discrete
    import fluidq.engine
    import fluidq.lp
    import fluidq.optimize
    import fluidq.policies

    for module, attr, name in (
        (fq.discrete, "tagged_run", "discrete.tagged_run"),
        (fq.engine, "run", "engine.run"),
        (fq.analytics, "empirical_report", "analytics.empirical_report"),
        (fq.bench, "conjecture_check", "bench.conjecture_check"),
        (fq.bench, "effective_flow", "engine.effective_flow"),
        (fq.policies, "effective_flow", "engine.effective_flow"),
        (fq.analytics, "effective_flow", "engine.effective_flow"),
        (fq.bench, "check_min_delay_layered", "policies.check_min_delay_layered"),
        (fq.optimize, "check_min_delay_layered", "policies.check_min_delay_layered"),
        (fq.bench, "analytic_report", "analytics.analytic_report"),
        (fq.optimize, "overload_check", "optimize.overload_check"),
        (fq.optimize, "co_optimize", "optimize.co_optimize"),
        (fq.bench, "sample_instance", "bench.sample_instance"),
        (fq.bench, "make_policy", "bench.make_policy"),
        (fq.engine, "ensure_valid", "network.ensure_valid"),
        (fq.optimize, "ensure_valid", "network.ensure_valid"),
    ):
        tracer.patch(module, attr, name)
    tracer.patch(fq.lp, "solve_lp", "lp.solve_lp", extra=_tableau_size)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def summarise(workload, plan, records, spans, min_ops, overhead, failed_share):
    units = catalogue()
    values = {name: 0.0 for name in units}
    dur, own = durations(spans)
    by_op = defaultdict(list)
    by_name = defaultdict(list)
    op_total = 0.0
    for k, span in enumerate(spans):
        if isinstance(span[4], int):
            # spans inside an operation are scaled to the reference machine
            # speed like the operation itself
            rec = records[span[4]]
            speed = rec["scaled"] / rec["latency"]
            dur[k] *= speed
            own[k] *= speed
        by_op[span[4]].append(k)
        if span[0] == "op":
            op_total += dur[k]
        else:
            by_name[span[0]].append(dur[k])

    series = defaultdict(list)
    for i, rec in enumerate(records):
        kind = plan.ops[rec["idx"]].kind
        ids = by_op[i]
        total = defaultdict(float)
        calls = 0
        notes = []
        for k in ids:
            name = spans[k][0]
            total[name] += dur[k]
            if name.startswith("policies.rates."):
                total["policy"] += dur[k]
                calls += 1
            if name == "lp.solve_lp":
                notes.append(spans[k][5])
        counted = i < min_ops
        if workload == "paper-sweep" and calls:
            family, policy = kind
            step = (total["discrete.tagged_run"] - total["policy"]) / calls
            series[f"discrete.tagged_step_ms.{family}.{policy}"].append(step * 1e3)
            if counted and rec["out"] is not None:
                series[f"discrete.steps.{family}.{policy}"].append(calls)
                for key, value in plan.ops[rec["idx"]].counts(rec["out"]).items():
                    series[f"discrete.{key}.{family}.{policy}"].append(value)
        elif workload == "simulate" and calls:
            mode, shape, _ = kind
            step = (total["engine.run"] - total["policy"]) / calls
            series[f"engine.{mode}_step_us.{shape}"].append(step * 1e6)
        elif workload == "closed-form":
            (shape,) = kind
            for key, name in (
                ("engine.effective_flow_us", "engine.effective_flow"),
                ("policies.check_layered_us", "policies.check_min_delay_layered"),
                ("analytics.analytic_report_us", "analytics.analytic_report"),
            ):
                series[f"{key}.{shape}"].extend(
                    dur[k] * 1e6 for k in ids if spans[k][0] == name
                )
        elif workload == "optimizer":
            _, op = kind
            series[f"optimize.{op}_ms"].append(total["op"] * 1e3)
            series["optimize.build_s"].append(total["op"] - total["lp.solve_lp"])
            if counted:
                for rows, cols in notes:
                    series["lp.tableau_rows"].append(rows)
                    series["lp.tableau_cols"].append(cols)
                    series["lp.tableau_cells"].append(rows * cols)
                if rec["status"] == "failed":
                    outcome = "failed"
                elif op != "overload_check" and rec["out"][0] == "infeasible":
                    outcome = "infeasible"
                else:
                    outcome = "ok"
                values[f"optimize.outcome.{op}.{outcome}"] += 1

    for name, seq in series.items():
        values[name] = _mean(seq)
    if workload == "paper-sweep":
        values["analytics.empirical_report_us"] = _mean(by_name["analytics.empirical_report"]) * 1e6
    for policy in POLICIES:
        values[f"policies.rates_us.{policy}"] = _mean(by_name[f"policies.rates.{policy}"]) * 1e6
    policy_time = sum(sum(v) for n, v in by_name.items() if n.startswith("policies.rates."))
    values["policies.share"] = policy_time / op_total
    if workload == "optimizer":
        values["lp.solve_lp_s"] = _mean(by_name["lp.solve_lp"])
        values["lp.share"] = sum(by_name["lp.solve_lp"]) / op_total
    setup = by_op["setup"]
    values["bench.sample_instance_s"] = sum(
        dur[k] for k in setup if spans[k][0] == "bench.sample_instance"
    )
    values["bench.make_policy_s"] = sum(
        dur[k] for k in setup if spans[k][0] == "bench.make_policy"
    )
    values["network.ensure_valid_us"] = _mean(by_name["network.ensure_valid"]) * 1e6
    for module in MODULES:
        mine = sum(
            own[k]
            for k, span in enumerate(spans)
            if span[4] != "setup" and span[0].split(".", 1)[0] == module
        )
        values[f"self_share.{module}"] = mine / op_total
    values["failed_share"] = failed_share
    values["trace.overhead"] = overhead
    return {name: (float(values[name]), units[name]) for name in units}
