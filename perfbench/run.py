"""fluidq benchmark: one workload per process, one operation at a time.

    python3 perfbench/run.py --workload paper-sweep --seed 20240811 \
        --seconds 20 --trace 0

Builds the workload's inputs from the seed, times operations in a closed
loop (one outstanding call) for ``--seconds`` seconds of operation time and
at least one whole pass over the inputs, checks every output against an
independent route, and prints one JSON object as the last line of standard
output.  Its ``attempted`` and ``failed`` count distinct operations, each
once however often it ran, so they repeat exactly for a seed.  With ``--trace 0`` it holds
the end-to-end metrics; with ``--trace 1`` the run is repeated with spans
recorded around each layer's public calls and it holds the per-layer
metrics.  A record of the run (digest, failures, machine), and for a
traced run its spans, is written to ``perfbench/out/``.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 20240811
SETUP_REPS = 5
IMPORT_RUNS = 5
#: seconds the reference loop takes on the machine the benchmark was
#: defined on (2 vCPU VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 2.5e-4
#: a probe of the machine's speed runs after each PROBE_EVERY_S seconds of
#: operation time; an operation is scaled by the median of the
#: PROBE_WINDOW probes on either side of it
PROBE_EVERY_S = 0.025
PROBE_WINDOW = 5
#: the percentile reported as op_tail_ms, the same in every run so that
#: runs compare like with like; higher ones are set by the host's
#: preemption spikes and spread too widely between runs to compare
TAIL_PCT = 90.0

clock = time.perf_counter


def import_program() -> None:
    """Import fluidq from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "fluidq", "__init__.py")):
        raise SystemExit(f"error: no fluidq sources under {SRC}")
    sys.path.insert(0, SRC)
    import fluidq

    if not os.path.abspath(fluidq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: fluidq imported from {fluidq.__file__}, not {SRC}")


def import_time() -> float:
    """Median time of ``import fluidq`` in IMPORT_RUNS fresh interpreters,
    each scaled to the reference speed.  One import in this process would
    be a single sample of a noisy host."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import fluidq; print(time.perf_counter() - t)"
    )
    took = []
    for _ in range(IMPORT_RUNS):
        speed = REFERENCE_S / probe_time()
        done = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True,
            check=True, timeout=120,
        )
        took.append(float(done.stdout) * speed)
    return statistics.median(took)


def reference_loop() -> None:
    """Fixed work that does not touch the program: an interpreter loop and
    small numpy calls, the two kinds of work the operations are made of
    (a memory-bound part tracked the operations worse in trials)."""
    import numpy

    total = 0
    for k in range(2000):
        total += k * k
    v = numpy.zeros(64)
    for _ in range(80):
        v = numpy.add(v, 1.0)


def probe_time(count: int = 5) -> float:
    """Median time of ``count`` reference loops, run back to back."""
    took = []
    for _ in range(count):
        start = clock()
        reference_loop()
        took.append(clock() - start)
    return statistics.median(took)


def unwrapped(policy, label):
    """Policy wrapper of the untraced runs: the policy itself."""
    return policy


def timed_phase(plan, seconds, min_ops, keep, tracer=None):
    """Closed loop over the plan's operations until ``seconds`` of
    operation time have passed and at least ``min_ops`` ran.  Checks and
    speed probes run between operations, outside the timed intervals.
    Returns the per-operation records, ``keep`` of the first output of each
    distinct operation (when given; held outputs would count in the peak
    resident set), and the probes as (operations before it, seconds)."""
    ops = plan.ops
    records = []
    first: dict[int, object] = {}
    summaries: dict[int, tuple] = {}
    probes = []
    busy = 0.0
    since_probe = PROBE_EVERY_S
    i = 0
    while busy < seconds or i < min_ops:
        if since_probe >= PROBE_EVERY_S:
            since_probe = 0.0
            start = clock()
            reference_loop()
            probes.append((i, clock() - start))
        idx = i % len(ops)
        op = ops[idx]
        error = message = None
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            out = op.run() if tracer is None else tracer.call("op", op.run)
        except Exception as exc:  # counted per operation; the run goes on
            out, error, message = None, type(exc).__name__, str(exc)
        latency = clock() - start
        busy += latency
        since_probe += latency
        problem = None
        if error is None:
            problem = op.check(out)
            summary = op.summary(out)
            if idx not in summaries:
                summaries[idx] = summary
                if keep is not None:
                    first[idx] = keep(out)
            elif summaries[idx] != summary:
                problem = "output differs from an earlier run of the same input"
        records.append(
            {
                "idx": idx,
                "latency": latency,
                "error": error,
                "message": message,
                "problem": problem,
                "out": out if tracer is not None and i < min_ops else None,
            }
        )
        i += 1
    scale_to_reference(records, probes)
    return records, first, probes


def scale_to_reference(records, probes) -> None:
    """Add to each record its latency at the reference machine speed: the
    latency times REFERENCE_S over the median probe time around it.  The
    host's speed drifts by tens of percent over seconds; the probes cancel
    most of that drift, which would otherwise swamp run-to-run
    comparisons."""
    at = [n for n, _ in probes]
    took = [t for _, t in probes]
    for n, rec in enumerate(records):
        pos = bisect.bisect_right(at, n)
        local = statistics.median(took[max(0, pos - PROBE_WINDOW): pos + PROBE_WINDOW])
        rec["scaled"] = rec["latency"] * REFERENCE_S / local


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(latencies):
    """TAIL_PCT, lowered to the highest percentile with at least ten
    samples beyond it when a run holds fewer than a hundred samples."""
    for p in (TAIL_PCT, 75.0):
        if len(latencies) * (1.0 - p / 100.0) >= 10:
            return p, percentile(latencies, p)
    return 50.0, percentile(latencies, 50.0)


def settle(plan, workload, records, first):
    """Apply the post-phase checks and mark each record ok or failed.
    Returns the failures grouped by class of operation and by exception
    class ("check" for a wrong output), each with a count of distinct
    operations and an example, and the problems that are not tied to one
    operation."""
    messages = []
    bad_idx = {}
    if workload.post_check is not None:
        for idx, reason in workload.post_check(plan, first):
            if idx < 0:
                messages.append(reason)
            else:
                bad_idx[idx] = reason
    failures = {}
    for rec in records:
        reason = rec["problem"] or bad_idx.get(rec["idx"])
        if rec["error"] is None and reason is None:
            rec["status"] = "ok"
            continue
        rec["status"] = "failed"
        key = ("/".join(plan.ops[rec["idx"]].kind), rec["error"] or "check")
        entry = failures.setdefault(key, {"ops": set(), "example": rec["message"] or reason})
        entry["ops"].add(rec["idx"])
    return {key: {"count": len(entry.pop("ops")), **entry} for key, entry in failures.items()}, messages


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop : len(ordered) - drop]
    return sum(kept) / len(kept)


def class_mean(plan, records, stat, key="scaled"):
    """Geometric mean, over the workload's classes of operation, of
    ``stat`` of each class's latencies.  Every class weighs alike however
    fast it is."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(plan.ops[rec["idx"]].kind, []).append(rec[key])
    logs = [math.log(stat(lat)) for lat in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


def typical_rate(plan, records, key="scaled"):
    """Operations per second: one over the class mean of the 10%-trimmed
    mean latency.  Drain times, and so latencies, are heavy-tailed across
    sampled instances (a tree under bp can take 2 s where its class
    typically takes 15 ms); trimming keeps a few extreme instances and
    preemption spikes from setting the rate."""
    return 1.0 / class_mean(plan, records, trimmed_mean, key)


def typical_median(plan, records, key="scaled"):
    """Median latency in seconds: the class mean of the median latency.
    The median of all operations together falls between the modes of a
    workload whose classes differ in speed (closed-form: a third of its
    operations take 0.24 ms, the rest 0.78 ms), where it moves with the
    shape of one class's lower tail rather than with its typical cost."""
    return class_mean(plan, records, statistics.median, key)


def per_class(plan, records):
    """Sample count and mean scaled latency of each class of operation."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault("/".join(plan.ops[rec["idx"]].kind), []).append(rec["scaled"])
    return {
        kind: {"samples": len(lat), "mean_ms": 1e3 * sum(lat) / len(lat)}
        for kind, lat in sorted(by_kind.items())
    }


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    import_s = import_time()
    build_s = []
    for _ in range(SETUP_REPS):
        speed = REFERENCE_S / probe_time()
        start = clock()
        plan = workload.build(args.seed, unwrapped)
        build_s.append((clock() - start) * speed)
    min_ops = len(plan.ops)

    records, first, probes = timed_phase(plan, args.seconds, min_ops, workload.keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, messages = settle(plan, workload, records, first)

    golden_path = os.path.join(HERE, "digests.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh).get(args.workload, {})
    expected = golden.get(str(args.seed))
    if expected is not None and expected != plan.digest:
        messages.append(
            f"input digest {plan.digest} differs from the recorded {expected}: "
            "the generated inputs changed, so this run is not comparable"
        )

    attempted = len({r["idx"] for r in records})
    failed = len({r["idx"] for r in records if r["status"] == "failed"})
    latencies = [r["scaled"] for r in records]
    tail_pct, tail_s = tail(latencies)
    raw = [r["latency"] for r in records]
    ops_per_s = typical_rate(plan, records)
    e2e = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (typical_median(plan, records) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (import_s + statistics.median(build_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": plan.digest,
        "samples": len(records),
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(1 for x in latencies if x > tail_s),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "per_class_ms": per_class(plan, records),
        "latencies_us": [[r["idx"], round(r["latency"] * 1e6, 1)] for r in records],
        "probes_us": [[n, round(t * 1e6, 1)] for n, t in probes],
        "failures": [
            {"kind": kind, "error": error, **entry}
            for (kind, error), entry in sorted(failures.items())
        ],
        "problems": messages,
        "import_s_scaled": import_s,
        "build_s_scaled": build_s,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "unscaled": {
            "ops_per_s": typical_rate(plan, records, "latency"),
            "op_p50_ms": typical_median(plan, records, "latency") * 1e3,
            "op_tail_ms": percentile(raw, tail_pct) * 1e3,
            "median_probe_s": statistics.median(t for _, t in probes),
        },
        "machine": machine(),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            tracer.op_id = "setup"
            traced_plan = workload.build(args.seed, tracer.policy)
            traced, traced_first, _ = timed_phase(
                traced_plan, args.seconds, min_ops, workload.keep, tracer
            )
        finally:
            tracer.restore()
        settle(traced_plan, workload, traced, traced_first)
        per_layer = layers.summarise(
            args.workload, traced_plan, traced, tracer.spans, min_ops,
            overhead=ops_per_s / typical_rate(traced_plan, traced) - 1.0,
            failed_share=record["failed_share"],
        )
        record["per_layer"] = per_layer
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write('["name", "start_us", "end_us", "parent", "op"]\n')
            for name, start, end, parent, op_id, _ in tracer.spans:
                fh.write(json.dumps([name, round(start * 1e6, 1), round(end * 1e6, 1), parent, op_id]))
                fh.write("\n")

    for key, (value, unit) in e2e.items():
        print(f"{key:>12} {value:14.6g} {unit}", file=sys.stderr)
    print(
        f"samples {len(records)}, tail p{tail_pct:g}, failed {failed} of {attempted} inputs, "
        f"digest {plan.digest[:16]}",
        file=sys.stderr,
    )
    for item in record["failures"]:
        print(
            f"failure: {item['kind']} {item['error']} x{item['count']}: {item['example']}",
            file=sys.stderr,
        )
    for message in messages:
        print(f"problem: {message}", file=sys.stderr)

    result = {
        "correct": not messages and all(error != "check" for (_, error) in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
