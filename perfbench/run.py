#!/usr/bin/env python3
"""wcelab benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload formula-large --seed 0 --seconds 30 --trace 0

runs one workload against the package in ``src/`` of this checkout and prints
a report, ending in one JSON line.  With ``--trace 0`` the JSON carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced pass
that follows an untraced one.  Without ``--workload`` every workload runs,
each in its own process.  See README.md next to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_PART_S, Timeline

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out"
#: set-ups before the first batch's own, so setup_s is a median of at least 3
WARM_SETUPS = 2
#: one client runs one thread at a time; a second BLAS thread would only
#: add the scheduling of a shared 2-core host to every timing
BLAS_THREADS = 1
#: L3 of the 2-core Xeon the baseline was recorded on (lscpu: 105 MiB)
REFERENCE_L3_BYTES = 105 * 2**20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("formula-large", "oracle-verify", "cli-session")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_vendor(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def describe(name: str, error: Exception) -> tuple[str, str]:
    """(reason, description) of a failed query; the exception itself is not
    kept, since its traceback would hold the query's arrays alive."""
    from workloads import failure_reason

    check = getattr(error, "check", name)
    return failure_reason(error), f"{name} [{check}] {type(error).__name__}: {str(error)[:160]}"


def run_batch(workload, inputs, round_no: int, timeline, tracer=None):
    """Every query of the batch, back to back, each followed by a kernel
    timing; returns the outcomes (name, timeline item, (reason,
    description) or None) and the workload's counters."""
    workload.counters.clear()
    outcomes = []
    for i, q in enumerate(workload.queries(inputs)):
        if tracer is not None:
            tracer.query = f"{round_no}:{i}"
            span = tracer.open(f"query:{q.name}")
        error = None
        t0 = time.perf_counter()
        try:
            result = q.run()
        except Exception as exc:  # a failed query is recorded, the run goes on
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span, error=error is not None)
            tracer.query = None
        item = timeline.add(elapsed, q.kernel or workload.kernel)
        timeline.calibrate()
        if error is None:
            try:
                q.check(result)
            except Exception as exc:
                error = exc
        result = None  # free this query's output before the next one runs
        outcomes.append((q.name, item, error and describe(q.name, error)))
    return outcomes, dict(workload.counters)


def run_rounds(step, seconds: float) -> list:
    """Repeat ``step(round_no)`` while another round is expected to end
    within ``seconds``; at least once."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(step(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def summarize(batches, times):
    """Pool the outcomes of several batches; ``times`` holds each timeline
    item's time."""
    from stats import percentile, samples_beyond
    from workloads import KNOWN_DEFECTS

    ok, bad, reasons, examples = [], [], {}, {}
    for outcomes, _ in batches:
        for _, item, failure in outcomes:
            elapsed = times[item]
            if failure is None:
                ok.append(elapsed)
                continue
            bad.append(elapsed)
            reason, description = failure
            reasons[reason] = reasons.get(reason, 0) + 1
            examples.setdefault(reason, description)
    total = len(ok) + len(bad)
    return {
        "attempted": total,
        "failed": len(bad),
        "correct": all(r in KNOWN_DEFECTS for r in reasons),
        "reasons": reasons,
        "examples": examples,
        "p50_ms": percentile(ok, bad, 0.5) * 1e3,
        "p90_ms": percentile(ok, bad, 0.9) * 1e3,
        "beyond_p90": samples_beyond(total, 0.9),
        "walls": [sum(times[item] for _, item, _ in outcomes) for outcomes, _ in batches],
    }


def timed_setup(workload, timeline, setup_items: list):
    t0 = time.perf_counter()
    inputs = workload.setup()
    setup_items.append(timeline.add(time.perf_counter() - t0, workload.kernel))
    timeline.calibrate()
    return inputs


def measure_untraced(workload, seconds):
    """Set up before every batch (and twice before the first), so set-up
    times are sampled across the whole run.  Every time is scaled to the
    reference kernel speed (calibration.py); the raw ones are printed too."""
    timeline = Timeline(workload.kernel_parts)
    timeline.warm()
    setup_items = []
    for _ in range(WARM_SETUPS):
        timed_setup(workload, timeline, setup_items)
    batches = run_rounds(
        lambda r: run_batch(workload, timed_setup(workload, timeline, setup_items), r, timeline), seconds
    )
    scaled = timeline.scaled()
    s, raw = summarize(batches, scaled), summarize(batches, timeline.raw)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def values(times, summary):
        return {
            "setup_s": statistics.median(times[i] for i in setup_items),
            "wall_s": statistics.median(summary["walls"]),
            "query_p50_ms": summary["p50_ms"],
            "query_p90_ms": summary["p90_ms"],
        }

    raw_values = values(timeline.raw, raw)
    metrics = {**values(scaled, s), "peak_rss_mb": peak_mb}
    metrics = {key: (metrics[key], unit) for key, unit in END_TO_END.items()}
    notes = {
        "setup_s": f"median of {len(setup_items)} setups",
        "wall_s": f"median of {len(batches)} batches: " + " ".join(f"{w:.3g}" for w in s["walls"]),
        "query_p50_ms": f"{s['attempted']} queries, {s['failed']} failed, ranked slowest",
        "query_p90_ms": f"{s['beyond_p90']} samples beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for key, value in raw_values.items():
        notes[key] += f"; unscaled {value:.6g}"
    notes["kernel"] = f"{timeline.calibrations} kernel timings:"
    for part, kt in timeline.kernel_times.items():
        q = statistics.quantiles(kt, n=4)
        notes["kernel"] += (f" {part} median {statistics.median(kt) * 1e3:.4g} ms"
                            f" (quartiles {q[0] * 1e3:.4g}, {q[2] * 1e3:.4g};"
                            f" reference {REFERENCE_PART_S[part] * 1e3:.4g})")
    return metrics, notes, s


def measure_traced(workload, seconds, trace_path):
    """Untraced set-up + batch pairs for half the time, then traced ones."""
    import tracing

    timeline = Timeline(workload.kernel_parts)
    timeline.warm()
    plain = run_rounds(lambda r: run_batch(workload, workload.setup(), r, timeline), seconds / 2)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)

    def traced_round(r):
        tracer.query = f"{r}:setup"
        span = tracer.open("setup")
        try:
            inputs = workload.setup()
        finally:
            tracer.close(span)
        return run_batch(workload, inputs, r, timeline, tracer)

    try:
        traced = run_rounds(traced_round, seconds / 2)
    finally:
        tracing.uninstall(undo)
    tracer.write(trace_path)

    scaled = timeline.scaled()
    s = summarize(traced, scaled)
    k = len(traced)
    totals = tracer.layer_totals()
    for _, counters in traced:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    units = tracing.per_layer_metrics()
    metrics = {}
    for key, unit in units.items():
        if key in totals:
            value = totals[key] if key.endswith("evals_per_point") else totals[key] / k
            metrics[key] = (value, unit)
    metrics["queries.fail_frac"] = (s["failed"] / s["attempted"], "ratio")
    for reason in tracing.FAILURE_REASONS:
        metrics[f"queries.failed.{reason}"] = (s["reasons"].get(reason, 0) / k, "count")
    untraced_wall = statistics.median(summarize(plain, scaled)["walls"])
    metrics["trace.overhead_frac"] = (statistics.median(s["walls"]) / untraced_wall - 1.0, "ratio")
    notes = {key: f"per batch, mean of {k} traced batches" for key in metrics}
    return {key: metrics[key] for key in units}, notes, s


def run_one(args) -> int:
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUTDIR))
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop, 1 client, 1 process",
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_vendor(np),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "sizes": workload.sizes,
        "working_set_bytes": workload.working_set_bytes,
        "reference_l3_bytes": REFERENCE_L3_BYTES,
        "kernel_parts_reference_s": {p: REFERENCE_PART_S[p] for p in workload.kernel_parts},
        "kernel": workload.kernel,
    }
    print("stamp", json.dumps(stamp))
    if args.trace:
        OUTDIR.mkdir(exist_ok=True)
        trace_path = OUTDIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        metrics, notes, s = measure_traced(workload, args.seconds, trace_path)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes, s = measure_untraced(workload, args.seconds)
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:14.6g} {unit:12s} {notes.get(key, '')}")
    if "kernel" in notes:
        print(notes["kernel"])
    print(f"fail_frac {s['failed'] / s['attempted']:.4f} ({s['failed']}/{s['attempted']})"
          f" by reason {json.dumps(s['reasons'])}")
    for reason, example in s["examples"].items():
        print(f"  {reason}: {example}")
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wcelab" / "__init__.py").is_file():
        print(f"error: no wcelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status
    # cap BLAS threads before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
