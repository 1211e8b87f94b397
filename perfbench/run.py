"""Benchmark of the sctn pipeline: prepare, training and rollout.

    python3 perfbench/run.py --workload prepare --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop (one caller, whole rounds of the same
operations) for --seconds, checks every output and prints one JSON object
as the last line of standard output: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics from a traced run, whose
spans go to .bench_build/perfbench/spans-<workload>-seed<n>.npz.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

import bench_env

bench_env.pin_threads()  # before numpy is imported anywhere

clock = time.perf_counter
RSS_ROUNDS = 2


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup(workload, reps):
    times = []
    for _ in range(reps):
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
    return times


def _rounds(workload, seconds, min_rounds=1, on_round=None):
    rounds = []
    deadline = clock() + seconds
    while len(rounds) < min_rounds or clock() < deadline:
        rounds.append(workload.round())
        if on_round is not None:
            on_round(len(rounds))
    return rounds


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_op_s(rounds):
    return statistics.median(r.timed_s / r.ops for r in rounds)


def end_to_end(workload, seconds):
    """Set-up is timed before the rounds and once more after each round, so
    its samples see the same machine load as the rounds do."""
    import numpy as np

    setup_times = _setup(workload, workload.setup_reps)
    workload.precheck()
    peak = []

    def after_round(n):
        # The high-water mark is read after a fixed number of rounds: the
        # graph memory the program frees only at full garbage collections
        # would otherwise make it depend on how many rounds fit in the run.
        if n == RSS_ROUNDS:
            peak.append(_peak_rss_mb())
        setup_times.extend(_setup(workload, 1))

    rounds = _rounds(workload, seconds, workload.min_rounds, after_round)
    peak_mb = peak[0] if peak else _peak_rss_mb()
    workload.postcheck()
    latencies_ms = 1e3 * np.concatenate([r.latencies_s for r in rounds])
    p50, p90 = np.percentile(latencies_ms, [50, 90])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (statistics.median(r.items / r.items_s for r in rounds), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = dict(rounds=len(rounds), latency_samples=int(latencies_ms.size),
                  setup_reps=len(setup_times))
    return rounds, {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, detail


def traced(workload, seconds, spans_path):
    """Traced set-up, then rounds alternately untraced and traced, so the
    tracing overhead compares rounds run under the same machine load."""
    import bench_trace

    workload.setup()
    workload.precheck()
    tracer = bench_trace.Tracer(workload.name)
    inst = bench_trace.instrument(tracer)
    try:
        setup_times = _setup(workload, workload.setup_reps)
    finally:
        inst.restore()
    tracer.set_phase("run")
    plain, rounds = [], []
    deadline = clock() + seconds
    while not rounds or clock() < deadline:
        plain.append(workload.round())
        inst = bench_trace.instrument(tracer)
        try:
            rounds.append(workload.round())
        finally:
            inst.restore()
    n_spans = tracer.write(spans_path)
    workload.postcheck()
    ops = sum(r.ops for r in rounds)
    wall = sum(setup_times) + sum(r.timed_s for r in rounds)
    overhead = 100.0 * (_per_op_s(rounds) / _per_op_s(plain) - 1.0)
    metrics = bench_trace.per_layer_metrics(tracer, len(setup_times), ops, wall, overhead)
    detail = dict(rounds=len(rounds), untraced_rounds=len(plain), spans=n_spans,
                  spans_file=str(spans_path))
    return plain + rounds, metrics, detail


def main(argv=None):
    try:
        sctn = bench_env.import_sctn()
    except bench_env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench_workloads

    args = _parse_args(argv, list(bench_workloads.WORKLOADS))
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = bench_env.ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = bench_workloads.WORKLOADS[args.workload](sctn, args.seed, workdir)
        workload.generate()
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            rounds, metrics, detail = traced(workload, args.seconds, spans)
        else:
            rounds, metrics, detail = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  **detail, **bench_env.machine_record())
    print("perfbench: " + json.dumps(record))
    for problem in workload.problems[:20]:
        print(f"perfbench: FAILED CHECK: {problem}")
    result = {
        "correct": not workload.problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
