#!/usr/bin/env python3
"""Build and run the perf ledger; print one JSON result line.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--out FILE] [--binary PATH]
    python3 bench/perf/run.py --smoke [--binary PATH]

A run builds bench/perf (CMake, into .bench_build/perf under the checkout
root, or under $CARGO_TARGET_DIR when set) unless --binary names a built
perf_ledger, runs one workload, and prints as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from a run that also writes a
Chrome trace next to the run record. The full record (every metric, the
correctness checks, the FLightNN k histogram) is kept at --out, by default
.bench_build/perf/runs/<workload>-seed<N>-trace<T>.json; compare.py reads
those records.

--smoke runs every workload at smoke size plus one traced run, and checks
that each passes its correctness checks, reports every BENCHMARK.json metric
and, for the traced run, writes a parseable trace.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perf"


def build():
    """Configure once, then bring perf_ledger up to date; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perf_ledger",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"build step failed: {' '.join(step)}")
    return out / "perf_ledger"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_ledger(binary, workload, seed, seconds, record, trace=None,
               smoke=False):
    """Runs one workload; returns (exit code, record dict or None)."""
    record.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--out", str(record)]
    if trace is not None:
        command += ["--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if record.exists():
        record.unlink()
    code = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S).returncode
    if not record.exists():
        return code, None
    with open(record) as f:
        return code, json.load(f)


def select_metrics(record, declared):
    """The declared metrics, with BENCHMARK.json units; None if any is
    missing or not a finite number."""
    metrics = {}
    for metric in declared:
        entry = record["metrics"].get(metric["name"])
        value = None if entry is None else entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {metric['name']} missing or not finite")
            return None
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def trace_is_valid(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        log(f"trace {path}: {error}")
        return False
    return isinstance(events, list) and len(events) > 0


def smoke(binary, benchmark):
    runs = build_dir() / "smoke"
    ok = True
    cases = [(w["name"], False) for w in benchmark["workloads"]]
    cases.append(("resnet18_single", True))
    for workload, traced in cases:
        stem = runs / f"{workload}{'-trace' if traced else ''}"
        trace = stem.with_suffix(".trace.json") if traced else None
        code, record = run_ledger(binary, workload, 1, 0.3,
                                  stem.with_suffix(".json"), trace, smoke=True)
        declared = benchmark["per_layer" if traced else "end_to_end"]
        good = (code == 0 and record is not None and record["correct"]
                and select_metrics(record, declared) is not None
                and (trace is None or trace_is_valid(trace)))
        log(f"smoke {workload}{' (traced)' if traced else ''}: "
            f"{'ok' if good else 'FAILED'}")
        ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--binary", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    benchmark = load_benchmark()
    binary = args.binary if args.binary else build()
    if args.smoke:
        return smoke(binary, benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    record_path = args.out or (
        build_dir() / "runs" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    trace_path = (record_path.with_suffix(".trace.json")
                  if args.trace else None)
    code, record = run_ledger(binary, args.workload, args.seed, args.seconds,
                              record_path, trace_path)
    if record is None:
        log(f"perf_ledger exited {code} without a run record")
        return code or 1
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = select_metrics(record, declared)
    if metrics is None or (trace_path and not trace_is_valid(trace_path)):
        return 1
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if record["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
