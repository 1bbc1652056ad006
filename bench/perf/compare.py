#!/usr/bin/env python3
"""Compare two sets of perf-ledger run records against BENCHMARK.json bounds.

    python3 bench/perf/compare.py BASE CHANGE
    python3 bench/perf/compare.py --self-check SET_A SET_B

BASE, CHANGE and the SET arguments are directories of run records, the JSON
files perf_ledger writes with --out (run.py keeps them under
.bench_build/perf/runs).

For each (end-to-end metric, workload) the report gives each side's median
and quartiles, the pair wins of CHANGE (runs paired by seed, ties count for
neither side) and a verdict:

  improved    CHANGE wins at least 90% of the pairs and the medians differ
              by more than BASE's interquartile range, in the better
              direction;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound, and not every CHANGE run beats every
              BASE run;
  regressed   CHANGE's median is worse than BASE's by more than the bound;
  worse       within the bound, but BASE wins at least 90% of the pairs and
              the medians differ by more than BASE's interquartile range. The
              bound is set by the noisiest workload, so on a steadier one a
              real slowdown can stay inside it; this names it without
              failing the comparison;
  unchanged   otherwise.

It also compares the share of failed operations (failed / attempted); a
CHANGE with more failures than BASE is reported as regressed. Per-layer
metrics from traced records are listed as medians without verdicts.

--self-check treats the two sets as two samples of one code version and
exits 1 unless, for every (metric, workload), each set's spread is within
the bound and SET_B's median is not worse than SET_A's by more than the
bound. The spread/bound column shows the margin.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_records(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        if "workload" not in record or "metrics" not in record:
            continue
        records.append(record)
    return records


def values(records, workload, metric, traced):
    """{seed: value} for one (workload, metric)."""
    out = {}
    for record in records:
        if record["workload"] != workload or record["traced"] != traced:
            continue
        entry = record["metrics"].get(metric)
        if entry is not None and entry["value"] is not None:
            out[record["seed"]] = entry["value"]
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def worse_by(base, change, better):
    """How much worse CHANGE's value is, as a share of BASE (negative when
    better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, metric):
    bound, better = metric["bound"], metric["better"]
    b, c = list(base.values()), list(change.values())
    b1, bm, b3 = quartiles(b)
    cm = quartiles(c)[1]
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if worse_by(base[s], change[s], better) < 0)
    losses = sum(1 for s in seeds if worse_by(base[s], change[s], better) > 0)
    best_base = min(b) if better == "lower" else max(b)
    all_better = all(worse_by(best_base, x, better) < 0 for x in c)
    resolved = abs(cm - bm) > b3 - b1
    if (seeds and wins >= 0.9 * len(seeds) and resolved
            and worse_by(bm, cm, better) < 0):
        result = "improved"
    elif max(spread(b), spread(c)) > bound and not all_better:
        result = "unresolved"
    elif worse_by(bm, cm, better) > bound:
        result = "regressed"
    elif seeds and losses >= 0.9 * len(seeds) and resolved:
        result = "worse"
    else:
        result = "unchanged"
    return wins, len(seeds), result


def failed_share(records, workload):
    attempted = sum(r["attempted"] for r in records if r["workload"] == workload)
    failed = sum(r["failed"] for r in records if r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def fmt(x):
    return f"{x:.4g}"


def compare(base, change, benchmark):
    regressed = False
    print(f"{'workload':22} {'metric':16} {'base q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            b = values(base, workload, metric["name"], False)
            c = values(change, workload, metric["name"], False)
            if not b or not c:
                print(f"{workload:22} {metric['name']:16} missing runs")
                continue
            wins, pairs, result = verdict(b, c, metric)
            regressed = regressed or result == "regressed"
            bq = "/".join(fmt(x) for x in quartiles(list(b.values())))
            cq = "/".join(fmt(x) for x in quartiles(list(c.values())))
            print(f"{workload:22} {metric['name']:16} {bq:>28} {cq:>28} "
                  f"{wins:>3}/{pairs:<3} {metric['bound']:>6}  {result}")
        fb, fc = failed_share(base, workload), failed_share(change, workload)
        more_failures = fc > fb
        regressed = regressed or more_failures
        print(f"{workload:22} {'failed share':16} {fmt(fb):>28} {fmt(fc):>28} "
              f"{'':>7} {'':>6}  {'regressed' if more_failures else 'ok'}")
    traced = [m["name"] for m in benchmark["per_layer"]]
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name in traced:
            b = values(base, workload, name, True)
            c = values(change, workload, name, True)
            if b and c:
                bm = statistics.median(b.values())
                cm = statistics.median(c.values())
                delta = f"{100 * (cm - bm) / abs(bm):+.1f}%" if bm else ""
                print(f"{workload:22} {name:34} {fmt(bm):>12} -> {fmt(cm):>12} "
                      f"{delta}")
    return 1 if regressed else 0


def self_check(first, second, benchmark):
    ok = True
    print(f"{'workload':22} {'metric':16} {'spread A':>9} {'spread B':>9} "
          f"{'B vs A':>8} {'bound':>6} {'spread/bound':>12}  result")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = list(values(first, workload, metric["name"], False).values())
            b = list(values(second, workload, metric["name"], False).values())
            if len(a) < 2 or len(b) < 2:
                print(f"{workload:22} {metric['name']:16} too few runs")
                ok = False
                continue
            bound = metric["bound"]
            sa, sb = spread(a), spread(b)
            shift = worse_by(statistics.median(a), statistics.median(b),
                             metric["better"])
            good = max(sa, sb) <= bound and shift <= bound
            ok = ok and good
            print(f"{workload:22} {metric['name']:16} {100 * sa:8.2f}% "
                  f"{100 * sb:8.2f}% {100 * shift:+7.2f}% {bound:>6} "
                  f"{max(sa, sb) / bound:12.2f}  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("first", help="BASE (or SET_A with --self-check)")
    parser.add_argument("second", help="CHANGE (or SET_B with --self-check)")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    first, second = load_records(args.first), load_records(args.second)
    if args.self_check:
        return self_check(first, second, benchmark)
    return compare(first, second, benchmark)


if __name__ == "__main__":
    sys.exit(main())
