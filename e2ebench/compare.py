#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json.

    python3 e2ebench/compare.py --base A.jsonl [...] --head B.jsonl [...]

Each file holds the JSON-lines records `bench_e2e --out` writes (run.py
merges them into .bench_build/results/e2e.jsonl; copy that file aside
between the two sets). For every workload and end-to-end metric it prints
the median and quartiles of each set and a verdict:

  ok            the head median is within the metric's bound of the base
  REGRESSION    the head median is worse than the base by more than the bound
  unresolved    a set's spread (quartile distance / median) exceeds the
                bound, so the sets cannot be told apart at that bound
  better        spread too wide, but every head run beats every base run

Per-layer medians of traced records are printed without a verdict.
Deterministic fields must not change between the sets: the truth counts and
the failure ratio per workload, and, for traced runs of the same seed, the
engine.*_edges dispatch counts and cluster.rescatters.

Exit status: 0 clean, 1 a regression, 2 a deterministic field changed or a
set has no usable records.
"""

import argparse
import json
import os
import statistics
import sys

DETERMINISTIC_LAYER = ("engine.merge_edges", "engine.gallop_edges",
                       "engine.bitmap_edges", "cluster.rescatters")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r.get("bench") == "e2e"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def values(records, workload, section, name):
    return [r[section][name]["value"] for r in records
            if r["workload"] == workload and name in r.get(section, {})]


def verdict(base, head, better, bound):
    b_med, h_med = quartiles(base)[1], quartiles(head)[1]
    if b_med == 0:
        return 0.0, "ok" if h_med == 0 else "unresolved"
    sign = 1 if better == "lower" else -1
    worse = sign * (h_med - b_med) / abs(b_med)
    if max(spread(base), spread(head)) > bound:
        beats = (max(head) < min(base)) if better == "lower" else \
                (min(head) > max(base))
        return worse, "better" if beats else "unresolved"
    return worse, "REGRESSION" if worse > bound else "ok"


def fmt(vals):
    q1, median, q3 = quartiles(vals)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}"


def deterministic_changes(base, head):
    changes = []
    for workload in sorted({r["workload"] for r in base + head}):
        # Graph shapes do not depend on the seed, so neither do the truths.
        truths = {r["truth_sum"] for r in base + head
                  if r["workload"] == workload}
        if len(truths) > 1:
            changes.append(f"{workload}: truth_sum differs: {sorted(truths)}")
        b = values([r for r in base if r["mode"] == "untraced"], workload,
                   "metrics", "failed_ratio")
        h = values([r for r in head if r["mode"] == "untraced"], workload,
                   "metrics", "failed_ratio")
        if b and h and max(b) != max(h):
            changes.append(f"{workload}: failed_ratio {max(b)} -> {max(h)}")
    traced = {(r["workload"], r["seed"]): r for r in base
              if r["mode"] == "traced"}
    replayed = lambda r: r["metrics"].get("replayed_requests", {}).get("value")
    for r in head:
        other = traced.get((r["workload"], r["seed"]))
        # The counts cover the replayed requests, so runs that replayed a
        # different number of them are not comparable.
        if r["mode"] != "traced" or other is None or \
                replayed(r) != replayed(other):
            continue
        for name in DETERMINISTIC_LAYER:
            a = other["per_layer"].get(name, {}).get("value")
            b = r["per_layer"].get(name, {}).get("value")
            if a != b:
                changes.append(f"{r['workload']} seed {r['seed']}: "
                               f"{name} {a} -> {b}")
    return changes


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    base, head = load(args.base), load(args.head)
    if not base or not head:
        print("compare: a set has no bench_e2e records", file=sys.stderr)
        return 2

    regressed = False
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        print(f"== {workload}")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            untraced = lambda rs: [r for r in rs if r["mode"] == "untraced"]
            b = values(untraced(base), workload, "metrics", name)
            h = values(untraced(head), workload, "metrics", name)
            if not b or not h:
                print(f"  {name:<16} missing in a set")
                continue
            worse, call = verdict(b, h, metric["better"], bound)
            regressed = regressed or call == "REGRESSION"
            print(f"  {name:<16} {metric['unit']:<6} base {fmt(b)} | "
                  f"head {fmt(h)} | worse {100 * worse:+.1f}% "
                  f"(bound {100 * bound:.0f}%) {call}")
        for metric in benchmark["per_layer"]:
            b = values(base, workload, "per_layer", metric["name"])
            h = values(head, workload, "per_layer", metric["name"])
            if b and h:
                print(f"  {metric['name']:<36} {metric['unit']:<6} "
                      f"base {fmt(b)} | head {fmt(h)}")

    changes = deterministic_changes(base, head)
    for change in changes:
        print(f"DETERMINISTIC FIELD CHANGED: {change}")
    if changes:
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
