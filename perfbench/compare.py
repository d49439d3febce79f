#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories (or single files) holding the standard output of
`perfbench/run.py`, one run per file. For each (metric, workload) pair the tool prints both
sides' median and quartiles and a verdict against the metric's bound from BENCHMARK.json:

  worse       the new median is worse than the base median by more than the bound;
  better      the new side wins at least 9 of every 10 runs paired in seed order (ties count
              for neither) and the medians differ by more than the base side's own spread
              (the distance between its quartiles);
  within      neither of the above, with both sides' spreads inside the bound;
  unresolved  a side's spread is wider than the bound, unless every new run reads better
              (or worse) than every base run.

Per-layer metrics (traced runs) have no bound; they are printed with the median change only.
Exit status is 1 when any pair is worse, else 0. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

PAIRED_WIN_SHARE = 0.9


def load_run(path):
    """(workload, seed, trace, {metric: value}) from one run's standard output."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    header = next((line for line in lines if line.startswith("# perfbench ")), None)
    if header is None or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: not a perfbench run output")
    fields = dict(item.split("=", 1) for item in header.split()[2:])
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return fields["workload"], int(fields["seed"]), int(fields["trace"]), values


def load_set(path):
    """{(workload, trace): [(seed, values), ...]} for a directory or a single file."""
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    for run_path in paths:
        workload, seed, trace, values = load_run(run_path)
        runs.setdefault((workload, trace), []).append((seed, values))
    for entries in runs.values():
        entries.sort(key=lambda entry: entry[0])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(base, new, bound, better):
    """Verdict for one (metric, workload) pair. `base` and `new` are run values in paired
    (seed) order; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    # Positive = worse, as a share of the base median.
    change = sign * (new_median - base_median) / base_median
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if spread(base) > bound or spread(new) > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if pairs and wins >= PAIRED_WIN_SHARE * len(pairs) and -change > spread(base):
        return "better"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    base_runs = load_set(args.base)
    new_runs = load_set(args.new)

    any_worse = False
    print(f"{'workload':17s} {'metric':28s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s}  verdict")
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base_entries, new_entries = base_runs[key], new_runs[key]
        names = sorted(set(base_entries[0][1]) & set(new_entries[0][1]))
        for name in names:
            base = [values[name] for _, values in base_entries]
            new = [values[name] for _, values in new_entries]
            b1, bm, b3 = quartiles(base)
            n1, nm, n3 = quartiles(new)
            change = (nm - bm) / bm if bm else float("nan")
            if name in bounds and not trace:
                result = verdict(base, new, bounds[name]["bound"], bounds[name]["better"])
                result += f" (bound {bounds[name]['bound']:g})"
                any_worse |= result.startswith("worse")
            else:
                result = "no bound"
            print(f"{workload:17s} {name:28s} {bm:12.5g} [{b1:.5g}, {b3:.5g}]".ljust(80)
                  + f" {nm:12.5g} [{n1:.5g}, {n3:.5g}]".ljust(33)
                  + f" {change:+8.1%}  {result}")
    missing = sorted(set(base_runs) ^ set(new_runs))
    if missing:
        print("only in one set: " + ", ".join(f"{w} (trace {t})" for w, t in missing))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
