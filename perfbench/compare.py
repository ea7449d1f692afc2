#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories holding the records perfbench/run.py writes
(.bench_results/ or a copy of it), searched recursively.  For every workload
and metric present in both, prints each side's median and quartiles, the
change of the medians, and a verdict:

  better      NEW's median improves on BASE's by more than BASE's own
              quartile spread, and NEW wins at least 9 in 10 of all
              (BASE run, NEW run) pairs;
  worse       NEW's median is worse than BASE's by more than the metric's
              bound from BENCHMARK.json, and the runs resolve it: both
              spreads are within the bound, or every NEW run is worse than
              every BASE run;
  unresolved  a spread is wider than the bound and neither rule above holds
              (per-layer metrics, which have no bound: neither rule holds);
  same        within the bound.

Exits 1 when any end-to-end metric is worse, so the tool can gate a change.
Uses only the Python standard library.
"""

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def load_records(root):
    records = []
    for directory, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name)) as f:
                    record = json.load(f)
            except (OSError, ValueError):
                continue
            if isinstance(record, dict) and "result" in record and "workload" in record:
                records.append(record)
    return records


def group(records):
    """(workload, trace) -> metric -> [values]; plus the hosts and run lengths seen."""
    values, hosts, lengths = {}, set(), set()
    for record in records:
        key = (record["workload"], record.get("trace", 0))
        metrics = values.setdefault(key, {})
        for name, metric in record["result"].get("metrics", {}).items():
            metrics.setdefault(name, []).append(float(metric["value"]))
        host = record.get("host", {})
        hosts.add((host.get("cpu_model"), host.get("nproc")))
        lengths.add(record.get("seconds"))
    return values, hosts, lengths


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, lower_is_better, bound):
    if len(set(base) | set(new)) == 1:
        return "same"  # e.g. a count that repeats exactly, or a layer off this path
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0) / len(pairs)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    widest = max(spread(base), spread(new))
    if -worse_by > spread(base) and wins >= 0.9:
        return "better"
    if bound is None:
        return "worse" if worse_by > spread(base) and losses >= 0.9 else "unresolved"
    if worse_by > bound and (widest <= bound or losses == 1.0):
        return "worse"
    if widest > bound:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    with open(BENCHMARK_JSON) as f:
        benchmark = json.load(f)
    spec = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}

    base, base_hosts, base_lengths = group(load_records(args.base))
    new, new_hosts, new_lengths = group(load_records(args.new))
    if base_hosts != new_hosts or len(base_hosts) > 1:
        print(f"warning: hosts differ or are mixed: {sorted(map(str, base_hosts | new_hosts))}")
    if base_lengths != new_lengths or len(base_lengths) > 1:
        print(f"warning: run lengths differ or are mixed: {sorted(map(str, base_lengths | new_lengths))}")

    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})")
        print(f"  {'metric':36s} {'unit':>13s}  {'base median [q1, q3]':34s} "
              f"{'new median [q1, q3]':34s} {'change':>8s}  verdict")
        for name in sorted(set(base[key]) & set(new[key])):
            if name not in spec:
                continue
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            result = verdict(b, n, spec[name]["better"] == "lower", spec[name].get("bound"))
            if result == "worse" and name in end_to_end:
                regressions += 1
            base_col = f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
            new_col = f"{nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]"
            print(f"  {name:36s} {spec[name]['unit']:>13s}  {base_col:34s} {new_col:34s} "
                  f"{100 * change:+7.1f}%  {result} (n={len(b)}/{len(n)})")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"\nonly in one set: {missing}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
