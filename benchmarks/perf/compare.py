"""``--compare A.json B.json``: is B worse than A, metric by metric?

One row per (workload, end-to-end metric): both medians over the files'
untraced runs, the ratio B/A, the metric's bound from ``BENCHMARK.json``
and a verdict.  ``worse``: B's median is worse than A's by more than the
bound.  ``unresolved``: the run-to-run spread (interquartile range over
median) of either side is wider than the bound, so the medians decide
nothing — unless every run of B reads better than every run of A.
``same`` otherwise.  Then every exact-count layer metric that differs
between traced runs of the same workload and seed.  The exit code is 0
only if no row is worse, no operation failed and no exact count differs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: Units of host time.  Every other layer metric, bar the ``*_share`` of
#: host time, is a count made by a deterministic program: it repeats
#: exactly, so any difference between two files is a real change.
HOST_TIME_UNITS = {"ms", "us", "x", "kcycles/s"}


def exact_names(spec: dict) -> set[str]:
    return {m["name"] for m in spec["per_layer"]
            if m["unit"] not in HOST_TIME_UNITS
            and not m["name"].endswith("_share")}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, mid, high = statistics.quantiles(values, n=4)
    return (high - low) / mid


def load(path: Path):
    timed = defaultdict(lambda: defaultdict(list))
    counted = {}
    failed = 0
    for run in json.loads(path.read_text())["runs"]:
        failed += run["failed"]
        values = {name: m["value"] for name, m in run["metrics"].items()}
        if run["trace"]:
            counted[run["workload"], run["seed"]] = values
        else:
            for name, value in values.items():
                timed[run["workload"]][name].append(value)
    return timed, counted, failed


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "same"
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    timed_a, counted_a, failed_a = load(path_a)
    timed_b, counted_b, failed_b = load(path_b)
    print(f"A = {path_a} ({failed_a} failed operations),"
          f" B = {path_b} ({failed_b} failed operations)")
    print(f"{'workload':<17}{'metric':<16}{'median A':>12}{'median B':>12}"
          f"{'B/A':>8}{'bound':>7}{'iqr A':>7}{'iqr B':>7}  verdict")
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = timed_a[workload][metric["name"]]
            b = timed_b[workload][metric["name"]]
            if not a or not b:
                continue
            word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            base, other = statistics.median(a), statistics.median(b)
            print(f"{workload:<17}{metric['name']:<16}{base:>12.5g}"
                  f"{other:>12.5g}{other / base:>8.3f}{metric['bound']:>7.2f}"
                  f"{spread(a):>7.3f}{spread(b):>7.3f}  {word}"
                  f" (n={len(a)},{len(b)}; {metric['unit']},"
                  f" {metric['better']} is better)")
    differing, exact = 0, exact_names(spec)
    for key in sorted(set(counted_a) & set(counted_b)):
        for name, value in counted_a[key].items():
            other = counted_b[key].get(name)
            if name in exact and other != value:
                differing += 1
                print(f"exact count differs: {key[0]} seed={key[1]}"
                      f" {name}: A={value!r} B={other!r}")
    print(f"{worse} row(s) worse; {differing} exact count(s) differ over"
          f" {len(set(counted_a) & set(counted_b))} traced run pair(s)")
    return 1 if worse or differing or failed_a or failed_b else 0
