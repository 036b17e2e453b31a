"""``--selftest``: the benchmark checks itself at the smallest grid.

Lives beside the benchmark and is run by hand (tier-1 collects only
``tests/``).  Every workload runs both passes once; each metric
``BENCHMARK.json`` names must be printed exactly once by the pass that
declares it; and the output checks, the set-up golden check among them,
must fire when the expected digest is deliberately wrong.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def check(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)
        print(f"selftest: {message}", file=sys.stderr)


def run_pass(spec: dict, workload: str, trace: int, problems: list) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "0", "--trace", str(trace),
               "--tiny"]
    done = subprocess.run(
        command, env=dict(os.environ, PYTHONHASHSEED="0"), text=True,
        capture_output=True, timeout=180)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where}: exit {done.returncode}\n"
          f"{done.stderr}", problems)
    lines = done.stdout.splitlines()
    if not lines:
        return
    declared = [m["name"] for m in
                spec["per_layer" if trace else "end_to_end"]]
    printed = [line.split()[0] for line in lines[:-1] if line.split()]
    for name in declared:
        check(printed.count(name) == 1,
              f"{where}: {name} printed {printed.count(name)} times", problems)
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{where}: result keys {sorted(result)}", problems)
    check(sorted(result["metrics"]) == sorted(declared),
          f"{where}: result metrics are not the declared ones", problems)
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{where}: {lines[-1][:80]}", problems)
    if not trace:
        zero = [n for n, m in result["metrics"].items() if not m["value"]]
        check(not zero, f"{where}: end-to-end metrics read 0: {zero}",
              problems)


def checks_fire(problems: list) -> None:
    """A wrong expected digest must fail the operation that meets it."""
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import workloads as wl

    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # The tiny passes skip the golden check; here one cell of it
        # passes against the stored snapshot and aborts against a wrong one.
        wl.check_golden(labels=["pc/eager"])
        (work / "golden.json").write_text(json.dumps({"pc/eager": "{}"}))
        try:
            wl.check_golden(work / "golden.json", ["pc/eager"])
        except wl.GoldenMismatch:
            pass
        else:
            check(False, "a wrong golden snapshot did not abort", problems)
        bench = wl.Bench("hot_line", 1, wl.TINY, work)
        bench.set_up()
        for cell in bench.cells:
            bench.expected[cell.label] = "not this"
        wl.direct_round(bench)
        check(bench.ops.failed == len(bench.cells),
              "a wrong digest did not fail the direct operations", problems)
        bench = wl.Bench("campaign_runner", 1, wl.TINY, work)
        bench.set_up()
        bench.expected[bench.grid_specs[0].content_hash()] = "not this"
        wl.runner_cold(bench, pooled=False)
        check(bench.ops.failed == 1,
              "a wrong digest did not fail the Runner batch", problems)
        bench = wl.Bench("campaign_service", 1, wl.TINY, work)
        bench.set_up()
        bench.expected[bench.grid_specs[0].content_hash()] = "not this"
        wl.service_round(bench)
        check(bench.ops.failed == 1,
              "a wrong digest did not fail the service's result rows",
              problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(spec: dict) -> int:
    problems: list[str] = []
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    for name in names:
        check(NAME.match(name) is not None, f"bad name {name!r}", problems)
    check(len(set(names)) == len(names), "a name is used twice", problems)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run_pass(spec, workload, trace, problems)
    print("selftest: the checks below are meant to print FAILED lines",
          file=sys.stderr)
    checks_fire(problems)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0
