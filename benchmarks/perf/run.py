"""The repo's benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py                      # every workload, both passes
    python3 benchmarks/perf/run.py --workload hot_line  # one workload, untraced
    python3 benchmarks/perf/run.py --workload hot_line --trace 1
    python3 benchmarks/perf/run.py --repeat 10 --trace 0 --out A.json
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --selftest

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See README.md beside this file for what is measured and
why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process"
                             " (default: each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds every generated input (default 0)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="scales the fixed round count in proportion to"
                             " run_seconds of BENCHMARK.json (the default,"
                             " which is what every recorded run uses)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="1: the traced pass (per-layer metrics);"
                             " 0: the untraced pass (end-to-end metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of runs, set i at seed+i (all workloads)")
    parser.add_argument("--out", type=Path, help="write the results here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two result files, A as the base")
    parser.add_argument("--selftest", action="store_true",
                        help="one round of every workload at the smallest"
                             " grid, checking the benchmark itself")
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)  # selftest's grid
    return parser.parse_args(argv)


def environment() -> dict:
    """Enough to recognise a noisy or mismatched set of runs."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # an exported tree, not a git checkout
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def print_table(title: str, rows) -> None:
    print(f"\n== {title}")
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, note in rows:
        print(f"{name:<{width}}  {value:>14.6g} {unit:<12} {note}")


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so set iteration order cannot differ
        # between two runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro: no program to measure", file=sys.stderr)
        return 2
    from reference import Stopwatch
    watch = Stopwatch()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    import_s = watch.lap()

    name, trace = args.workload, bool(args.trace)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    load_start = os.getloadavg()[0]
    try:
        # At reference speed, like every other time, piece by piece.
        passes = []
        for _ in range(wl.SETUP_PASSES):
            bench = wl.Bench(name, args.seed, wl.TINY if args.tiny else wl.FULL,
                             work)
            bench.set_up()
            passes.append(watch.lap())
        golden_s = 0.0
        if not args.tiny:
            for label in wl.golden_labels():
                wl.check_golden(labels=[label])
                golden_s += watch.lap()
        setup_s = import_s + statistics.median(passes) + golden_s
        if trace:
            wl.measure_layers(bench)
            values = {name: (value, "")
                      for name, value in wl.per_layer(bench).items()}
            # The selftest's grid must not overwrite a real trace.
            bench.trace.write(
                (work if args.tiny else WORK) / f"trace-{name}.json", name)
            rounds = 1
        else:
            # A pure function of the arguments: nothing measured moves it.
            rounds = max(1, round(bench.scale.rounds[name] * args.seconds
                                  / SPEC["run_seconds"]))
            wl.measure(bench, rounds)
            values = wl.end_to_end(bench, setup_s)
        rows = [(m["name"], values[m["name"]][0], m["unit"],
                 values[m["name"]][1])
                for m in SPEC["per_layer" if trace else "end_to_end"]]
    except wl.GoldenMismatch as exc:
        print(f"golden snapshot mismatch, nothing measured: {exc}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = bench.ops
    print_table(
        f"{name}  seed={args.seed}  "
        + ("traced pass: simulated time and host time per layer; caches"
           " start warm-prefilled, as MulticoreSimulator builds them"
           if trace else f"untraced pass: {rounds} round(s)"), rows)
    print(f"fail_share  {ops.failed}/{ops.attempted} operations failed")
    paces = watch.paces + bench.paces
    machine = 1 / statistics.median(paces)
    print(f"machine  {machine:.3f} x the reference kernel's time (median of"
          f" {len(paces)} calibrations); end-to-end times are at reference"
          " speed, per-layer times as measured")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }
    if args.out:
        record = dict(
            result, workload=name, seed=args.seed, trace=int(trace),
            rounds=rounds, machine=machine, load_start=load_start,
            load_end=os.getloadavg()[0],
            notes={name: note for name, *_, note in rows if note})
        args.out.write_text(json.dumps(
            {"meta": environment(), "runs": [record]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, one fresh process each
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    WORK.mkdir(exist_ok=True)
    passes = (0, 1) if args.trace is None else (args.trace,)
    scratch = WORK / f"result-{os.getpid()}.json"
    runs, status = [], 0
    try:
        for repeat in range(args.repeat):
            for workload in WORKLOADS:
                for trace in passes:
                    command = [
                        sys.executable, str(HERE / "run.py"),
                        "--workload", workload,
                        "--seed", str(args.seed + repeat),
                        "--seconds", str(args.seconds),
                        "--trace", str(trace), "--out", str(scratch),
                    ]
                    env = dict(os.environ, PYTHONHASHSEED="0")
                    code = subprocess.run(command, env=env).returncode
                    status = status or code
                    if scratch.exists():
                        runs += json.loads(scratch.read_text())["runs"]
                        scratch.unlink()
    finally:
        scratch.unlink(missing_ok=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"meta": environment(), "runs": runs}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(SPEC, *args.compare)
    if args.selftest:
        from selftest import selftest
        return selftest(SPEC)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
