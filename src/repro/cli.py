"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate one workload under one or more execution policies
figure     regenerate tables of the evaluation (any id of ``repro list``, or all)
campaign   run or validate a declarative campaign spec (campaigns/*.yaml)
serve      the sharded campaign service over HTTP (resumes on restart)
client     submit/status/fetch against a running ``repro serve``
list       list workloads, tables and litmus programs
validate   regenerate tables and check the paper's qualitative claims
profile    cProfile one simulation run (top-N by cumulative time)
lint       static protocol/convention/architecture/effect lint
effects    dump the interprocedural effect summary (and effect findings)
check      lint + golden + perf + campaign + litmus gates + tier-1 tests

``run`` and ``figure`` accept ``--consistency {tso,relaxed}`` to select
the memory consistency model (:mod:`repro.core.consistency`).  Every
campaign goes through ``campaign run``: the Fig. 2 microbenchmark is
``figure fig2`` (or a ``kind: microbench`` spec), a knob sweep is a grid
spec such as ``examples/sweep.yaml``, and ``campaign run
campaigns/litmus.yaml`` cross-validates the simulator against the
per-model interleaving oracle (:mod:`repro.analysis.litmuscheck`),
exiting 1 on a violation or a missing relaxed-only demonstration.

``figure``, ``campaign run`` and ``validate`` accept ``--jobs/-j N`` to
fan the (workload × config × seed) job grid across worker processes, and
``--cache-dir``/``--no-cache`` to control the persistent on-disk result
cache (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).  They are
one code path — :func:`repro.analysis.figures.render` over a campaign —
so a warm cache re-renders a table without running a single simulation,
and warming a campaign (locally or through the service) warms its table.
``campaign run --remote URL`` submits to ``repro serve``, waits, and
exits 0 only when the campaign ended done.

Exit codes
----------
The static-analysis commands (``lint``, ``effects``, ``check`` incl.
``--lint-only``) share one contract: **0** clean, **1** findings (or a
failed gate), **2** usage error (unknown rule/effect name, bad flags, or
a malformed campaign spec).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.analysis import figures
from repro.analysis.figures import TABLES
from repro.analysis.parallel import Runner, default_cache_dir
from repro.analysis.report import render_table
from repro.analysis.runner import default_scale
from repro.common.params import PRESETS, AtomicMode, SystemParams
from repro.isa.instructions import AtomicOp
from repro.isa.serialize import load_program, save_program
from repro.sim.multicore import MulticoreSimulator, simulate
from repro.workloads.inspect import analyze_program
from repro.workloads.microbench import VARIANTS, build_microbench
from repro.workloads.profiles import WORKLOADS
from repro.workloads.synthetic import build_program


class UsageError(Exception):
    """A bad invocation that should exit with status 2, not a traceback."""


def _add_rule_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only these rule families (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="drop these rule families (repeatable, comma-separable)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--instructions", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--config",
        choices=tuple(PRESETS),
        default="small",
        help="system configuration preset",
    )


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default=None,
        metavar="{smoke,quick,full,paper}",
        help="experiment scale (default quick)",
    )


def _add_consistency(parser: argparse.ArgumentParser) -> None:
    from repro.common.params import ConsistencyKind

    parser.add_argument(
        "--consistency",
        choices=[k.value for k in ConsistencyKind],
        default=ConsistencyKind.TSO.value,
        help="memory consistency model (default tso)",
    )


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation job grid (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory"
        " (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk result cache",
    )


def _resolve_scale(args):
    try:
        return default_scale(args.scale)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _runner(args) -> Runner:
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    return Runner(
        jobs=args.jobs, cache_dir=cache_dir, progress=sys.stderr.isatty()
    )


def _params(args) -> SystemParams:
    return PRESETS[args.config]()


def _workload_run(args, workload: str):
    """``--config``'s params and ``workload``'s program on
    ``min(--threads, cores)`` threads of ``--instructions`` each."""
    params = _params(args)
    program = build_program(
        workload, min(args.threads, params.num_cores), args.instructions,
        seed=args.seed,
    )
    return params, program


def cmd_run(args) -> int:
    params, program = _workload_run(args, args.workload)
    params = params.with_consistency_model(args.consistency)
    modes = [AtomicMode.from_name(m) for m in args.modes]
    rows = []
    baseline = None
    for mode in modes:
        result = simulate(
            params.with_atomic_mode(mode), program, sanitize=args.sanitize
        )
        if baseline is None:
            baseline = result.cycles
        b = result.breakdown.means()
        rows.append(
            [
                mode.value,
                result.cycles,
                round(result.cycles / baseline, 3),
                round(result.ipc, 2),
                result.atomics_committed(),
                f"{100 * result.contended_fraction():.1f}%",
                round(b["lock_to_unlock"], 1),
            ]
        )
    print(
        render_table(
            f"workload {args.workload!r} "
            f"({program.total_instructions()} instructions)",
            ["mode", "cycles", "norm", "ipc", "atomics", "contended", "lock_win"],
            rows,
        )
    )
    return 0


def cmd_lint(args) -> int:
    """Exit 0 clean / 1 findings / 2 usage error (unknown rule name)."""
    from repro.sanitize import run_lint

    try:
        findings = run_lint(
            args.root,
            select=getattr(args, "select", None),
            ignore=getattr(args, "ignore", None),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        import json

        print(json.dumps(
            [
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message, "effect": f.effect}
                for f in findings
            ],
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} finding(s)" if findings else "lint clean")
    return 1 if findings else 0


def cmd_effects(args) -> int:
    """Dump the inferred effect summary; exit 0 clean / 1 if the effect
    rule families report findings / 2 on a bad ``--only`` value."""
    from repro.sanitize import effect_lint, effects

    labels = tuple(e.label for e in effects.Effect)
    if args.only is not None and args.only not in labels:
        raise UsageError(
            f"unknown effect {args.only!r} for --only; "
            f"choose from: {', '.join(labels)}"
        )
    analysis = effects.analyze(args.root)
    findings = effect_lint.run(analysis.base, analysis)
    rows = analysis.summary_rows()
    if args.only:
        rows = [r for r in rows if r["effect"] == args.only]
    if args.json:
        import json

        print(json.dumps(
            {
                "functions": rows,
                "findings": [
                    {"path": f.path, "line": f.line, "rule": f.rule,
                     "message": f.message}
                    for f in findings
                ],
            },
            indent=2,
        ))
        return 1 if findings else 0
    counts: dict[str, int] = {}
    for row in rows:
        counts[str(row["effect"])] = counts.get(str(row["effect"]), 0) + 1
    print(render_table(
        f"inferred effects ({len(rows)} functions; "
        + ", ".join(f"{counts.get(l, 0)} {l}" for l in labels) + ")",
        ["function", "where", "effect", "direct", "reason"],
        [
            [row["function"], f"{row['path']}:{row['line']}",
             row["effect"], row["direct_effect"], row["reason"]]
            for row in rows
        ],
    ))
    for finding in findings:
        print(finding)
    print(
        f"{len(findings)} finding(s)" if findings else "effect analysis clean"
    )
    return 1 if findings else 0


def _check_golden() -> int:
    """Golden-stats gate: re-simulate the reference grid and the wide
    digest grid and demand that every RunMetrics JSON matches the stored
    snapshots bit for bit — and that each grid generated no more programs
    than it has workloads, a count (never a time) that fails when cells
    stop sharing the programs ``build_program`` memoizes."""
    from repro.analysis.golden import (
        GOLDEN_WORKLOADS,
        golden_grid,
        verify_golden,
        verify_wide,
        wide_grid,
    )
    from repro.workloads.profiles import WORKLOADS
    from repro.workloads.synthetic import program_memo_stats

    try:
        start = program_memo_stats().generated
        mismatches = verify_golden()
        golden_programs = program_memo_stats().generated - start
        mismatches += verify_wide()
        wide_programs = program_memo_stats().generated - start - golden_programs
    except FileNotFoundError as exc:
        print(
            f"golden snapshot missing ({exc.filename});"
            " baseline it with: python -m repro.analysis.golden"
        )
        return 1
    if mismatches:
        for mismatch in mismatches:
            print(mismatch)
        print(
            f"{len(mismatches)} golden cell(s) drifted — if the behaviour"
            " change is intentional, re-baseline with:"
            " python -m repro.analysis.golden"
        )
        return 1
    print(
        f"golden stats bit-identical ({len(golden_grid())} cells,"
        f" {len(wide_grid())} wide digests)"
    )
    print(
        f"programs generated: {golden_programs} for the golden cells"
        f" (at most {len(GOLDEN_WORKLOADS)}), {wide_programs} for the wide"
        f" digests (at most {len(WORKLOADS)})"
    )
    if golden_programs > len(GOLDEN_WORKLOADS) or wide_programs > len(WORKLOADS):
        print(
            "golden gate failed: cells that share a program regenerated it;"
            " build_program's memo is being bypassed"
        )
        return 1
    return 0


class _LazyQueryCounter:
    """Counting proxy over a ``ConsistencyModel``: tallies
    ``atomic_lazy_ready`` queries and forwards everything else."""

    def __init__(self, model) -> None:
        self._model = model
        self.queries = 0

    def atomic_lazy_ready(self, dyn, lq, sb) -> bool:
        self.queries += 1
        return self._model.atomic_lazy_ready(dyn, lq, sb)

    def __getattr__(self, name):
        return getattr(self._model, name)


def run_counting_lazy_queries(params: SystemParams, program):
    """``simulate(params, program)`` with every core's consistency model
    behind one :class:`_LazyQueryCounter`; returns ``(result, queries)``."""
    sim = MulticoreSimulator(params, program)
    counter = _LazyQueryCounter(sim.cores[0].consistency)
    for core in sim.cores:
        core.consistency = counter
    return sim.run(), counter.queries


def _check_perf_smoke() -> int:
    """Perf smoke gate: the quiescence-aware spine must skip most
    core-steps on a canned idle-heavy workload, and releasing parked lazy
    atomics must cost at most one readiness query per core pump.

    Counter-based on purpose — the gate reads the scheduler's own
    step/skip counters (``RunResult.spine``) and a counted proxy, never
    wall-clock, so CI load cannot flake it.  The floor is far below the
    typical measured ratio (~0.85+) to leave headroom for
    workload-generator drift.
    """
    from repro.workloads.litmus import atomic_counter

    floor = 0.60
    params = SystemParams.quick().with_atomic_mode(AtomicMode.LAZY)
    program = atomic_counter(params.num_cores, 40)
    result, lazy_queries = run_counting_lazy_queries(params, program)
    spine = result.spine
    frac = spine["skipped_fraction"]
    print(
        f"quiescence spine skipped {spine['skipped_steps']:,}/"
        f"{spine['possible_steps']:,} core-steps "
        f"({100 * frac:.1f}%; floor {100 * floor:.0f}%)"
    )
    if frac < floor:
        print(
            "perf smoke gate failed: the quiescence scheduler skipped too"
            " few core-steps on an idle-heavy workload"
        )
        return 1
    # The pure event pump idle-jumps whenever nothing is runnable, so a
    # pass that runs no event, fires no wake and pumps no core means the
    # pump regressed to polling dead cycles.  Structural invariant: zero.
    empty = spine["empty_iterations"]
    print(f"event pump ran {empty} empty passes (required: 0)")
    if empty != 0:
        print(
            "perf smoke gate failed: the event pump burned passes on"
            " cycles with nothing due"
        )
        return 1
    # The lazy pump asks the consistency model about the load-queue head
    # only; a walk over the whole parking lot reads ~6 per pump here.
    pumps = spine["step_calls"]
    print(
        f"lazy readiness: {lazy_queries:,} queries over {pumps:,} core pumps"
        " (required: at most 1 per pump)"
    )
    if lazy_queries > pumps:
        print(
            "perf smoke gate failed: the lazy pump asked atomic_lazy_ready"
            " about more than the load-queue head"
        )
        return 1
    return 0


# Whole-repo static analysis (all four lint families, including the
# interprocedural effect fixpoint) must stay interactive-fast, or the CI
# gate rots and people stop running it.
LINT_BUDGET_SECONDS = 10.0

# Validating every committed campaign spec plus one end-to-end smoke
# campaign through the in-process service must stay cheap; the e2e leg
# runs a single smoke-scale cell.
CAMPAIGN_BUDGET_SECONDS = 30.0


def _check_campaigns() -> int:
    """Validate committed campaign specs and e2e-run the smoke campaign."""
    from repro.service import planner, schema
    from repro.service.fabric import ShardPool
    from repro.service.http import ServiceThread

    spec_dir = schema.default_campaign_dir()
    paths = sorted(spec_dir.glob("*.yaml"))
    if not paths:
        print(f"campaign gate failed: no specs found under {spec_dir}")
        return 1
    jobs = 0
    outputs: dict[str, str] = {}  # spec stem -> the output id it names
    for path in paths:
        try:
            campaign = schema.load_campaign(path)
            if campaign.output.kind != "none":
                outputs[path.stem] = campaign.output.id
            jobs += len(planner.expand_campaign(campaign))
        except schema.CampaignError as exc:
            print(f"campaign gate failed: {path.name}: {exc}")
            return 1
    print(f"validated {len(paths)} campaign specs ({jobs} unique jobs)")
    print(
        f"tables: {len(TABLES)} registered, {len(outputs)} campaigns"
        f" ({len(TABLES) - len(outputs)} table simulates nothing)"
    )
    orphans = [
        f"{stem}.yaml (output id {out!r})"
        for stem, out in outputs.items() if out != stem or out not in TABLES
    ]
    for table_id in TABLES:  # Table I's campaign is in memory: no grid
        try:
            named = figures.load_table_campaign(table_id).output.id
        except schema.CampaignError:
            named = None
        if named != table_id:
            orphans.append(f"table {table_id} (its campaign names {named!r})")
    if orphans:
        print(
            "campaign gate failed: a table's id, its campaigns/<id>.yaml and"
            f" that spec's output id must agree: {', '.join(orphans)}"
        )
        return 1

    pool = ShardPool(Runner())
    pool.start()
    thread = ServiceThread(pool).start()
    try:
        rc = _run_remote(thread.url, spec_dir / "smoke.yaml", timeout=60)
    finally:
        thread.stop()
        pool.stop()
    if rc:
        print("campaign gate failed: the smoke campaign did not run to done")
    return rc


def _check_litmus() -> int:
    """Cross-validate the simulator against the litmus oracle: the
    committed ``campaigns/litmus.yaml`` (every shape under every model,
    relaxed-only demonstrations required) through a memory-only Runner."""
    from repro.analysis.litmuscheck import sweep
    from repro.service.schema import load_named_campaign

    rc = sweep(load_named_campaign("litmus"))
    if rc:
        print(
            "litmus gate failed: the timing model reached an outcome the"
            " consistency model forbids (or lost a relaxed-only one)"
        )
    return rc


def cmd_check(args) -> int:
    """The CI gate: lint, golden bit-identity, perf smoke, campaign
    specs plus an e2e smoke campaign, litmus oracle, tier-1 tests.

    Exit codes follow the lint contract: 0 all gates pass, 1 any gate
    fails (including the lint wall-clock budget), 2 usage error.
    """
    import subprocess
    import time

    print("== repro lint ==")
    lint_start = time.monotonic()
    lint_rc = cmd_lint(args)
    lint_elapsed = time.monotonic() - lint_start
    print(
        f"lint wall-clock {lint_elapsed:.2f}s "
        f"(budget {LINT_BUDGET_SECONDS:.0f}s)"
    )
    if lint_elapsed > LINT_BUDGET_SECONDS:
        print(
            "lint budget exceeded: the static analyzer itself regressed;"
            " profile repro.sanitize before shipping"
        )
        lint_rc = lint_rc or 1
    if args.lint_only:
        return lint_rc
    print("== golden stats ==")
    golden_rc = _check_golden()
    print("== perf smoke ==")
    perf_rc = _check_perf_smoke()
    print("== campaigns ==")
    campaign_start = time.monotonic()
    campaign_rc = _check_campaigns()
    campaign_elapsed = time.monotonic() - campaign_start
    print(
        f"campaign wall-clock {campaign_elapsed:.2f}s "
        f"(budget {CAMPAIGN_BUDGET_SECONDS:.0f}s)"
    )
    if campaign_elapsed > CAMPAIGN_BUDGET_SECONDS:
        print(
            "campaign budget exceeded: spec validation plus the smoke e2e"
            " campaign should stay interactive-fast"
        )
        campaign_rc = campaign_rc or 1
    print("== litmus ==")
    litmus_rc = _check_litmus()
    print("== tier-1 tests ==")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q"] + (
        args.pytest_args or ["tests"]
    )
    test_rc = subprocess.call(cmd)
    return (
        lint_rc or golden_rc or perf_rc or campaign_rc or litmus_rc or test_rc
    )


def _repinned(campaign, consistency: str):
    """``campaign`` with every config pinned to one consistency model."""
    import dataclasses

    for index, grid in enumerate(campaign.grids):
        campaign = campaign.with_configs(
            [dataclasses.replace(c, consistency=consistency) for c in grid.configs],
            grid=index,
        )
    return campaign


def _render(campaign, scale, runner):
    from repro.service.schema import CampaignError

    try:
        return figures.render(campaign, scale, runner)
    except CampaignError as exc:
        raise UsageError(str(exc)) from exc


def cmd_figure(args) -> int:
    from repro.analysis.export import export_figures

    ids = list(TABLES) if "all" in args.figure else args.figure
    scale = _resolve_scale(args)
    out_dir = None
    if args.output:
        # Before simulating, so a bad path fails in milliseconds.
        out_dir = pathlib.Path(args.output)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create --output {out_dir}: {exc}") from exc
    runner = _runner(args)
    for table_id in ids:
        campaign = figures.load_table_campaign(table_id)
        if args.consistency != "tso":
            campaign = _repinned(campaign, args.consistency)
        fig = _render(campaign, scale, runner)
        text = fig.render()
        print(text)
        if out_dir is not None:
            (out_dir / f"{table_id}.txt").write_text(text)
            export_figures([fig], out_dir / f"{table_id}.json", scale)
    print(f"repro: {runner.summary()}", file=sys.stderr)
    return 0


DEFAULT_SERVE_URL = "http://127.0.0.1:8765"


def _service_url(args) -> str:
    return (
        args.url
        or os.environ.get("REPRO_SERVE_URL")
        or DEFAULT_SERVE_URL
    )


def cmd_serve(args) -> int:
    """Run the sharded campaign service (Ctrl-C to stop).

    Campaign state persists under ``--state-dir`` (default
    ``<cache-dir>/service``); on restart, campaigns that never reached
    done/failed are requeued and their completed cells come back as disk
    cache hits, so only the missing cells simulate.
    """
    from repro.service.fabric import ShardPool
    from repro.service.http import run_service

    runner = _runner(args)
    state_dir = args.state_dir
    if state_dir is None and runner.cache_dir is not None:
        state_dir = runner.cache_dir / "service"
    pool = ShardPool(runner, state_dir=state_dir)
    pool.start()
    for resumed in pool.resume_pending():
        print(
            f"repro serve: resumed campaign {resumed.campaign.name}"
            f" ({resumed.id[:12]})"
        )
    run_service(pool, host=args.host, port=args.port)
    return 0


def _run_remote(
    url: str, spec: str | os.PathLike, scale: str | None = None,
    timeout: float = 600.0,
) -> int:
    """The one submit-and-wait path (``campaign run --remote`` and the
    check gate): submit the spec file to the service at ``url``, wait,
    and return 0 only when the campaign ended done with result rows."""
    from repro.service.client import ServiceClient, ServiceError

    try:
        text = pathlib.Path(spec).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read campaign spec {spec}: {exc}") from exc
    client = ServiceClient(url)
    try:
        status = client.submit(text, scale=scale)
        print(
            f"submitted campaign {status['name']} ({status['id'][:12]},"
            f" {status['total']} cells) to {url}"
        )
        status = client.wait(status["id"], timeout=timeout)
        if status["state"] != "done":
            print(
                f"campaign {status['name']} {status['state']}:"
                f" {status.get('error', 'no error recorded')}",
                file=sys.stderr,
            )
            return 1
        rows = client.results(status["id"])
    except ServiceError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 1
    print(
        f"campaign {status['name']} done: {len(rows)} result rows"
        f" ({status['simulated']} simulated, {status['cache_hits']} cache"
        " hits)"
    )
    return 0 if rows else 1


def cmd_campaign(args) -> int:
    from repro.service import planner, schema

    if args.action == "validate":
        rows = []
        for path in args.specs:
            try:
                campaign = schema.load_campaign(path)
                jobs = len(planner.expand_campaign(campaign))
            except schema.CampaignError as exc:
                raise UsageError(str(exc)) from exc
            rows.append([path, campaign.name, campaign.kind, jobs])
        print(
            render_table(
                "campaign specs",
                ["spec", "name", "kind", "unique jobs"],
                rows,
            )
        )
        return 0
    # action == "run"
    if args.remote:
        return _run_remote(args.remote, args.spec, args.scale, args.timeout)
    try:
        campaign = schema.load_campaign(args.spec)
    except schema.CampaignError as exc:
        raise UsageError(str(exc)) from exc
    try:
        # An explicit --scale wins; else the spec's own scale; else quick.
        scale = planner.campaign_scale(campaign, args.scale)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    runner = _runner(args)
    try:
        specs = planner.expand_campaign(campaign, scale)
    except schema.CampaignError as exc:
        raise UsageError(str(exc)) from exc
    read = planner.scale_read(campaign, scale)
    print(
        f"campaign {campaign.name}: {len(specs)} unique cells"
        + (f" at scale {read.name}" if read is not None else "")
    )
    rc = 0
    if campaign.kind == "litmus":  # its output is the oracle's verdict
        from repro.analysis.litmuscheck import sweep

        rc = sweep(campaign, runner)
    elif campaign.output.kind == "none":
        runner.run_many(specs)
    else:
        # The table's reader runs the cells itself, after checking that
        # the spec defines what it reads.
        print(_render(campaign, scale, runner).render())
    print(f"repro: {runner.summary()}", file=sys.stderr)
    return rc


def cmd_client(args) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(_service_url(args))
    try:
        if args.action == "submit":
            try:
                text = pathlib.Path(args.spec).read_text()
            except OSError as exc:
                raise UsageError(
                    f"cannot read campaign spec {args.spec}: {exc}"
                ) from exc
            status = client.submit(text, scale=args.scale)
            print(json.dumps(status, indent=2, sort_keys=True))
        elif args.action == "status":
            if args.id:
                print(json.dumps(client.status(args.id), indent=2, sort_keys=True))
            else:
                for status in client.list_campaigns():
                    print(json.dumps(status, sort_keys=True))
        else:  # fetch
            for row in client.results(args.id):
                print(json.dumps(row, sort_keys=True))
    except ServiceError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_list(_args) -> int:
    rows = [
        [name, p.atomics_per_10k, "yes" if p.atomic_intensive else "no", p.description[:58]]
        for name, p in WORKLOADS.items()
    ]
    print(
        render_table(
            "workloads", ["name", "atomics/10k", "intensive", "description"], rows
        )
    )
    from repro.workloads.litmus_oracle import LITMUS_TESTS

    print("tables:", ", ".join(TABLES))
    print("litmus:", ", ".join(sorted(LITMUS_TESTS)))
    print(
        "hint: figure/campaign run/validate accept -j/--jobs N"
        " (parallel workers), --cache-dir DIR and --no-cache (persistent"
        " result cache)"
    )
    return 0


_TRACE_ACTIONS = ("generate", "inspect", "run")


def cmd_trace(args) -> int:
    """Dispatch on the first positional: a trace-file action keeps the
    historical program-trace behaviour; a workload name (or ``fig2``)
    records a cycle-level event trace (see :mod:`repro.obs`)."""
    if args.target in _TRACE_ACTIONS:
        return _cmd_trace_program(args)
    return _cmd_trace_events(args)


def _cmd_trace_program(args) -> int:
    if args.path is None:
        raise UsageError(f"trace {args.target} requires a trace-file path")
    if args.target == "generate":
        program = build_program(
            args.workload, args.threads, args.instructions, seed=args.seed
        )
        path = save_program(program, args.path)
        print(f"wrote {program.total_instructions()} instructions to {path}")
        return 0
    program = load_program(args.path)
    if args.target == "inspect":
        stats = analyze_program(program)
        rows = [
            [
                tid,
                s.instructions,
                round(s.atomics_per_10k, 1),
                round(s.hot_atomic_fraction, 2),
                s.locality_pairs,
                s.distinct_lines,
            ]
            for tid, s in stats.items()
        ]
        print(
            render_table(
                f"trace {program.name!r}",
                ["thread", "instrs", "atomics/10k", "hot_frac", "locality", "lines"],
                rows,
            )
        )
        return 0
    # target == "run"
    params = _params(args).with_atomic_mode(AtomicMode.from_name(args.mode))
    result = simulate(params, program)
    print(
        f"{program.name}: {result.cycles:,} cycles, ipc={result.ipc:.2f}, "
        f"atomics={result.atomics_committed()}"
    )
    return 0


def _cmd_trace_events(args) -> int:
    from repro.obs import CATEGORIES, EventTrace, TraceConfig, write_chrome_trace

    if args.target == "fig2":
        params = _params(args)
        program = build_microbench(
            AtomicOp(args.op), args.variant, iterations=args.instructions
        )
    elif args.target in WORKLOADS:
        params, program = _workload_run(args, args.target)
    else:
        raise UsageError(
            f"unknown trace target {args.target!r}; expected an action"
            f" ({', '.join(_TRACE_ACTIONS)}), a workload"
            f" ({', '.join(sorted(WORKLOADS))}) or 'fig2'"
        )
    events = frozenset(CATEGORIES)
    if args.events:
        requested = frozenset(
            e.strip() for e in args.events.split(",") if e.strip()
        )
        unknown = requested - set(CATEGORIES)
        if unknown:
            raise UsageError(
                f"unknown event categor(y/ies) {', '.join(sorted(unknown))};"
                f" valid: {', '.join(CATEGORIES)}"
            )
        events = requested
    try:
        config = TraceConfig(
            events=events, capacity=args.capacity, sample_every=args.sample
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    tracer = EventTrace(config)
    params = params.with_atomic_mode(AtomicMode.from_name(args.mode))
    result = simulate(params, program, trace=tracer)
    out = write_chrome_trace(tracer, args.out)
    print(
        f"{program.name}: {result.cycles:,} cycles, ipc={result.ipc:.2f}, "
        f"atomics={result.atomics_committed()}"
    )
    print(f"trace: {tracer.summary()}")
    print(f"wrote {out} (open at https://ui.perfetto.dev or chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    """cProfile one simulation run so perf work is profile-guided.

    Prints the top-N functions by cumulative time and (with ``--out``)
    dumps the raw pstats data for offline digging
    (``python -m pstats profile.pstats``).
    """
    import cProfile
    import pstats

    params, program = _workload_run(args, args.workload)
    params = params.with_atomic_mode(AtomicMode.from_name(args.mode))
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(params, program)
    profiler.disable()
    spine = result.spine
    print(
        f"{program.name}: {result.cycles:,} cycles, ipc={result.ipc:.2f}, "
        f"skipped {100 * spine['skipped_fraction']:.1f}% of core-steps "
        f"({spine['skipped_steps']:,}/{spine['possible_steps']:,})"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out} (inspect with: python -m pstats {args.out})")
    return 0


def cmd_validate(args) -> int:
    from repro.analysis.validate import run_validation

    scale = _resolve_scale(args)
    runner = _runner(args)
    results = run_validation(args.figures or None, scale, runner=runner)
    for result in results:
        print(result)
    failures = sum(not result.passed for result in results)
    print(f"\n{len(results)} checks, {failures} failing")
    print(f"repro: {runner.summary()}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'No Rush in Executing Atomic Instructions'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload", choices=sorted(WORKLOADS))
    p_run.add_argument(
        "--modes",
        nargs="+",
        default=["eager", "lazy", "row"],
        choices=[m.value for m in AtomicMode],
    )
    p_run.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime protocol invariant checkers",
    )
    _add_common(p_run)
    _add_consistency(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_lint = sub.add_parser(
        "lint", help="static protocol/convention lint (exit 1 on findings)"
    )
    p_lint.add_argument(
        "--root", help="lint a tree other than the installed repro package"
    )
    p_lint.add_argument("--json", action="store_true", help="machine output")
    _add_rule_filters(p_lint)
    p_lint.set_defaults(fn=cmd_lint)

    p_eff = sub.add_parser(
        "effects",
        help="interprocedural effect summary (exit 1 on effect findings)",
    )
    p_eff.add_argument(
        "--root", help="analyze a tree other than the installed repro package"
    )
    p_eff.add_argument("--json", action="store_true", help="machine output")
    p_eff.add_argument(
        "--only",
        help="show only functions with this effect "
        "(pure/reads_sim/mutates_sim/nondet)",
    )
    p_eff.set_defaults(fn=cmd_effects)

    p_check = sub.add_parser(
        "check",
        help="CI gate: lint + golden stats + tier-1 tests"
        " (exit nonzero on failure)",
    )
    p_check.add_argument(
        "--root", help="lint a tree other than the installed repro package"
    )
    p_check.add_argument("--json", action="store_true", help="machine lint output")
    _add_rule_filters(p_check)
    p_check.add_argument(
        "--lint-only", action="store_true", help="skip the test-suite stage"
    )
    p_check.add_argument(
        "pytest_args",
        nargs="*",
        help="arguments forwarded to pytest (default: tests)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_fig = sub.add_parser(
        "figure", help="regenerate tables from their committed campaigns"
    )
    p_fig.add_argument(
        "figure", nargs="+", choices=[*TABLES, "all"], metavar="ID",
        help=f"table id(s), or all: {', '.join(TABLES)}",
    )
    _add_scale(p_fig)
    _add_consistency(p_fig)
    _add_runner_flags(p_fig)
    p_fig.add_argument(
        "--output", metavar="DIR",
        help="also write <id>.txt and <id>.json (with provenance) there",
    )
    p_fig.set_defaults(fn=cmd_figure)

    p_list = sub.add_parser("list", help="list workloads, tables and litmus")
    p_list.set_defaults(fn=cmd_list)

    p_val = sub.add_parser(
        "validate", help="check the paper's qualitative claims end to end"
    )
    _add_scale(p_val)
    _add_runner_flags(p_val)
    p_val.add_argument(
        "--figures", nargs="*", choices=list(TABLES), metavar="ID",
        help="subset of tables to check (default: every table)",
    )
    p_val.set_defaults(fn=cmd_validate)

    p_trace = sub.add_parser(
        "trace",
        help="record a cycle-level event trace of a workload"
        " (or generate / inspect / run program trace files)",
    )
    p_trace.add_argument(
        "target",
        help="a workload name or 'fig2' to record an event trace;"
        " or an action (generate/inspect/run) on a program trace file",
    )
    p_trace.add_argument(
        "path", nargs="?", default=None,
        help="program trace JSON file (generate/inspect/run only)",
    )
    p_trace.add_argument("--workload", choices=sorted(WORKLOADS), default="pc")
    p_trace.add_argument("--mode", default="eager",
                         choices=[m.value for m in AtomicMode])
    p_trace.add_argument(
        "--out", default="trace.json",
        help="output file for the Chrome/Perfetto event trace",
    )
    p_trace.add_argument(
        "--events", default=None,
        help="comma-separated categories to record"
        " (instr,atomic,coh,dir; default all)",
    )
    p_trace.add_argument(
        "--capacity", type=int, default=1 << 18,
        help="ring-buffer capacity; oldest events are dropped beyond it",
    )
    p_trace.add_argument(
        "--sample", type=int, default=1,
        help="record every Nth instr/coh event (default 1 = all)",
    )
    p_trace.add_argument(
        "--op", default="faa", choices=[op.value for op in AtomicOp],
        help="atomic op for the fig2 microbenchmark target",
    )
    p_trace.add_argument(
        "--variant", default="lock", choices=sorted(VARIANTS),
        help="microbenchmark variant for the fig2 target",
    )
    _add_common(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="cProfile one simulation run (top-N by cumulative time)",
    )
    p_prof.add_argument("workload", choices=sorted(WORKLOADS))
    p_prof.add_argument(
        "--mode", default="eager", choices=[m.value for m in AtomicMode]
    )
    p_prof.add_argument(
        "--top", type=int, default=25, help="profile rows to print"
    )
    p_prof.add_argument(
        "--out", default=None,
        help="also dump raw pstats data (e.g. profile.pstats)",
    )
    _add_common(p_prof)
    p_prof.set_defaults(fn=cmd_profile)

    p_serve = sub.add_parser(
        "serve", help="run the sharded campaign service over HTTP"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--state-dir",
        default=None,
        help="campaign state directory (default <cache-dir>/service)",
    )
    _add_runner_flags(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_camp = sub.add_parser(
        "campaign", help="run or validate declarative campaign specs"
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)
    p_camp_run = camp_sub.add_parser(
        "run", help="execute one campaign spec (locally or via --remote)"
    )
    p_camp_run.add_argument("spec", help="campaign spec file (.yaml/.json)")
    p_camp_run.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="submit to a running `repro serve` instead of running locally",
    )
    p_camp_run.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for a remote campaign (default 600)",
    )
    _add_scale(p_camp_run)
    _add_runner_flags(p_camp_run)
    p_camp_run.set_defaults(fn=cmd_campaign)
    p_camp_val = camp_sub.add_parser(
        "validate", help="parse and expand specs without simulating"
    )
    p_camp_val.add_argument("specs", nargs="+", help="campaign spec files")
    p_camp_val.set_defaults(fn=cmd_campaign)

    p_client = sub.add_parser(
        "client", help="talk to a running `repro serve` instance"
    )
    client_sub = p_client.add_subparsers(dest="action", required=True)
    p_cl_submit = client_sub.add_parser("submit", help="submit a campaign spec")
    p_cl_submit.add_argument("spec", help="campaign spec file (.yaml/.json)")
    p_cl_submit.add_argument("--scale", default=None)
    p_cl_submit.add_argument("--url", default=None, help="service base URL")
    p_cl_submit.set_defaults(fn=cmd_client)
    p_cl_status = client_sub.add_parser(
        "status", help="show one campaign (or list all)"
    )
    p_cl_status.add_argument("id", nargs="?", default=None)
    p_cl_status.add_argument("--url", default=None, help="service base URL")
    p_cl_status.set_defaults(fn=cmd_client)
    p_cl_fetch = client_sub.add_parser(
        "fetch", help="fetch result rows as NDJSON"
    )
    p_cl_fetch.add_argument("id")
    p_cl_fetch.add_argument("--url", default=None, help="service base URL")
    p_cl_fetch.set_defaults(fn=cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
