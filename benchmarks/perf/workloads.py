"""The five workloads: their inputs, timed operations and output checks.

Three *doors* lead into the repo and each workload pushes its cells
through them with a different weight:

``direct``   ``simulate()`` on a pre-built program (the library door);
``runner``   a grid of ``RunSpec`` cells through ``Runner`` — cold
             ``jobs=1``, disk-warm, memo, cold ``jobs=2``;
``service``  the same grid as campaign text through ``ServiceThread`` +
             ``ServiceClient`` on loopback.

The three sim workloads run their rounds in the direct door.  The
benchmark contract wants every end-to-end metric from every workload, so
once those rounds are over and peak memory has been read, they make a
few *door visits* — a fixed four-cell grid through ``Runner`` cold
``jobs=2``, disk-warm and memo — which is where their ``cells_per_s_j2``,
``warm_cell_ms`` and ``request_ms_*`` come from.  The two campaign
workloads loop in their own door.  Within one workload each metric has
exactly one source, so samples are kept by metric name.

The number of rounds is a committed constant per workload
(:attr:`Scale.rounds`); nothing measured changes it.

All load is closed loop from one client: the next operation starts when
the previous one has returned.  :meth:`Bench.calibrate` runs the
reference kernel between operations, outside their timed regions, and
:func:`end_to_end` reports each metric at reference speed (see
``reference.py``): scaled by the kernel's median over the stretch of the
run in which the metric's samples were taken, or, for the service's
millisecond operations, sample by sample (:meth:`Bench.add`).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.analysis.golden import golden_grid, verify_golden
from repro.analysis.parallel import Runner, RunSpec, execute_spec
from repro.analysis.runner import RunMetrics, config
from repro.common.params import DetectionMode, PredictorKind, SystemParams
from repro.service import (
    ServiceClient,
    ServiceError,
    ShardPool,
    campaign_id,
    expand_campaign,
    loads_campaign,
)
from repro.service.http import ServiceThread
from repro.sim.multicore import MulticoreSimulator, simulate
from repro.workloads.litmus import atomic_counter
from repro.workloads.synthetic import build_program

from reference import pace
from tracing import LAYERS, Trace

JOBS = min(2, os.cpu_count() or 1)
#: The client polls ``status`` this often.  At 2 ms the three threads of
#: the service hand the interpreter lock over so often that one
#: descheduled vCPU of the sandbox slowed a campaign by 45 % where the
#: single-threaded Runner lost 10 %.
POLL_SECONDS = 0.01
#: A warm campaign is over in 5 ms: polled every 10 ms it reads 5 or 15.
WARM_POLL_SECONDS = 0.001
WAIT_SECONDS = 120.0
SETUP_PASSES = 3

#: eager, lazy, and the paper's best RoW variant (RW+Dir U/D + forwarding).
CAMPAIGN_CONFIGS = (
    {"name": "eager", "mode": "eager"},
    {"name": "lazy", "mode": "lazy"},
    {"name": "row", "mode": "row", "detection": "rw+dir",
     "predictor": "u/d", "forwarding": True},
)


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the benchmark reports; ``TINY`` is
    the smallest grid, used only by ``--selftest``."""

    threads: int
    instructions: int
    mem_instructions: int
    increments: int
    grid_workloads: tuple[str, ...]
    grid_size: dict  # num_threads / instructions_per_thread overrides
    repeats: int  # status calls per service round
    warm_batches: int
    #: workload -> rounds of one run at ``run_seconds`` of BENCHMARK.json,
    #: sized on the seed commit to take about that long on this box
    rounds: dict
    visits: int  # door visits after a sim workload's rounds


FULL = Scale(
    threads=8, instructions=4000, mem_instructions=2000, increments=600,
    grid_workloads=("pc", "cq", "canneal", "blackscholes"),
    grid_size={}, repeats=200, warm_batches=10,
    rounds={"core_contended": 4, "mem_bound": 6, "hot_line": 11,
            "campaign_runner": 4, "campaign_service": 4},
    visits=5,
)
TINY = Scale(
    threads=2, instructions=200, mem_instructions=200, increments=20,
    grid_workloads=("pc",),
    grid_size={"num_threads": 2, "instructions_per_thread": 200},
    repeats=12, warm_batches=2,
    rounds=dict.fromkeys(FULL.rounds, 1), visits=1,
)


#: The door each workload's rounds go through.
DOORS = {
    "core_contended": "direct", "mem_bound": "direct", "hot_line": "direct",
    "campaign_runner": "runner", "campaign_service": "service",
}


class GoldenMismatch(RuntimeError):
    """The simulator no longer reproduces the stored golden metrics."""


def golden_labels() -> list[str]:
    """The 15 cells of ``tests/golden``."""
    return [label for label, _mode, _workload in golden_grid()]


def check_golden(path=None, labels=None) -> None:
    """The simulator must still reproduce the cells of ``tests/golden``
    byte for byte, or nothing is measured.  Set-up checks all of them, one
    call each so that each is timed at the machine's speed of its moment.
    (The selftest passes a doctored snapshot and one label.)"""
    mismatches = verify_golden(path, labels)
    if mismatches:
        raise GoldenMismatch("; ".join(mismatches))


class Ops:
    """Attempted and failed operations.  An operation fails when it
    raises, times out, or a check rejects its output.  Each operation is
    the root span of the calls made on its behalf, on any thread."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.raised: dict[str, int] = defaultdict(int)
        self._rejected = False

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        self._rejected = False
        trace = self.trace
        trace.op = self.attempted
        try:
            with trace.span(f"op {label}") as timer:
                trace.cause = timer.id
                yield
        except Exception as exc:
            self.raised[type(exc).__name__] += 1
            self.reject(f"{label}: raised\n{traceback.format_exc()}")
        finally:
            trace.op = trace.cause = None
            self.failed += self._rejected

    def reject(self, message: str) -> None:
        self._rejected = True
        print(f"FAILED {message}", file=sys.stderr)


@dataclass
class Cell:
    """One direct-door cell: a pre-built program under one config."""

    label: str
    params: SystemParams
    program: object
    counter: tuple[int, int] | None = None  # (address, expected final value)


@dataclass
class Bench:
    """The state of one workload run in this process."""

    name: str
    seed: int
    scale: Scale
    work: Path
    door: str = field(init=False)
    trace: Trace = field(default_factory=Trace)
    ops: Ops = field(init=False)
    #: first ``RunMetrics.to_json()`` seen per cell; every later result of
    #: that cell, through any door, must be byte-identical to it
    expected: dict = field(default_factory=dict)
    instructions: dict = field(default_factory=dict)
    #: cell -> seconds per simulation, through the workload's own door
    sim: dict = field(default_factory=lambda: defaultdict(list))
    #: end-to-end metric -> samples
    samples: dict = field(default_factory=lambda: defaultdict(list))
    #: metric (``sim`` for :attr:`sim`) -> ``len(paces)`` at each sample
    taken: dict = field(default_factory=lambda: defaultdict(list))
    #: metrics whose samples were scaled one by one (:meth:`add`)
    local: set = field(default_factory=set)
    #: per-layer timing samples and summed simulated counts (traced pass)
    layer_s: dict = field(default_factory=lambda: defaultdict(list))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    worker: object = execute_spec
    http_errors: int = 0
    #: reference speed over this machine's speed, at each calibration
    paces: list = field(default_factory=list)
    rss_mb: float = 0.0  # read when the workload's own rounds are over
    cells: list = field(default_factory=list)
    grid_text: str = ""
    grid_specs: list = field(default_factory=list)
    grid_keys: list = field(default_factory=list)  # content hash per spec

    def __post_init__(self) -> None:
        self.door = DOORS[self.name]
        self.ops = Ops(self.trace)

    # -- inputs ----------------------------------------------------------

    def set_up(self) -> None:
        """Build this workload's inputs from the seed."""
        scale, seed = self.scale, self.seed
        base = SystemParams.small()
        configs = {
            "eager": config(base, "eager"),
            "lazy": config(base, "lazy"),
            "row": config(base, "row", DetectionMode.RW_DIR,
                          PredictorKind.UPDOWN, forwarding=True),
        }
        cells: list[Cell] = []
        if self.name == "core_contended":
            for workload in ("pc", "cq"):
                program = build_program(
                    workload, scale.threads, scale.instructions, seed=seed)
                cells += [Cell(f"{workload}/{mode}", params, program)
                          for mode, params in configs.items()]
        elif self.name == "mem_bound":
            for program_seed in (seed, seed + 1):
                program = build_program(
                    "blackscholes", scale.threads, scale.mem_instructions,
                    seed=program_seed)
                cells += [Cell(f"blackscholes.{program_seed}/{mode}",
                               configs[mode], program)
                          for mode in ("eager", "row")]
        elif self.name == "hot_line":
            # The counter program has no seed of its own: the seed sets
            # each thread's start skew (0-15 dependent ALU ops).
            rng = random.Random(seed)
            pads = [rng.randrange(16) for _ in range(scale.threads)]
            program = atomic_counter(scale.threads, scale.increments, pads)
            counter = (program.metadata["addr"], program.metadata["expected"])
            cells = [Cell(f"counter/{mode}", params, program, counter)
                     for mode, params in configs.items()]
        self.cells = cells
        # The sim workloads' door visit takes two of the grid's workloads
        # under eager and row only.
        grid = scale.grid_workloads[:2] if cells else scale.grid_workloads
        grid_configs = CAMPAIGN_CONFIGS[::2] if cells else CAMPAIGN_CONFIGS
        self.grid_text = self.campaign_text(grid, grid_configs)
        self.grid_specs = expand_campaign(loads_campaign(self.grid_text))
        self.grid_keys = [spec.content_hash() for spec in self.grid_specs]
        if self.door == "service":
            with serving(self):
                pass

    def campaign_text(self, workloads, configs) -> str:
        """A smoke-scale grid campaign at this run's seed, as JSON (which
        is YAML too, so it parses with or without pyyaml)."""
        return json.dumps({
            "campaign": 1, "name": f"{self.name}-grid", "scale": "smoke",
            "workloads": list(workloads), "configs": list(configs),
            "seeds": [self.seed], **self.scale.grid_size,
        })

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def pace_now(self) -> float:
        """The machine's speed now; not while spans are recorded, which
        would book the kernel's time to the enclosing span."""
        return 1.0 if self.trace.enabled else pace()

    def calibrate(self) -> float:
        """Sample the machine's speed for every metric whose stretch of
        the run this falls in (:meth:`pace_of`)."""
        now = self.pace_now()
        if not self.trace.enabled:
            self.paces.append(now)
        return now

    def add(self, metric: str, value: float, local: float | None = None
            ) -> None:
        """Keep one sample of a time.  ``local`` is the machine's speed
        as the caller measured it around this very sample, which is then
        kept at reference speed."""
        if local is not None:
            value *= local
            self.local.add(metric)
        self.samples[metric].append(value)
        self.taken[metric].append(len(self.paces))

    def add_sim(self, cell: str, seconds: float) -> None:
        self.sim[cell].append(seconds)
        self.taken["sim"].append(len(self.paces))

    def pace_of(self, metric: str) -> float:
        """Reference speed over the machine's median speed during the
        stretch in which ``metric`` was sampled: from the calibration
        before its first sample to the one after its last."""
        if metric in self.local:
            return 1.0
        taken = self.taken[metric]
        return statistics.median(
            self.paces[max(taken[0] - 1, 0):taken[-1] + 1])

    # -- checks ----------------------------------------------------------

    def check_digest(self, cell: str, metrics: RunMetrics) -> None:
        """Every result of a cell must equal the first one byte for byte."""
        digest = metrics.to_json()
        if self.expected.setdefault(cell, digest) != digest:
            self.ops.reject(f"{cell}: RunMetrics differ from the first result")
        self.instructions[cell] = metrics.instructions

    def check_batch(self, results, door: str) -> None:
        """One batch of results for the grid, in grid order."""
        if len(results) != len(self.grid_keys):
            self.ops.reject(f"{door}: {len(results)} results for"
                            f" {len(self.grid_keys)} cells")
        for key, metrics in zip(self.grid_keys, results):
            self.check_digest(key, metrics)


# ---------------------------------------------------------------------------
# Direct door
# ---------------------------------------------------------------------------


def direct_round(b: Bench) -> None:
    """One ``simulate()`` per cell; gc runs between operations, outside
    the timed region (``run()`` pauses it inside)."""
    taken = []
    for cell in b.cells:
        gc.collect()
        b.calibrate()
        with b.ops.op(cell.label):
            result, seconds = b.trace.call(
                "sim.simulate", simulate, cell.params, cell.program)
            check_result(b, cell, result)
            b.add_sim(cell.label, seconds)
            taken.append(seconds)
    if taken:
        b.add("first_row_s", taken[0])
        b.add("cells_per_s", len(taken) / sum(taken))


def direct_round_layers(b: Bench) -> None:
    """The same round with construct / run / metrics timed apart."""
    for cell in b.cells:
        gc.collect()
        with b.ops.op(cell.label):
            sim, construct = b.trace.call(
                "sim.multicore.construct", MulticoreSimulator,
                cell.params, cell.program)
            result, run = b.trace.run(sim)
            metrics, extract = b.trace.call(
                "analysis.runner.metrics", RunMetrics.from_result, result)
            check_result(b, cell, result, metrics)
            record_cell(b, result, construct=construct, run=run,
                        metrics=extract)


def check_result(b: Bench, cell: Cell, result, metrics=None) -> None:
    b.check_digest(cell.label, metrics or RunMetrics.from_result(result))
    if cell.counter is not None:
        address, expected = cell.counter
        if result.memory_snapshot.get(address) != expected:
            b.ops.reject(f"{cell.label}: counter ended at"
                         f" {result.memory_snapshot.get(address)},"
                         f" not {expected}")


def record_cell(b: Bench, result, **phases: float) -> None:
    """Keep one cell's phase times (untraced round) or its simulated
    counts (traced round) for the per-layer table."""
    if not b.trace.enabled:
        for phase, seconds in phases.items():
            b.layer_s[phase].append(seconds)
        b.counts["untraced_run_s"] += phases["run"]
        b.counts["untraced_cycles"] += result.cycles
        return
    counts, spine = b.counts, result.spine
    core = result.merged_core_stats()
    controller = result.merged_controller_stats()
    counts["sim.cycles"] += result.cycles
    counts["sim.instructions"] += result.instructions
    for key in ("iterations", "step_calls", "wakes", "stale_wakes",
                "empty_iterations", "possible_steps", "skipped_steps"):
        counts[f"sim.engine.{key}"] += spine[key]
    for key in ("flushes", "order_violations", "branch_mispredicts",
                "atomics_committed", "atomic_lock_retries"):
        counts[f"core.{key}"] += core.counter(key).value
    counts["row.predictions"] += core.counter("predictions").value
    counts["row.outcomes"] += core.counter("outcomes").value
    counts["row.correct"] += core.counter("correct").value
    for key in ("l1d_hits", "l1d_misses", "l2_hits", "cache_to_cache"):
        counts[f"memory.controller.{key}"] += controller.counter(key).value
    miss = controller.accumulator("miss_latency")
    counts["miss_latency.total"] += miss.total
    counts["miss_latency.count"] += miss.count
    for key in ("transactions", "requests_queued", "l3_misses"):
        counts[f"memory.directory.{key}"] += (
            result.directory_stats.counter(key).value)
    counts["memory.interconnect.messages"] += (
        result.network_stats.counter("messages").value)
    latency = result.network_stats.accumulator("latency")
    counts["net_latency.total"] += latency.total
    counts["net_latency.count"] += latency.count


def layered_worker(b: Bench):
    """An ``execute_spec`` equivalent with each phase in its own span."""

    def worker(spec: RunSpec) -> RunMetrics:
        program, build = b.trace.call(
            "workloads.build_program", build_program, spec.workload,
            spec.num_threads, spec.instructions_per_thread, seed=spec.seed)
        sim, construct = b.trace.call(
            "sim.multicore.construct", MulticoreSimulator, spec.params,
            program)
        result, run = b.trace.run(sim)
        metrics, extract = b.trace.call(
            "analysis.runner.metrics", RunMetrics.from_result, result)
        record_cell(b, result, build=build, construct=construct, run=run,
                    metrics=extract)
        return metrics

    return worker


# ---------------------------------------------------------------------------
# Runner door
# ---------------------------------------------------------------------------


def runner_cold(b: Bench, pooled: bool) -> Path:
    """The grid through a fresh ``Runner`` on a fresh cache directory:
    streamed in this process, or fanned over ``JOBS`` pool workers."""
    specs, cache = b.grid_specs, b.fresh_dir()
    gc.collect()
    b.calibrate()
    with b.ops.op("runner cold pooled" if pooled else "runner cold"):
        if pooled:
            # Pool workers are separate processes: always the repo's own
            # execute_spec, never the span-recording worker.
            runner = Runner(jobs=JOBS, cache_dir=cache)
            results, seconds = b.trace.call(
                "analysis.parallel.run_many", runner.run_many, specs)
            b.add("cells_per_s_j2", len(specs) / seconds)
        else:
            runner = Runner(jobs=1, cache_dir=cache, worker=b.worker)
            results, intervals = [], []
            with b.trace.span("analysis.parallel.run_stream"):
                last = perf_counter()
                for _spec, metrics, source in runner.run_stream(specs):
                    intervals.append(perf_counter() - last)
                    results.append(metrics)
                    if source != "sim":
                        b.ops.reject(f"cold cell came from {source}")
                    # The pass is long: sample the machine's speed along
                    # it, between cells, where no clock is running.
                    b.calibrate()
                    last = perf_counter()
            for key, seconds in zip(b.grid_keys, intervals):
                b.add_sim(key, seconds)
            b.add("first_row_s", intervals[0])
            b.add("cells_per_s", len(specs) / sum(intervals))
        b.check_batch(results, "runner cold")
        if runner.stats.simulated != len(specs):
            b.ops.reject(f"runner simulated {runner.stats.simulated} cells")
        b.counts["runner.retries"] += runner.stats.retries
        b.counts["runner.corrupt"] += runner.stats.corrupt_discarded
    return cache


def runner_warm(b: Bench, cache: Path) -> None:
    """Disk hits through fresh Runners — whole batches, then cell by
    cell, the request of this door — and one memo batch."""
    specs = b.grid_specs
    requests = []
    b.calibrate()
    for _ in range(b.scale.warm_batches):
        gc.collect()
        with b.ops.op("runner disk-warm batch"):
            runner = Runner(jobs=1, cache_dir=cache)
            results, seconds = b.trace.call(
                "analysis.parallel.run_many", runner.run_many, specs)
            b.check_batch(results, "runner disk-warm")
            b.add("warm_cell_ms", 1e3 * seconds / len(specs))
        with b.ops.op("runner disk-warm cells"):
            fresh = Runner(jobs=1, cache_dir=cache)
            for key, spec in zip(b.grid_keys, specs):
                metrics, seconds = b.trace.call(
                    "analysis.parallel.run", fresh.run, spec)
                b.check_digest(key, metrics)
                requests.append(seconds)
            if (runner.stats.disk_hits, fresh.stats.disk_hits) != (
                    len(specs), len(specs)):
                b.ops.reject("disk-warm cells were not all disk hits")
    # One sample per warm phase, its mean request: the tail of single
    # 0.25 ms file reads is the machine's, not the repo's (between runs it
    # spreads 0.2-0.35 at every percentile from p75 to p98).
    b.add("request_ms", 1e3 * statistics.fmean(requests))
    with b.ops.op("runner memo batch"):
        results, _ = b.trace.call(
            "analysis.parallel.run_many", runner.run_many, specs)
        b.check_batch(results, "runner memo")
        if runner.stats.memo_hits != len(specs):
            b.ops.reject("memo batch was not all memo hits")


def runner_round(b: Bench) -> None:
    runner_warm(b, runner_cold(b, pooled=False))
    runner_cold(b, pooled=True)


def door_visit(b: Bench) -> None:
    """What a sim workload's round ends with: its four-cell grid through
    ``Runner`` cold ``jobs=2``, then disk-warm and memo."""
    runner_warm(b, runner_cold(b, pooled=True))


# ---------------------------------------------------------------------------
# Service door
# ---------------------------------------------------------------------------


def set_affinity(cpus) -> None:
    """Every thread of this process may run on ``cpus`` only."""
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:
            pass  # the thread ended since it was listed


@contextmanager
def one_cpu():
    """Keep this process on one CPU.  The client, the server and the
    pool's dispatcher are threads that take turns (one sleeps on a socket
    or a queue while the other works, and the interpreter lock lets only
    one run anyway), so a second CPU gives them nothing.  It costs them
    the host's wake-up latency, though: a vCPU with nothing to run is
    halted, and on a busy host its next wake-up waited 3-5 ms for minutes
    at a time, which put 1 ms round trips' p90 anywhere from 1.3 to
    6 ms.  A CPU that always has one of the threads to run is never
    halted: 100-call stretches on one CPU kept their p90 at 0.9-1.2 ms
    between stretches on two that read 3-6 ms."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    set_affinity({min(allowed)})
    try:
        yield
    finally:
        set_affinity(allowed)


@contextmanager
def serving(b: Bench):
    """A service on loopback over fresh cache and state directories, the
    process on one CPU while it is up."""
    with one_cpu():
        runner = Runner(jobs=1, cache_dir=b.fresh_dir(), worker=b.worker)
        pool = ShardPool(runner, state_dir=b.fresh_dir())
        pool.start()
        service = ServiceThread(pool).start()
        try:
            yield ServiceClient(service.url), pool
        finally:
            service.stop()
            pool.stop()


def wait_done(client: ServiceClient, cid: str, start: float,
              poll: float = POLL_SECONDS):
    """Poll ``status`` to done: (first-row s, done s, per-cell intervals,
    final status)."""
    first, intervals, completed, last = None, [], 0, start
    while True:
        status = client.status(cid)
        now = perf_counter()
        fresh = status["completed"] - completed
        if fresh > 0:
            intervals += [(now - last) / fresh] * fresh
            completed, last = status["completed"], now
            if first is None:
                first = now - start
        if status["state"] in ("done", "failed"):
            return first, now - start, intervals, status
        if now - start > WAIT_SECONDS:
            raise TimeoutError(f"campaign {cid[:12]} not done after"
                               f" {WAIT_SECONDS:.0f} s")
        time.sleep(poll)


def service_round(b: Bench) -> None:
    """Cold submit, results, renamed warm resubmits with status calls
    between them, and one malformed body against one fresh service."""
    specs = b.grid_specs
    gc.collect()
    with serving(b) as (client, _pool):
        b.calibrate()
        with b.ops.op("service cold submit"):
            start = perf_counter()
            status, _ = b.trace.call(
                "service.http.submit", client.submit, b.grid_text)
            cid = status["id"]
            with b.trace.span("service.http.wait"):
                first, done, intervals, status = wait_done(client, cid, start)
            if status["state"] != "done" or status["simulated"] != len(specs):
                b.ops.reject(f"cold campaign ended {status}")
            for key, seconds in zip(b.grid_keys, intervals):
                b.add_sim(key, seconds)
            b.add("first_row_s", first)
            b.add("cells_per_s", len(specs) / done)
        with b.ops.op("service results"):
            rows, _ = b.trace.call(
                "service.http.results", client.results, cid)
            if sorted(row["spec"] for row in rows) != sorted(b.grid_keys):
                b.ops.reject("result rows do not match the submitted grid")
            for row in rows:
                b.check_digest(
                    row["spec"], RunMetrics.from_dict(row["metrics"]))
        renamed = json.loads(b.grid_text)
        calls = b.scale.repeats // b.scale.warm_batches
        before = b.calibrate()
        for batch in range(b.scale.warm_batches):
            taken = []  # (metric, sample) of this batch
            with b.ops.op("service warm resubmit"):
                renamed["name"] = f"{b.name}-grid-again-{batch}"
                start = perf_counter()
                status, _ = b.trace.call(
                    "service.http.submit", client.submit, json.dumps(renamed))
                if status["id"] == cid:
                    b.ops.reject("renamed campaign kept its id")
                _, done, _, status = wait_done(
                    client, status["id"], start, WARM_POLL_SECONDS)
                if status["state"] != "done" or status["simulated"] != 0:
                    b.ops.reject(f"warm campaign ended {status}")
                taken.append(("warm_cell_ms", 1e3 * done / len(specs)))
            for _ in range(calls):
                with b.ops.op("service status"):
                    status, seconds = b.trace.call(
                        "service.http.status", client.status, cid)
                    if status["completed"] != len(specs):
                        b.ops.reject(f"status of a done campaign: {status}")
                    taken.append(("request_ms", 1e3 * seconds))
            # These take a millisecond or ten, and the machine's speed
            # changes from one 100 ms to the next: each batch is scaled
            # by the speed measured right before and right after it.
            after = b.pace_now()
            for metric, value in taken:
                b.add(metric, value, (before + after) / 2)
            before = after
        b.calibrate()
        with b.ops.op("service malformed submit"):
            try:
                client.submit("campaign: 1\nname: [")
            except ServiceError as exc:
                if not 400 <= exc.status < 500:
                    b.http_errors += 1
                    b.ops.reject(f"malformed body answered {exc.status}")
            else:
                b.http_errors += 1
                b.ops.reject("malformed body was accepted")


# ---------------------------------------------------------------------------
# The untraced pass and the traced pass
# ---------------------------------------------------------------------------


def main_round(b: Bench) -> None:
    if b.door == "direct":
        direct_round(b)
    elif b.door == "runner":
        runner_round(b)
    else:
        # The same cells through a bare Runner(jobs=2) right after the
        # service: the rows the service's are compared with.
        service_round(b)
        runner_cold(b, pooled=True)


def measure(b: Bench, rounds: int) -> None:
    """The untraced pass: ``rounds`` whole rounds, so the mix of cells is
    fixed; then peak memory; then a sim workload's door visits, whose
    pool workers and cache files must not count as the simulator's."""
    for _ in range(rounds):
        main_round(b)
    b.rss_mb = peak_rss_mb()
    if b.door == "direct":
        for _ in range(b.scale.visits):
            door_visit(b)


def measure_layers(b: Bench) -> None:
    """The traced pass: the door's own layer measurements, one untraced
    round for the phase times, then the same round with spans and
    cProfile on."""
    b.worker = layered_worker(b)
    extras, one_round = {
        "direct": (None, direct_round_layers),
        "runner": (runner_layers, runner_round),
        "service": (service_layers, service_round),
    }[b.door]
    if extras is not None:
        extras(b)
    for enabled in (False, True):
        b.trace.enabled = enabled
        start = perf_counter()
        one_round(b)
        b.counts["traced_s" if enabled else "untraced_s"] = (
            perf_counter() - start)
    b.trace.enabled = False


def runner_layers(b: Bench) -> None:
    """Per-cell cost of each thing ``Runner.run`` does besides simulating."""
    specs, cache = b.grid_specs, b.fresh_dir()
    for spec in specs:
        _, seconds = b.trace.call("analysis.parallel.hash", spec.content_hash)
        b.layer_s["hash"].append(seconds)
    runner = Runner(jobs=1, cache_dir=cache, worker=b.worker)
    for spec in specs:
        inside = len(b.layer_s["run"])
        _, seconds = b.trace.call("analysis.parallel.run", runner.run, spec)
        cell = sum(b.layer_s[phase][inside]
                   for phase in ("build", "construct", "run", "metrics"))
        b.layer_s["miss_overhead"].append(seconds - cell)
    runner = Runner(jobs=1, cache_dir=cache)
    for key in ("disk_hit", "memo_hit"):
        for spec in specs:
            _, seconds = b.trace.call(
                "analysis.parallel.run", runner.run, spec)
            b.layer_s[key].append(seconds)


def service_layers(b: Bench) -> None:
    """The planner's own calls, and what the fabric adds to a bare Runner
    and HTTP to the fabric.  The additions are taken warm — renamed
    campaigns whose every cell is a disk hit — because the difference of
    two cold runs is lost in the noise of the simulations inside them."""
    campaign, seconds = b.trace.call(
        "service.schema.loads_campaign", loads_campaign, b.grid_text)
    b.layer_s["parse"].append(seconds)
    _, seconds = b.trace.call(
        "service.planner.expand_campaign", expand_campaign, campaign)
    b.layer_s["expand"].append(seconds)
    _, seconds = b.trace.call(
        "service.planner.campaign_id", campaign_id, campaign)
    b.layer_s["id"].append(seconds)
    payload = json.loads(b.grid_text)
    with serving(b) as (client, pool):
        run, seconds = b.trace.call(
            "service.fabric.submit", pool.submit, campaign)
        b.layer_s["fabric_submit"].append(seconds)
        if not run.wait(WAIT_SECONDS) or run.state != "done":
            raise RuntimeError(f"direct pool campaign ended {run.state}")
        for repeat in range(b.scale.warm_batches):
            gc.collect()
            runner = Runner(jobs=1, cache_dir=pool.runner.cache_dir)
            _, seconds = b.trace.call(
                "analysis.parallel.run_many", runner.run_many, b.grid_specs)
            b.layer_s["runner_warm"].append(seconds)
            pool.runner.clear_memo()
            payload["name"] = f"{campaign.name}-pool-{repeat}"
            start = perf_counter()
            run = pool.submit(loads_campaign(json.dumps(payload)))
            if not run.wait(WAIT_SECONDS) or run.simulated:
                raise RuntimeError(f"warm pool campaign ended {run.status()}")
            b.layer_s["fabric_warm"].append(perf_counter() - start)
            pool.runner.clear_memo()
            payload["name"] = f"{campaign.name}-http-{repeat}"
            start = perf_counter()
            status = client.submit(json.dumps(payload))
            _, done, _, status = wait_done(
                client, status["id"], start, WARM_POLL_SECONDS)
            if status["simulated"]:
                raise RuntimeError(f"warm HTTP campaign ended {status}")
            b.layer_s["http_warm"].append(done)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def high(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, but no
    higher than p90: further out, the value follows single scheduler
    hiccups of the sandbox.  Fewer than 22 samples have no such
    percentile above their median, which is returned instead: an order
    statistic of four or five samples is no tail, only noisier."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 22:
        return statistics.median(ordered)
    return ordered[min(count - 11, count * 9 // 10 - 1)]


def peak_rss_mb() -> float:
    """This process plus its largest child (the ``jobs=2`` workers)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(b: Bench, setup_s: float) -> dict[str, tuple[float, str]]:
    """``{metric: (value, note)}`` from the untraced pass.

    A timing is the median of its samples and ``_hi`` is :func:`high` of
    the same samples, at reference speed (:meth:`Bench.pace_of`;
    ``setup_s`` arrives scaled).  The note gives the sample count and the
    best sample.
    """
    median = statistics.median
    pace = b.pace_of("sim")
    pooled = [1e3 * pace * s for samples in b.sim.values() for s in samples]
    kinstr = sum(b.instructions[cell] for cell in b.sim) / 1e3 / pace
    out = {
        "setup_s": (setup_s, f"import + median of {SETUP_PASSES} input"
                             " builds + golden check"),
        "sim_kips": (
            kinstr / sum(median(v) for v in b.sim.values()),
            f"{len(b.sim)} cells, median of {len(pooled) // len(b.sim)}"
            f" each; from bests {kinstr / sum(map(min, b.sim.values())):.4g}"),
        "sim_ms_p50": (median(pooled), f"n={len(pooled)}; best"
                                       f" {min(pooled):.4g}"),
        "sim_ms_hi": (high(pooled), f"n={len(pooled)}"),
        "peak_rss_mb": (b.rss_mb, "ru_maxrss, self + largest child, after"
                                  " the workload's own rounds"),
    }
    for metric, best in (("cells_per_s", max), ("cells_per_s_j2", max),
                         ("warm_cell_ms", min), ("first_row_s", min)):
        pace = b.pace_of(metric)
        scale = 1 / pace if best is max else pace  # a rate or a time
        samples = [scale * value for value in b.samples[metric]]
        out[metric] = (median(samples),
                       f"n={len(samples)}; best {best(samples):.4g}")
    pace = b.pace_of("request_ms")
    requests = [pace * ms for ms in b.samples["request_ms"]]
    out["request_ms_p50"] = (median(requests), f"n={len(requests)}; best"
                                               f" {min(requests):.4g}")
    out["request_ms_hi"] = (high(requests), f"n={len(requests)}")
    return out


def per_layer(b: Bench) -> dict[str, float]:
    """``{metric: value}`` from the traced pass.  A layer the workload
    never enters reads 0."""
    counts, layer_s = b.counts, b.layer_s

    def mean(key: str, unit: float, pick=statistics.fmean) -> float:
        samples = layer_s.get(key)
        return unit * pick(samples) if samples else 0.0

    def median(key: str, unit: float) -> float:
        return mean(key, unit, statistics.median)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    folded = b.trace.fold()
    profiled_s = sum(seconds for seconds, _calls in folded.values())
    kinstr = counts["sim.instructions"] / 1e3
    run_s = counts["untraced_run_s"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        seconds, calls = folded[layer]
        out[f"{layer}.self_share"] = ratio(seconds, profiled_s)
        out[f"{layer}.calls_per_kinstr"] = ratio(calls, kinstr)
    memory_share = sum(
        out[f"{layer}.self_share"] for layer in LAYERS
        if layer.startswith("memory."))
    out["sim.engine.host_us_per_iteration"] = ratio(
        1e6 * run_s * out["sim.engine.self_share"],
        counts["sim.engine.iterations"])
    out["core.pipeline.host_us_per_step_call"] = ratio(
        1e6 * run_s * out["core.pipeline.self_share"],
        counts["sim.engine.step_calls"])
    out["memory.host_us_per_message"] = ratio(
        1e6 * run_s * memory_share, counts["memory.interconnect.messages"])
    out["sim.kcps"] = ratio(counts["untraced_cycles"] / 1e3, run_s)
    out["sim.cycles"] = counts["sim.cycles"]
    out["sim.instructions"] = counts["sim.instructions"]
    out["sim.ipc"] = ratio(counts["sim.instructions"], counts["sim.cycles"])
    for key in ("iterations", "step_calls", "wakes", "stale_wakes",
                "empty_iterations"):
        out[f"sim.engine.{key}"] = counts[f"sim.engine.{key}"]
    out["sim.engine.skipped_fraction"] = ratio(
        counts["sim.engine.skipped_steps"], counts["sim.engine.possible_steps"])
    for key in ("core.flushes", "core.order_violations",
                "core.branch_mispredicts", "core.atomics_committed",
                "core.atomic_lock_retries", "row.predictions",
                "memory.controller.l1d_hits", "memory.controller.l1d_misses",
                "memory.controller.l2_hits",
                "memory.controller.cache_to_cache",
                "memory.directory.transactions",
                "memory.directory.requests_queued",
                "memory.directory.l3_misses",
                "memory.interconnect.messages"):
        out[key] = counts[key]
    out["row.accuracy"] = ratio(counts["row.correct"], counts["row.outcomes"])
    out["memory.controller.miss_latency_mean"] = ratio(
        counts["miss_latency.total"], counts["miss_latency.count"])
    out["memory.interconnect.latency_mean"] = ratio(
        counts["net_latency.total"], counts["net_latency.count"])

    out["workloads.build_ms"] = mean("build", 1e3)
    cell_ms = sum(mean(phase, 1e3)
                  for phase in ("build", "construct", "run", "metrics"))
    out["workloads.build_share"] = ratio(out["workloads.build_ms"], cell_ms)
    out["sim.multicore.construct_ms"] = mean("construct", 1e3)
    out["sim.multicore.run_ms"] = mean("run", 1e3)
    out["analysis.runner.metrics_ms"] = mean("metrics", 1e3)

    out["analysis.parallel.hash_us"] = mean("hash", 1e6)
    out["analysis.parallel.miss_overhead_ms"] = mean("miss_overhead", 1e3)
    out["analysis.parallel.disk_hit_ms"] = mean("disk_hit", 1e3)
    out["analysis.parallel.memo_hit_us"] = mean("memo_hit", 1e6)
    j1 = b.samples["cells_per_s"][:1]
    j2 = b.samples["cells_per_s_j2"][:1]
    out["analysis.parallel.pool_speedup_j2"] = (
        ratio(j2[0], j1[0]) if j1 and j2 else 0.0)
    out["analysis.parallel.retries"] = counts["runner.retries"]
    out["analysis.parallel.corrupt_discarded"] = counts["runner.corrupt"]

    spans = defaultdict(list)
    for span in b.trace.spans:
        spans[span["name"]].append(1e3 * (span["end"] - span["start"]))

    def span_ms(name: str) -> float:
        return statistics.fmean(spans[name]) if spans[name] else 0.0

    out["service.schema.parse_ms"] = mean("parse", 1e3)
    out["service.planner.expand_ms"] = mean("expand", 1e3)
    out["service.planner.id_ms"] = mean("id", 1e3)
    out["service.fabric.submit_ms"] = mean("fabric_submit", 1e3)
    out["service.fabric.overhead_ms"] = (
        median("fabric_warm", 1e3) - median("runner_warm", 1e3))
    out["service.http.submit_ms"] = span_ms("service.http.submit")
    out["service.http.status_ms"] = span_ms("service.http.status")
    out["service.http.results_ms"] = span_ms("service.http.results")
    out["service.http.overhead_ms"] = (
        median("http_warm", 1e3) - median("fabric_warm", 1e3))
    out["service.http.errors"] = b.http_errors + b.ops.raised["ServiceError"]
    out["trace.overhead_x"] = ratio(counts["traced_s"], counts["untraced_s"])
    return out
