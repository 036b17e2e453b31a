"""Multicore simulator harness.

Builds the full system — mesh network, directory/L3 banks, per-core private
cache controllers and out-of-order cores — runs a :class:`Program` to
completion, and returns a :class:`RunResult` with every statistic the
paper's figures consume.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field

from repro.common.params import SystemParams
from repro.common.stats import AtomicLatencyBreakdown, StatGroup, merge_groups
from repro.core.pipeline import Core
from repro.isa.instructions import Program
from repro.memory.controller import PrivateCacheController
from repro.memory.directory import DirectoryBank
from repro.memory.image import MemoryImage
from repro.memory.interconnect import MeshNetwork
from repro.obs.tracer import resolve_tracer
from repro.sim.engine import DeadlockError, EventEngine


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    program_name: str
    params: SystemParams
    cycles: int
    instructions: int
    core_stats: list[StatGroup]
    controller_stats: list[StatGroup]
    directory_stats: StatGroup
    network_stats: StatGroup
    breakdown: AtomicLatencyBreakdown
    memory_snapshot: dict[int, int] = field(default_factory=dict)
    per_core_cycles: list[int] = field(default_factory=list)
    load_values: list[dict[int, int]] = field(default_factory=list)
    # Scheduler-side instrumentation (step/skip/wake counters from the
    # quiescence-aware spine).  Observer-only: never feeds RunMetrics.
    spine: dict = field(default_factory=dict)
    # The EventTrace when tracing was requested (None otherwise).  A pure
    # observer: nothing above this field ever depends on it.
    trace: object | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def merged_core_stats(self) -> StatGroup:
        return merge_groups(self.core_stats, "cores")

    def merged_controller_stats(self) -> StatGroup:
        return merge_groups(self.controller_stats, "controllers")

    # Derived metrics used by the analysis layer -----------------------

    def atomics_committed(self) -> int:
        return self.merged_core_stats().counter("atomics_committed").value

    def atomics_per_10k(self) -> float:
        if not self.instructions:
            return 0.0
        return 1e4 * self.atomics_committed() / self.instructions

    def contended_fraction(self) -> float:
        atomics = self.atomics_committed()
        if not atomics:
            return 0.0
        contended = self.merged_core_stats().counter("atomics_contended_truth").value
        return contended / atomics

    def avg_miss_latency(self) -> float:
        return self.merged_controller_stats().accumulator("miss_latency").mean

    def predictor_accuracy(self) -> float:
        merged = self.merged_core_stats()
        outcomes = merged.counter("outcomes").value
        if not outcomes:
            return 1.0
        return merged.counter("correct").value / outcomes


class MulticoreSimulator:
    """One fully assembled CMP executing one program.

    ``sanitize`` attaches the runtime invariant checkers from
    :mod:`repro.sanitize.runtime` (pass ``True`` for the defaults or a
    :class:`~repro.sanitize.runtime.SanitizerConfig` to pick checkers).
    Off by default: an unsanitized simulator runs the exact seed bytecode.

    ``trace`` attaches the cycle-level observability layer from
    :mod:`repro.obs` (pass ``True`` for defaults, a
    :class:`~repro.obs.tracer.TraceConfig` to filter/sample, or your own
    :class:`~repro.obs.tracer.Tracer`).  Tracing is a pure observer:
    a traced run produces the same :class:`RunResult` statistics as an
    untraced one.

    ``quiesce`` (default True) selects the scheduler, never the pipeline:
    both drive :meth:`Core.pump`.  The default event pump pumps only awake
    cores and bounds the idle fast-forward by ``min(next event, earliest
    scheduled core wake)``; it is timing-transparent by construction
    (docs/performance.md walks the argument).  ``False`` is the reference
    scheduler — every core, every cycle, no sleep/wake state — that the
    differential tests hold the event pump bit-identical to.
    """

    def __init__(
        self,
        params: SystemParams,
        program: Program,
        sanitize: "bool | object" = False,
        trace: "bool | object" = False,
        quiesce: bool = True,
    ) -> None:
        params.validate()
        if program.num_threads > params.num_cores:
            raise ValueError(
                f"program has {program.num_threads} threads but the system "
                f"has only {params.num_cores} cores"
            )
        program.validate()
        self.params = params
        self.program = program
        self.tracer = resolve_tracer(trace)
        self.network_stats = StatGroup("network")
        self.network = MeshNetwork(params, self.network_stats)
        self.engine = EventEngine(self.network, tracer=self.tracer)
        self.image = MemoryImage(program.initial_memory)
        self.directory_stats = StatGroup("directory")
        self.banks = [
            DirectoryBank(
                node,
                params,
                self.engine,
                self.directory_stats,
                image=self.image,
                tracer=self.tracer,
            )
            for node in range(params.num_cores)
        ]
        self.controllers: list[PrivateCacheController] = []
        self.cores: list[Core] = []
        for cid in range(params.num_cores):
            controller = PrivateCacheController(cid, params, self.engine)
            self.controllers.append(controller)
            self.engine.register_core_endpoint(cid, controller.receive)
            self.engine.register_dir_endpoint(cid, self.banks[cid].receive)
        for cid, core_trace in enumerate(program.traces):
            core = Core(
                cid,
                params,
                core_trace,
                self.engine,
                self.controllers[cid],
                self.image,
                tracer=self.tracer,
            )
            self.cores.append(core)
        self._apply_warmup()
        self.quiesce = quiesce
        # Spine instrumentation: loop iterations, core-step calls,
        # sleep->wake transitions, lazily discarded stale wake entries and
        # do-nothing pump iterations.  Plain ints on the hot path; exported
        # as the ``RunResult.spine`` dict (and consumed by the perf smoke
        # gate in ``repro check`` and by ``benchmarks/perf``).
        self._iterations = 0
        self._step_calls = 0
        self._wake_count = 0
        self._stale_wakes = 0
        self._empty_iterations = 0
        # (wake cycle, core id) min-heap mirroring every core's scheduled
        # timed wakes; its top bounds the idle fast-forward in run().
        self._wake_heap: list[tuple[int, int]] = []
        # Runnable queue: core ids whose awake flag just went up.  The
        # event pump drains it in core-id order instead of scanning every
        # core every iteration; membership invariant is awake & not done
        # (wakes of finished cores are filtered at drain time).
        self._runq: list[int] = []
        if quiesce:
            wake_heap = self._wake_heap
            runq = self._runq

            def scheduler(cycle: int, core: Core, _push=heapq.heappush) -> None:
                _push(wake_heap, (cycle, core.core_id))

            def sink(core: Core, _push=heapq.heappush) -> None:
                self._wake_count += 1
                _push(runq, core.core_id)

            for core in self.cores:
                core._wake_scheduler = scheduler
                core._wake_sink = sink
        self.sanitizer = None
        if sanitize:
            from repro.sanitize.runtime import SanitizerConfig, attach_sanitizers

            config = sanitize if isinstance(sanitize, SanitizerConfig) else None
            self.sanitizer = attach_sanitizers(self, config)

    def _apply_warmup(self) -> None:
        """Pre-install steady-state-hot regions declared by the workload.

        Private regions warm as Exclusive in their owner's L2 (directory
        records the owner); the shared read region warms as Shared in every
        core that runs a thread.  Capacity-capped so warmup never evicts
        itself.
        """
        spec = self.program.metadata.get("warmup")
        if not spec:
            return
        l2_lines = self.params.l2.num_lines
        for cid, base_line, count in spec.get("private", ()):
            if cid >= len(self.cores):
                continue
            controller = self.controllers[cid]
            for line in range(base_line, base_line + min(count, (3 * l2_lines) // 4)):
                controller.state[line] = "E"
                controller.l2.insert(line)
                bank = self.banks[self.network.bank_of(line)]
                entry = bank.entry(line)
                entry.state = "M"
                entry.owner = cid
                bank.l3.insert(line)
        shared = spec.get("shared")
        if shared:
            base_line, count = shared
            active = list(range(len(self.cores)))
            for line in range(base_line, base_line + min(count, l2_lines // 4)):
                for cid in active:
                    self.controllers[cid].state[line] = "S"
                    self.controllers[cid].l2.insert(line)
                bank = self.banks[self.network.bank_of(line)]
                entry = bank.entry(line)
                entry.state = "S"
                entry.sharers = set(active)
                bank.l3.insert(line)

    def run(self, max_cycles: int = 50_000_000) -> RunResult:
        """Simulate until every core finished its trace (and drained).

        This is the anchor of the `determinism` effect rule: nothing
        reachable from here may be NONDET (host clock, unseeded
        randomness, unordered set iteration) — the static counterpart of
        the golden bit-identity gate.
        """
        engine = self.engine
        cores = self.cores
        # The run loop allocates millions of short-lived tuples, closures
        # and DynInstrs; generational GC passes over them are pure
        # overhead (everything reachable stays reachable until the run
        # ends).  Pause automatic collection for the duration — the
        # reference cycles DynInstr consumer lists create are reclaimed
        # by the collector once it is re-enabled.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self.quiesce:
                self._run_quiesced(max_cycles)
            else:
                self._run_always_step(max_cycles)
        finally:
            if gc_was_enabled:
                gc.enable()
        if self.sanitizer is not None:
            self.sanitizer.final_check()
        breakdown = AtomicLatencyBreakdown()
        for core in cores:
            breakdown.merge(core.breakdown)
        instructions = sum(len(t) for t in self.program.traces)
        return RunResult(
            program_name=self.program.name,
            params=self.params,
            cycles=engine.now,
            instructions=instructions,
            core_stats=[c.stats for c in cores],
            controller_stats=[c.stats for c in self.controllers],
            directory_stats=self.directory_stats,
            network_stats=self.network_stats,
            breakdown=breakdown,
            memory_snapshot=self.image.snapshot(),
            # ``is None``, not truthiness: a core with an empty trace
            # legitimately finishes at cycle 0.
            per_core_cycles=[
                engine.now if c.finish_cycle is None else c.finish_cycle
                for c in cores
            ],
            load_values=[c.load_values for c in cores],
            spine=self.spine_snapshot(),
            trace=self.tracer,
        )

    def spine_snapshot(self) -> dict:
        """Scheduler counters: how much stepping the spine avoided.

        Accurate after *every* exit path — normal completion, deadlock and
        budget abort all flush the loop-local counters (the abort paths
        used to lose them).  ``stale_wakes`` counts wake-heap entries
        lazily discarded because their core finished or their wake was
        already retired; ``empty_iterations`` counts pump passes that ran
        no event, fired no wake and pumped no core (a healthy event pump
        reports zero — ``repro check`` gates on it).
        """
        possible = self._iterations * len(self.cores)
        skipped = possible - self._step_calls
        return {
            "quiesce": self.quiesce,
            "iterations": self._iterations,
            "step_calls": self._step_calls,
            "possible_steps": possible,
            "skipped_steps": skipped,
            "skipped_fraction": (skipped / possible) if possible else 0.0,
            "wakes": self._wake_count,
            "stale_wakes": self._stale_wakes,
            "empty_iterations": self._empty_iterations,
        }

    def _run_quiesced(self, max_cycles: int) -> None:
        """Pure event pump: run due events, fire due wakes, pump runnables.

        Nothing is polled.  Each pass drains the engine queue at ``now``,
        retires due timed wakes (lazily discarding stale entries for
        finished cores or wakes an earlier firing already consumed), then
        pumps exactly the cores whose wake flag is up — in core-id order,
        via the runnable queue the wake sink feeds — through
        :meth:`Core.pump`.  A core
        whose pump does no work leaves the runnable queue until
        ``note_activity`` re-raises its ``awake`` flag (message delivery,
        completion callbacks) or a scheduled timed wake comes due; cross-
        core effects travel only through strictly-future events, so no new
        runnable entries can appear mid-batch.  The idle fast-forward is
        bounded by the (stale-pruned) wake heap and clamped to the cycle
        budget, so the pump never visits a cycle it has nothing to do in
        and never overshoots ``max_cycles`` by more than one bound check.
        Timing-transparent vs. :meth:`_run_always_step`: see
        docs/performance.md for the invariant.
        """
        engine = self.engine
        cores = self.cores
        wake_heap = self._wake_heap
        runq = self._runq
        pop = heapq.heappop
        push = heapq.heappush
        run_events = engine.run_events
        advance = engine.advance
        prune_at = 100_000
        iterations = 0
        step_calls = 0
        stale_wakes = 0
        empty_iterations = 0
        remaining = sum(1 for c in cores if not c.done)
        for core in cores:
            if core.awake and not core.done:
                push(runq, core.core_id)
        try:
            while True:
                events_ran = run_events()
                now = engine.now
                # Retire timed wakes due this cycle; discard stale entries.
                fired = False
                while wake_heap and wake_heap[0][0] <= now:
                    cycle, cid = pop(wake_heap)
                    core = cores[cid]
                    if core.wake_is_stale(cycle):
                        stale_wakes += 1
                        continue
                    core.fire_due_wakes(now)
                    fired = True
                iterations += 1
                any_work = False
                pumped = False
                if runq:
                    # Snapshot the runnable queue in core-id order.  Pumps
                    # cannot wake other cores synchronously (cross-core
                    # effects are strictly-future events), so entries
                    # pushed while pumping belong to the next pass.
                    batch = []
                    while runq:
                        core = cores[pop(runq)]
                        if core.awake and not core.done:
                            batch.append(core)
                    for core in batch:
                        pumped = True
                        step_calls += 1
                        if core.pump(now):
                            any_work = True
                        else:
                            core.awake = False
                        if core.done:
                            remaining -= 1
                        elif core.awake:
                            push(runq, core.core_id)
                if remaining == 0:
                    break
                if not (events_ran or fired or pumped):
                    empty_iterations += 1
                if now > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(program {self.program.name!r})"
                    )
                if now > prune_at:
                    self.network.prune(now - 10_000)
                    prune_at = now + 100_000
                # Lazily prune stale heads so the idle jump never targets
                # a dead cycle (a wake bound for a finished core used to
                # stall the fast-forward at cycles where nothing happens).
                while wake_heap and cores[wake_heap[0][1]].wake_is_stale(
                    wake_heap[0][0]
                ):
                    pop(wake_heap)
                    stale_wakes += 1
                try:
                    # Idle-jump whenever no core is runnable: an empty
                    # runq means nothing can happen until the next event
                    # or wake even if this pass did work, so jumping is
                    # timing-transparent and the pump never burns a pass
                    # on a cycle with nothing due (``empty_iterations``
                    # stays structurally zero).
                    advance(
                        idle=not runq,
                        wake_bound=wake_heap[0][0] if wake_heap else None,
                        limit=max_cycles,
                    )
                except DeadlockError as exc:
                    reasons = {
                        c.core_id: c.quiescence_reason() for c in cores
                    }
                    raise DeadlockError(
                        f"{exc} — program {self.program.name!r}, "
                        f"cores done: {[c.done for c in cores]}, "
                        f"quiescence: {reasons}"
                    ) from exc
        finally:
            # Every exit path — normal completion, deadlock, budget
            # abort — flushes the loop-local counters so spine_snapshot()
            # stays accurate (the RuntimeError path used to lose them).
            self._iterations += iterations
            self._step_calls += step_calls
            self._stale_wakes += stale_wakes
            self._empty_iterations += empty_iterations

    def _run_always_step(self, max_cycles: int) -> None:
        """Reference scheduler: every core pumps every cycle.

        No runnable queue, no wake heap: it skips time only by the
        engine's idle jump when no core did any work.  It shares
        :meth:`Core.pump` with the event pump, so what the differential
        tests check against it is exactly the sleep/wake scheduling.
        """
        engine = self.engine
        cores = self.cores
        prune_at = 100_000
        iterations = 0
        try:
            while True:
                engine.run_events()
                now = engine.now
                iterations += 1
                any_work = False
                all_done = True
                for core in cores:
                    if core.pump(now):
                        any_work = True
                    if not core.done:
                        all_done = False
                if all_done:
                    break
                if now > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(program {self.program.name!r})"
                    )
                if now > prune_at:
                    self.network.prune(now - 10_000)
                    prune_at = now + 100_000
                try:
                    engine.advance(idle=not any_work, limit=max_cycles)
                except DeadlockError as exc:
                    raise DeadlockError(
                        f"{exc} — program {self.program.name!r}, "
                        f"cores done: {[c.done for c in cores]}"
                    ) from exc
        finally:
            # A budget abort must not lose the counters spine_snapshot()
            # reports.
            self._iterations += iterations
            self._step_calls += iterations * len(cores)


def simulate(
    params: SystemParams,
    program: Program,
    max_cycles: int = 50_000_000,
    sanitize: "bool | object" = False,
    trace: "bool | object" = False,
    quiesce: bool = True,
) -> RunResult:
    """Convenience one-shot: build the system and run the program."""
    sim = MulticoreSimulator(
        params, program, sanitize=sanitize, trace=trace, quiesce=quiesce
    )
    return sim.run(max_cycles=max_cycles)
