"""Out-of-order core pipeline with unfenced atomics (Free Atomics) and RoW.

The core is trace-driven and cycle-stepped.  Per cycle (oldest stage first
so younger stages observe same-cycle state changes): commit, store-buffer
drain, issue, dispatch, fetch.  Everything with latency (functional units,
cache hits, coherence misses) completes through events on the global
:class:`~repro.sim.engine.EventEngine`.

Since PR 4 the ``Core`` is a thin coordinator over three typed subsystems
(see ``docs/architecture.md`` for the full migration table):

* :class:`~repro.core.lsq.LoadStoreUnit` (``core.lsq``) — LQ/SB, store
  forwarding, SB drain, memory-order violation checks, and the single
  home of line-lock bookkeeping;
* an :class:`~repro.core.atomic_policy.AtomicPolicyBase` subclass
  (``core.policy``) — one per :class:`~repro.common.params.AtomicMode`:
  eager / lazy / RoW / fenced / far / oracle; owns the Atomic Queue,
  contention detection and the unlock accounting;
* :class:`~repro.core.recovery.RecoveryUnit` (``core.recovery``) —
  squash-and-refetch flushes and MFENCE tracking.

The core reaches memory only through the
:class:`~repro.core.ports.MemoryPort` / ``MemoryImagePort`` protocols
(enforced by ``repro lint``); the units call back through
:class:`~repro.core.ports.CoreServices`, which this class implements.
The eager/lazy/RoW/fenced execution policies themselves (Sec. II/III of
the paper) are documented in :mod:`repro.core.atomic_policy`.

Forward progress: eager cache locking admits cross-core lock/drain cycles
(core A holds X locked while an older store waits on Y; core B holds Y
while an older store waits on X).  Like real lock-revocation schemes, an
external request stalled beyond ``lock_revocation_timeout`` on a line locked
by a *not yet committed* atomic squashes and replays that atomic; committed
atomics always unlock promptly because commit already drained the SB.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.params import SystemParams
from repro.common.stats import AtomicLatencyBreakdown, StatGroup
from repro.core.atomic_policy import make_policy
from repro.core.consistency import make_model
from repro.core.dyninstr import DynInstr
from repro.core.lsq import LoadStoreUnit
from repro.core.recovery import RecoveryUnit
from repro.frontend.branch import make_branch_predictor
from repro.isa.instructions import InstrClass, ThreadTrace
from repro.sanitize.errors import ProtocolInvariantError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ports import MemoryImagePort, MemoryPort
    from repro.obs.tracer import Tracer
    from repro.sim.engine import EventEngine


# Table-driven issue select: the event-pump issue kernel dispatches each
# ready instruction on a precomputed small-int action code instead of a
# chain of enum identity tests.  The table is total over InstrClass
# (MFENCE never enters the ready heap, but mapping it keeps the lookup
# total and the KeyError surface empty).
_ISSUE_SIMPLE, _ISSUE_STORE, _ISSUE_LOAD, _ISSUE_ATOMIC = range(4)
_ISSUE_ACTION: dict[InstrClass, int] = {
    InstrClass.ALU: _ISSUE_SIMPLE,
    InstrClass.BRANCH: _ISSUE_SIMPLE,
    InstrClass.NOP: _ISSUE_SIMPLE,
    InstrClass.MFENCE: _ISSUE_SIMPLE,
    InstrClass.STORE: _ISSUE_STORE,
    InstrClass.LOAD: _ISSUE_LOAD,
    InstrClass.ATOMIC: _ISSUE_ATOMIC,
}


class Core:
    """One out-of-order core executing a single thread trace."""

    def __init__(
        self,
        core_id: int,
        params: SystemParams,
        trace: ThreadTrace,
        engine: "EventEngine",
        controller: "MemoryPort",
        image: "MemoryImagePort",
        tracer: "Tracer | None" = None,
    ) -> None:
        self.core_id = core_id
        self.params = params
        self.trace = trace
        self.engine = engine
        self.port = controller
        self.image = image
        self.mode = params.atomic_mode
        self.stats = StatGroup(f"core{core_id}")
        self.breakdown = AtomicLatencyBreakdown()
        # Observer-only hook (repro.obs): emissions are guarded with
        # ``is not None`` so a disabled trace costs one branch per site.
        self.tracer = tracer
        self.branch_pred = make_branch_predictor(params.branch_predictor)

        # Pipeline structures ------------------------------------------------
        self.rob: deque[DynInstr] = deque()
        self.fetch_buffer: deque[DynInstr] = deque()
        self.ready: list[tuple[int, int, DynInstr]] = []
        self.inflight_by_seq: dict[int, DynInstr] = {}
        self.iq_used = 0

        # Fetch state ----------------------------------------------------
        self.next_fetch = 0
        self.fetch_resume_cycle = 0
        self.fetch_blocked_on: DynInstr | None = None
        self._uid = 0

        self.done = False
        self.finish_cycle: int | None = None
        self._event_activity = True

        # Quiescence / sleep-wake state -----------------------------------
        # ``awake`` mirrors membership in the harness's runnable set: the
        # harness clears it when a pump does no work and every wake path
        # funnels through note_activity(), which re-raises it.  A core whose
        # flag is down is guaranteed (and sanitizer-checked) to be woken by
        # any message its controller receives — the no-missed-wake invariant
        # (docs/performance.md).
        self.awake = True
        # Installed by the multicore harness: called once per sleep->awake
        # transition / per scheduled timed wake.  Standalone cores (unit
        # tests) fall back to plain engine events for timed wakes.
        self._wake_sink: "Callable[[Core], None] | None" = None
        self._wake_scheduler: "Callable[[int, Core], None] | None" = None
        # Min-heap of scheduled future self-wake cycles (branch-redirect and
        # flush-refetch resume points); peeked by next_wake_cycle().
        self._pending_wakes: list[int] = []
        # Architecturally committed load/atomic register results, keyed by
        # static seq (replays overwrite).  Litmus tests read these.
        self.load_values: dict[int, int] = {}

        # Subsystem units (built in dependency order, then cross-wired).
        # The consistency model comes first: the LSQ, policy and recovery
        # units all delegate their ordering decisions to it.
        self.consistency = make_model(params.consistency_model)
        self.lsq = LoadStoreUnit(self)
        self.recovery = RecoveryUnit(self)
        self.policy = make_policy(self, self.lsq, self.recovery)
        self.lsq.policy = self.policy
        self.lsq.recovery = self.recovery
        self.recovery.lsq = self.lsq
        self.recovery.policy = self.policy

        # Wire controller hooks straight into the owning units.
        controller.is_locked = self.lsq.is_line_locked
        controller.on_external_blocked = self.policy.on_external_blocked
        controller.on_external_observed = self.policy.on_external_observed
        controller.on_invalidation = self.lsq.on_invalidation
        controller.on_amo_resp = self.policy.on_amo_resp
        # Unconditional wake on *any* delivered message: even messages whose
        # specific hook does not call note_activity (e.g. PUTM_ACK, FWD
        # downgrades) may change what the core can do next cycle, so the
        # controller raises the wake flag before dispatching.  This is what
        # makes the no-missed-wake invariant hold by construction.
        controller.on_message = self.note_activity
        # Lazily-cached bound method for the hot pump() loop.  Built on
        # first use, NOT here: the sanitizer wraps ``lsq.drain_sb`` as an
        # instance attribute after construction, and the cache must capture
        # the wrapped version.
        self._drain_sb: "Callable[[int], bool] | None" = None
        # Lazily-cached Counter objects for the pump kernels.  Created at
        # first increment, not here: stats.counter allocates on first
        # lookup, and counter dict insertion order decides merged-stat
        # serialization (the golden snapshots pin it).
        self._c_committed = None
        self._c_dispatched = None
        self._c_branches_fetched = None
        self._c_branch_mispredicts = None

    # ------------------------------------------------------------------
    # Shared services (the CoreServices surface used by the units)
    # ------------------------------------------------------------------

    def note_activity(self) -> None:
        self._event_activity = True
        if not self.awake:
            self.awake = True
            sink = self._wake_sink
            if sink is not None:
                sink(self)

    # ------------------------------------------------------------------
    # Quiescence surface (sleep/wake scheduling; see docs/performance.md)
    # ------------------------------------------------------------------

    def schedule_wake(self, cycle: int) -> None:
        """Arrange for the core to be re-examined at ``cycle``.

        Used for resume points that are known in advance (branch-redirect
        penalty, flush-refetch penalty) so a sleeping core wakes exactly on
        time.  Under the multicore harness the wake rides a dedicated wake
        heap that also bounds the idle fast-forward; standalone cores fall
        back to a plain engine event.
        """
        heapq.heappush(self._pending_wakes, cycle)
        scheduler = self._wake_scheduler
        if scheduler is not None:
            scheduler(cycle, self)
        else:
            self.engine.schedule(cycle, lambda: self.fire_due_wakes(cycle))

    def fire_due_wakes(self, now: int) -> None:
        """Retire scheduled wakes that are due and mark the core active."""
        pending = self._pending_wakes
        if not pending or pending[0] > now:
            return
        while pending and pending[0] <= now:
            heapq.heappop(pending)
        self.note_activity()

    # The three quiescence queries below are called speculatively — and
    # sometimes repeatedly — by the fast-forward harness, so they must be
    # pure reads.  The `quiescence-purity` effect rule (repro lint)
    # statically verifies everything they reach stays <= READS_SIM.

    def next_wake_cycle(self) -> int | None:
        """Earliest scheduled future self-wake, if any."""
        return self._pending_wakes[0] if self._pending_wakes else None

    def wake_is_stale(self, cycle: int) -> bool:
        """True when a mirrored wake-heap entry at ``cycle`` no longer
        corresponds to a live scheduled wake: the core finished, or every
        pending self-wake at or before ``cycle`` was already retired by an
        earlier :meth:`fire_due_wakes` (wake retirement is ordered, so
        ``pending[0] > cycle`` proves the ``cycle`` entry was consumed).
        Called speculatively by the event pump's lazy heap discard — must
        stay a pure read."""
        if self.done:
            return True
        pending = self._pending_wakes
        return not pending or pending[0] > cycle

    def quiescent(self) -> bool:
        """True when the core is not in the runnable set (it reported no
        possible work and has not been woken since)."""
        return self.done or not self.awake

    def quiescence_reason(self) -> str:
        """Best-effort diagnostic of *why* the core has no work.

        Purely observational (scheduling truth is the ``awake`` flag); used
        to enrich deadlock reports and traces.
        """
        if self.done:
            return "done"
        if self.awake:
            return "runnable"
        bits: list[str] = []
        if self.next_fetch >= len(self.trace):
            bits.append("fetch-drained")
        elif self.fetch_blocked_on is not None:
            bits.append("fetch-blocked-on-branch")
        elif self.engine.now < self.fetch_resume_cycle:
            bits.append("fetch-redirect-pending")
        if self.rob:
            bits.append(f"rob-waiting({len(self.rob)})")
        if self.lsq.sb:
            bits.append(f"sb-waiting({len(self.lsq.sb)})")
        if self.policy.lazy_waiting:
            bits.append("lazy-atomic-parked")
        if self.recovery.fences_active or self.recovery.fence_waiting:
            bits.append("fence-pending")
        return ",".join(bits) if bits else "idle"

    def emit_instr(self, dyn: DynInstr, cycle: int, phase: str) -> None:
        """Record one instruction-lifecycle milestone (tracer is non-None)."""
        self.tracer.instr(
            cycle, self.core_id, dyn.uid, dyn.seq, dyn.pc,
            dyn.cls.name, phase,
        )

    def issue_bookkeeping(self, dyn: DynInstr, now: int) -> None:
        """Common issue-time state changes (flags, IQ slot, trace event)."""
        dyn.issued = True
        dyn.issue_cycle = now
        self.iq_used -= 1
        if self.tracer is not None:
            self.emit_instr(dyn, now, "issue")

    def schedule_complete(self, dyn: DynInstr, delay: int) -> None:
        self.engine.schedule_in(max(1, delay), partial(self.complete, dyn))

    def complete(self, dyn: DynInstr) -> None:
        if dyn.squashed or dyn.completed:
            return
        now = self.engine.now
        dyn.completed = True
        dyn.complete_cycle = now
        # Resolved through the instance so seeded-defect tests (and the
        # sanitizer's wake-funnel instrumentation) can intercept it.
        self.note_activity()
        consumers = dyn.consumers
        if consumers:
            ready = self.ready
            push = heapq.heappush
            for consumer in consumers:
                if consumer.squashed:
                    continue
                consumer.deps_left -= 1
                if consumer.deps_left == 0:
                    consumer.ready_cycle = now
                    if not consumer.issued:
                        push(ready, (consumer.seq, consumer.uid, consumer))
            consumers.clear()
        if dyn.cls is InstrClass.BRANCH:
            self.branch_pred.update(dyn.pc, dyn.static.taken)
            if dyn.mispredicted and self.fetch_blocked_on is dyn:
                self.fetch_blocked_on = None
                self.fetch_resume_cycle = max(
                    self.fetch_resume_cycle, now + self.params.branch_misp_penalty
                )
                # Wake the core when the redirect penalty elapses so the
                # idle-skip never strands a pending refetch.
                self.schedule_wake(self.fetch_resume_cycle)
        waiting = self.lsq.memdep_waiting
        if waiting:
            waiters = waiting.pop(dyn.uid, None)
            if waiters:
                for w in waiters:
                    self.wake(w)

    def wake(self, dyn: DynInstr) -> None:
        if not dyn.squashed and not dyn.issued:
            heapq.heappush(self.ready, (dyn.seq, dyn.uid, dyn))
            self.note_activity()

    # ------------------------------------------------------------------
    # Main loop
    #
    # pump() is the one definition of a core cycle: every stage call is
    # preceded by a pure can-this-stage-possibly-work guard, and the
    # per-stage loops are batched kernels with hoisted bindings and
    # table-driven dispatch.  Both schedulers in sim/multicore.py (the
    # event pump and the reference loop it is tested against) call it;
    # the golden snapshots under tests/golden pin what it computes.
    # ------------------------------------------------------------------

    def pump(self, now: int) -> bool:
        """Advance one cycle through the batched kernels; returns True if
        the core did any work.

        The guards are part of the stage semantics, not just saved calls:
        ``_fetch_kernel`` leaves the redirect-penalty and blocked-on-branch
        checks to its guard.
        """
        if self.done:
            return False
        worked = False
        rob = self.rob
        if rob and rob[0].completed:
            if self._commit_kernel(now):
                worked = True
        lsq = self.lsq
        if lsq.sb:
            drain = self._drain_sb
            if drain is None:
                drain = self._drain_sb = lsq.drain_sb
            if drain(now):
                worked = True
        if self.ready or self.recovery.fences_active or self.policy.lazy_waiting:
            if self._issue_kernel(now):
                worked = True
        if self.fetch_buffer:
            if self._dispatch_kernel(now):
                worked = True
        if (
            self.next_fetch < len(self.trace)
            and now >= self.fetch_resume_cycle
            and self.fetch_blocked_on is None
        ):
            if self._fetch_kernel(now):
                worked = True
        if self._event_activity:
            self._event_activity = False
            worked = True
        if (
            not self.done
            and not rob
            and not lsq.sb
            and not self.fetch_buffer
            and self.next_fetch >= len(self.trace)
        ):
            self.done = True
            self.finish_cycle = now
        return worked

    def _commit_kernel(self, now: int) -> bool:
        """Commit stage: retire up to ``commit_width`` completed
        instructions from the ROB head, in order."""
        rob = self.rob
        budget = self.params.commit_width
        lsq = self.lsq
        sb = lsq.sb
        lq = lsq.lq
        tracer = self.tracer
        inflight_pop = self.inflight_by_seq.pop
        load_values = self.load_values
        rob_popleft = rob.popleft
        ctr = self._c_committed
        atomic = InstrClass.ATOMIC
        load = InstrClass.LOAD
        commit_ready = self.consistency.atomic_commit_ready
        worked = False
        while budget and rob:
            head = rob[0]
            if not head.completed:
                break
            cls = head.cls
            if cls is atomic:
                # The model decides when an atomic may leave the ROB
                # (both shipped models: its own store_unlock at SB head).
                if not commit_ready(head, sb):
                    break
            head.committed = True
            head.commit_cycle = now
            rob_popleft()
            inflight_pop(head.seq, None)
            if cls is load or cls is atomic:
                # LQ-head alignment is a protocol invariant, not an
                # assumption.
                if not lq or lq[0] is not head:
                    raise ProtocolInvariantError(
                        "lq-commit-alignment",
                        f"core {self.core_id} committing seq {head.seq} but "
                        f"it is not at the load-queue head",
                        line=head.line,
                        cycle=now,
                    )
                lq.popleft()
                head.in_lq = False
                load_values[head.seq] = head.value
            if ctr is None:
                ctr = self._c_committed = self.stats.counter("committed")
            ctr.value += 1
            if tracer is not None:
                self.emit_instr(head, now, "commit")
            budget -= 1
            worked = True
        return worked

    def _memory_barrier_seq(self) -> int | None:
        """Oldest active fence / fenced-atomic; younger memory ops stall."""
        barrier = self.recovery.barrier_seq()
        b = self.policy.barrier_seq()
        if b is not None:
            barrier = b if barrier is None else min(barrier, b)
        return barrier

    def _issue_kernel(self, now: int) -> bool:
        """Issue stage: discharge fences, let the policy release parked
        lazy atomics, then table-driven select of up to ``issue_width``
        ready instructions, oldest first."""
        worked = False
        recovery = self.recovery
        if recovery.fences_active and recovery.check_fences(now):
            worked = True
        budget = self.params.issue_width
        policy = self.policy
        if policy.lazy_waiting:
            budget, pumped = policy.pump(now, budget)
            if pumped:
                worked = True
        ready = self.ready
        if not ready:
            return worked
        barrier = self._memory_barrier_seq()
        pop = heapq.heappop
        action_of = _ISSUE_ACTION
        lsq = self.lsq
        tracer = self.tracer
        schedule = self.engine.schedule
        complete = self.complete
        while budget and ready:
            dyn = pop(ready)[2]
            if dyn.squashed or dyn.issued:
                continue
            if (
                barrier is not None
                and dyn.seq > barrier
                and dyn.static.is_memory
            ):
                recovery.park_behind_barrier(dyn)
                continue
            action = action_of[dyn.cls]
            if action == _ISSUE_SIMPLE:
                # Inlined issue_bookkeeping + schedule_complete.
                dyn.issued = True
                dyn.issue_cycle = now
                self.iq_used -= 1
                if tracer is not None:
                    self.emit_instr(dyn, now, "issue")
                lat = dyn.static.exec_latency
                schedule(now + (lat if lat > 1 else 1), partial(complete, dyn))
                budget -= 1
                worked = True
            elif action == _ISSUE_STORE:
                lsq.issue_store(dyn, now)
                budget -= 1
                worked = True
            elif action == _ISSUE_LOAD:
                if lsq.process_load(dyn, now):
                    budget -= 1
                    worked = True
            else:
                if policy.first_issue(dyn, now):
                    budget -= 1
                    worked = True
        return worked

    def _dispatch_kernel(self, now: int) -> bool:
        """Dispatch stage: move up to ``issue_width`` instructions from
        the fetch buffer into the ROB/IQ/LQ/SB/AQ, stopping at the first
        full structure (queue lengths tracked incrementally instead of
        re-measured per instruction)."""
        fetch_buffer = self.fetch_buffer
        p = self.params
        lsq = self.lsq
        policy = self.policy
        recovery = self.recovery
        rob = self.rob
        lq = lsq.lq
        sb = lsq.sb
        storeset = lsq.storeset
        inflight = self.inflight_by_seq
        tracer = self.tracer
        ready = self.ready
        push = heapq.heappush
        buf_popleft = fetch_buffer.popleft
        ctr = self._c_dispatched
        mfence = InstrClass.MFENCE
        atomic = InstrClass.ATOMIC
        load = InstrClass.LOAD
        store = InstrClass.STORE
        rob_cap = p.rob_entries
        iq_cap = p.iq_entries
        lq_cap = p.lq_entries
        sb_cap = p.sb_entries
        aq_cap = p.aq_entries
        rob_len = len(rob)
        lq_len = len(lq)
        sb_len = len(sb)
        aq_len = len(policy.aq)
        iq_used = self.iq_used
        budget = p.issue_width
        worked = False
        while budget and fetch_buffer:
            dyn = fetch_buffer[0]
            cls = dyn.cls
            if rob_len >= rob_cap:
                break
            needs_iq = cls is not mfence
            if needs_iq and iq_used >= iq_cap:
                break
            is_atomic = cls is atomic
            if (cls is load or is_atomic) and lq_len >= lq_cap:
                break
            if (cls is store or is_atomic) and sb_len >= sb_cap:
                break
            if is_atomic and aq_len >= aq_cap:
                break
            buf_popleft()
            dyn.dispatch_cycle = now
            rob.append(dyn)
            rob_len += 1
            inflight[dyn.seq] = dyn
            if ctr is None:
                ctr = self._c_dispatched = self.stats.counter("dispatched")
            ctr.value += 1
            if tracer is not None:
                self.emit_instr(dyn, now, "dispatch")
            # Register dataflow: count unresolved producers.
            n = 0
            for dep_seq in dyn.static.src_deps:
                producer = inflight.get(dep_seq)
                if producer is not None and not producer.completed:
                    producer.consumers.append(dyn)
                    n += 1
            dyn.deps_left = n
            # LQ/SB allocation (the LSQ owns the index upkeep).
            if cls is load or is_atomic:
                lq.append(dyn)
                lq_len += 1
                lsq.index_lq_entry(dyn)
            if cls is store or is_atomic:
                sb.append(dyn)
                sb_len += 1
                lsq.index_sb_entry(dyn)
                if storeset is not None:
                    storeset.store_dispatched(dyn)
            if is_atomic:
                policy.on_dispatch(dyn)
                aq_len += 1
            elif cls is mfence:
                recovery.on_dispatch_fence(dyn, now)
            if needs_iq:
                iq_used += 1
                if n == 0:
                    dyn.ready_cycle = now
                    push(ready, (dyn.seq, dyn.uid, dyn))
            budget -= 1
            worked = True
        self.iq_used = iq_used
        return worked

    def _fetch_kernel(self, now: int) -> bool:
        """Fetch stage: up to ``fetch_width`` instructions into the
        fetch buffer, predicting branches; a mispredict blocks fetch."""
        trace = self.trace
        trace_len = len(trace)
        next_fetch = self.next_fetch
        fetch_buffer = self.fetch_buffer
        buf_append = fetch_buffer.append
        buf_len = len(fetch_buffer)
        predictor = self.branch_pred
        branch = InstrClass.BRANCH
        new_dyn = DynInstr
        uid = self._uid
        budget = self.params.fetch_width
        cap = 2 * budget
        ctr_b = self._c_branches_fetched
        worked = False
        while budget and buf_len < cap and next_fetch < trace_len:
            static = trace[next_fetch]
            dyn = new_dyn(static, uid, now)
            uid += 1
            buf_append(dyn)
            buf_len += 1
            next_fetch += 1
            budget -= 1
            worked = True
            if static.cls is branch:
                dyn.mispredicted = predictor.predict(static.pc) != static.taken
                if ctr_b is None:
                    ctr_b = self._c_branches_fetched = self.stats.counter(
                        "branches_fetched"
                    )
                ctr_b.value += 1
                if dyn.mispredicted:
                    # No wrong-path model: fetch stalls until the branch
                    # resolves and then pays the redirect penalty.
                    self.fetch_blocked_on = dyn
                    ctr_m = self._c_branch_mispredicts
                    if ctr_m is None:
                        ctr_m = self._c_branch_mispredicts = (
                            self.stats.counter("branch_mispredicts")
                        )
                    ctr_m.value += 1
                    break
        self.next_fetch = next_fetch
        self._uid = uid
        return worked
