"""Load-store unit: LQ/SB queues, forwarding, drain, violations, line locks.

Split out of the ``Core`` god-class (PR 4).  The :class:`LoadStoreUnit`
owns everything memory-ordering related that is *not* an atomic-execution
policy decision:

* the load queue (LQ) and store buffer (SB), in program order;
* store-to-load forwarding (:meth:`find_store_match`, the forwarding legs
  of :meth:`process_load`);
* the SB drain state machine (:meth:`drain_sb`), including the atomic
  head hand-off to the policy's :meth:`unlock
  <repro.core.atomic_policy.AtomicPolicyBase.unlock>`;
* memory-order violation checks (:meth:`check_violations`) and the TSO
  load-queue snoop (:meth:`on_invalidation`);
* the StoreSet memory-dependence predictor and the three parking lots for
  loads blocked on unresolved stores, in-flight atomic results, and
  undrained matching stores;
* the **line-lock table**: every mutation of a locked-line count goes
  through :meth:`lock_line` / :meth:`unlock_line` — no other unit touches
  it (this used to be spread over three call sites in the god-class).

The unit talks to memory exclusively through the
:class:`~repro.core.ports.MemoryPort` / :class:`~repro.core.ports.MemoryImagePort`
protocols and calls back into the pipeline through
:class:`~repro.core.ports.CoreServices`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.params import AtomicMode
from repro.core.dyninstr import DynInstr
from repro.core.storeset import StoreSetPredictor
from repro.isa.instructions import InstrClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.atomic_policy import AtomicPolicyBase
    from repro.core.ports import CoreServices
    from repro.core.recovery import RecoveryUnit


class LoadStoreUnit:
    """One core's LQ/SB complex, behind a typed constructor contract."""

    def __init__(self, core: "CoreServices") -> None:
        self.core = core
        params = core.params
        self.params = params
        self.stats = core.stats
        # Ordering decisions delegate to the core's consistency model.
        # ``load_load_ordered`` is a per-model constant, so the snoop
        # gate is cached here instead of queried per invalidation.
        self.model = core.consistency
        self._snoop_on_inv = self.model.load_load_ordered()

        self.lq: deque[DynInstr] = deque()
        self.sb: deque[DynInstr] = deque()
        self.storeset = (
            StoreSetPredictor(
                params.storeset_ssit_entries, params.storeset_lfst_entries
            )
            if params.use_storeset
            else None
        )

        # Parking lots ---------------------------------------------------
        # loads blocked on a StoreSet-predicted older store (by store uid)
        self.storeset_waiting: dict[int, list[DynInstr]] = {}
        # loads blocked on an in-flight atomic's result (by atomic uid)
        self.memdep_waiting: dict[int, list[DynInstr]] = {}
        # atomics blocked until an older matching store drains (by uid)
        self.drain_waiting: dict[int, list[DynInstr]] = {}

        # Line-lock table (cache locking): line -> active lock count.
        self.locked_lines: dict[int, int] = {}

        # Per-address / per-line acceleration indexes.  Buckets hold
        # queue entries in program order (append order) and are compacted
        # lazily at scan time using the ``in_sb``/``in_lq`` residency
        # flags — the queues themselves stay the source of truth.
        # ``_sb_by_addr`` feeds store-to-load forwarding lookups;
        # ``_lq_by_line`` feeds the violation check (filtered further by
        # exact address) and the TSO invalidation snoop.
        self._sb_by_addr: dict[int, list[DynInstr]] = {}
        self._lq_by_line: dict[int, list[DynInstr]] = {}

        # Hot-path counters, bound lazily at the same first-increment
        # point as the uncached code so counter-dict insertion order (and
        # therefore serialized stats) is unchanged.
        self._c_loads_forwarded = None
        self._c_loads_to_memory = None
        self._c_stores_drained = None

        # Wired after construction (units are built in dependency order).
        self.policy: "AtomicPolicyBase | None" = None
        self.recovery: "RecoveryUnit | None" = None

    # ------------------------------------------------------------------
    # Line locking — the single home of lock bookkeeping
    # ------------------------------------------------------------------

    def is_line_locked(self, line: int) -> bool:
        return self.locked_lines.get(line, 0) > 0

    def lock_line(self, line: int) -> None:
        """Take (or stack) a lock on a line and pin it in the caches."""
        self.locked_lines[line] = self.locked_lines.get(line, 0) + 1
        self.core.port.pin(line)

    def unlock_line(self, line: int) -> None:
        """Drop one lock; on the last one, unpin and replay stalled
        external requests."""
        count = self.locked_lines.get(line, 0)
        if count <= 1:
            self.locked_lines.pop(line, None)
            self.core.port.unpin_and_release(line)
        else:
            self.locked_lines[line] = count - 1

    # ------------------------------------------------------------------
    # Dispatch-side bookkeeping
    # ------------------------------------------------------------------

    def index_lq_entry(self, dyn: DynInstr) -> None:
        """Mirror an LQ append into the per-line snoop index."""
        dyn.in_lq = True
        line = dyn.static.line
        bucket = self._lq_by_line.get(line)
        if bucket is None:
            self._lq_by_line[line] = [dyn]
        else:
            bucket.append(dyn)

    def index_sb_entry(self, dyn: DynInstr) -> None:
        """Mirror an SB append into the per-address forwarding index."""
        dyn.in_sb = True
        addr = dyn.static.addr
        bucket = self._sb_by_addr.get(addr)
        if bucket is None:
            self._sb_by_addr[addr] = [dyn]
        else:
            bucket.append(dyn)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def issue_store(self, dyn: DynInstr, now: int) -> None:
        dyn.addr_computed = True
        self.core.issue_bookkeeping(dyn, now)
        self.store_resolved(dyn)
        self.check_violations(dyn, now)
        self.core.schedule_complete(dyn, 1)

    def store_resolved(self, dyn: DynInstr) -> None:
        """A store/atomic resolved its address: train the StoreSet and wake
        loads parked behind the prediction."""
        if self.storeset is not None:
            self.storeset.store_resolved(dyn)
            waiters = self.storeset_waiting.pop(dyn.uid, None)
            if waiters:
                for w in waiters:
                    self.core.wake(w)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def process_load(self, dyn: DynInstr, now: int) -> bool:
        """Returns True if the load consumed an issue slot this cycle."""
        if self.storeset is not None:
            dep = self.storeset.load_dependence(dyn.pc)
            if (
                dep is not None
                and not dep.addr_computed
                and dep.seq < dyn.seq
                and not dep.squashed
            ):
                self.storeset_waiting.setdefault(dep.uid, []).append(dyn)
                self.stats.counter("loads_storeset_blocked").add()
                return False
        dyn.addr_computed = True
        match = self.find_store_match(dyn)
        if match is not None:
            if match.cls is InstrClass.ATOMIC and not match.completed:
                # Memory dependence through an in-flight atomic's result.
                self.memdep_waiting.setdefault(match.uid, []).append(dyn)
                return False
            self.core.issue_bookkeeping(dyn, now)
            dyn.fwd_store_seq = match.seq
            dyn.fwd_store_uid = match.uid
            if match.cls is InstrClass.ATOMIC:
                dyn.value = match.new_mem_value
            else:
                dyn.value = match.static.operand
            ctr = self._c_loads_forwarded
            if ctr is None:
                ctr = self._c_loads_forwarded = self.stats.counter(
                    "loads_forwarded"
                )
            ctr.value += 1
            self.core.schedule_complete(dyn, self.params.store_forward_cycles)
            return True
        self.core.issue_bookkeeping(dyn, now)
        dyn.mem_requested = True
        ctr = self._c_loads_to_memory
        if ctr is None:
            ctr = self._c_loads_to_memory = self.stats.counter(
                "loads_to_memory"
            )
        ctr.value += 1
        self.core.port.access(
            dyn.line,
            excl=False,
            cb=lambda when, priv, lat, d=dyn: self.on_load_data(d, when),
            pc=dyn.pc,
        )
        return True

    def find_store_match(self, load: DynInstr) -> DynInstr | None:
        """Youngest older SB entry with a resolved matching address.

        Served from the per-address index instead of scanning the whole
        SB: the bucket holds exactly the SB's same-address entries in
        program order (stale ones are compacted away here), so the last
        older resolved entry is the youngest — identical to the full
        reverse scan.
        """
        bucket = self._sb_by_addr.get(load.static.addr)
        if bucket is None:
            return None
        seq = load.seq
        match = None
        alive = 0
        n = len(bucket)
        for candidate in bucket:
            if candidate.in_sb:
                bucket[alive] = candidate
                alive += 1
                if (
                    candidate.seq < seq
                    and candidate.addr_computed
                ):
                    match = candidate
        if alive != n:
            if alive:
                del bucket[alive:]
            else:
                del self._sb_by_addr[load.static.addr]
        return match

    def on_load_data(self, dyn: DynInstr, when: int) -> None:
        self.core.note_activity()
        if dyn.squashed:
            return
        dyn.value = self.core.image.read(dyn.addr)
        dyn.value_read_from_memory = True
        self.core.complete(dyn)

    # Loads parked on an in-flight atomic's result (``memdep_waiting``)
    # are released inline by Pipeline.complete(), the only completion
    # funnel — it guards on the table being non-empty before popping.

    # ------------------------------------------------------------------
    # Store buffer drain
    # ------------------------------------------------------------------

    def drain_sb(self, now: int) -> bool:
        """Drain one SB entry if the consistency model and the coherence
        state allow it.  The model picks the candidates (TSO: the
        committed head only; RELAXED: any committed store not blocked by
        an older same-line entry or an atomic); this unit performs the
        writes and the permission traffic."""
        sb = self.sb
        if not sb:
            return False
        policy = self.policy
        assert policy is not None
        port = self.core.port
        worked = False
        for entry in self.model.drain_candidates(sb):
            if entry.cls is InstrClass.ATOMIC:
                if self.core.mode is not AtomicMode.FAR:
                    # The line is locked and owned: the write happens
                    # immediately.  (Far atomics already wrote at the
                    # home bank.)
                    self.core.image.write(entry.addr, entry.new_mem_value)
                policy.unlock(entry, now)
                self._remove_sb_entry(entry)
                self.wake_drain_waiters(entry)
                return True
            # Plain store: needs M permission to write.
            line = entry.line
            if port.has_permission(line, excl=True):
                port.mark_dirty(line)
                self.core.image.write(entry.addr, entry.static.operand)
                self._remove_sb_entry(entry)
                ctr = self._c_stores_drained
                if ctr is None:
                    ctr = self._c_stores_drained = self.stats.counter(
                        "stores_drained"
                    )
                ctr.value += 1
                self.wake_drain_waiters(entry)
                return True
            if not entry.write_requested:
                entry.write_requested = True

                def granted(*_args, d=entry) -> None:
                    # Permission may be stolen again before the write
                    # happens; clearing the flag lets the drain loop
                    # re-request.
                    d.write_requested = False
                    self.core.note_activity()

                port.access(line, excl=True, cb=granted)
                worked = True
        return worked

    def _remove_sb_entry(self, entry: DynInstr) -> None:
        """Retire a drained entry; under relaxed drain it may sit behind
        the head (TSO only ever drains the head)."""
        if self.sb[0] is entry:
            self.sb.popleft()
        else:
            self.sb.remove(entry)
        entry.in_sb = False

    def park_until_drained(self, blocker: DynInstr, atomic: DynInstr) -> None:
        """An atomic must wait for an older matching store/atomic to drain
        before reading its value from memory."""
        self.drain_waiting.setdefault(blocker.uid, []).append(atomic)

    def wake_drain_waiters(self, drained: DynInstr) -> None:
        waiters = self.drain_waiting.pop(drained.uid, None)
        if waiters:
            policy = self.policy
            assert policy is not None
            for atomic in waiters:
                policy.try_compute(atomic)

    # ------------------------------------------------------------------
    # Memory-order violations and the TSO LQ snoop
    # ------------------------------------------------------------------

    def check_violations(self, store_dyn: DynInstr, now: int) -> None:
        """A store/atomic resolved its address: squash younger loads that
        consumed (or will consume) a stale memory value (store-set miss).

        Deliberately model-independent: same-address program order is
        per-location coherence, which every consistency model (including
        RELAXED) preserves — see ``repro.core.consistency``."""
        addr = store_dyn.static.addr
        victim = None
        # Same address implies same line, so the per-line bucket covers
        # every same-address LQ entry, in program order; the first stale
        # one is the same victim the full in-order LQ walk would find.
        bucket = self._lq_by_line.get(store_dyn.static.line)
        if bucket is None:
            return
        alive = 0
        n = len(bucket)
        for load in bucket:
            if not load.in_lq:
                continue
            bucket[alive] = load
            alive += 1
            if victim is not None:
                continue
            if load.seq <= store_dyn.seq or load.squashed or load.committed:
                continue
            if load.static.addr != addr:
                continue
            if load.cls is InstrClass.ATOMIC:
                # A younger atomic that already performed its read against
                # memory jumped this older same-address write: replay it.
                stale = load.compute_pending and (
                    load.fwd_store_seq is None
                    or load.fwd_store_seq < store_dyn.seq
                )
            elif not load.issued:
                continue
            else:
                stale = (
                    (load.mem_requested and load.fwd_store_uid is None)
                    or (
                        load.fwd_store_seq is not None
                        and load.fwd_store_seq < store_dyn.seq
                    )
                )
            if stale:
                victim = load
        if alive != n:
            if alive:
                del bucket[alive:]
            else:
                del self._lq_by_line[store_dyn.static.line]
        if victim is None:
            return
        self.stats.counter("order_violations").add()
        if self.storeset is not None:
            self.storeset.train_violation(victim.pc, store_dyn.pc)
        recovery = self.recovery
        assert recovery is not None
        recovery.flush_from(
            victim, now, penalty=self.params.order_violation_flush_penalty
        )

    def on_invalidation(self, line: int) -> None:
        """LQ snoop on an external invalidation: squash completed but
        uncommitted loads that read the invalidated line from memory.

        This walk is what makes loads *appear* in-order — so it runs only
        when the consistency model orders loads with loads (TSO).  Under
        RELAXED the early read simply stands: that is the permitted
        load-load reordering."""
        self.core.note_activity()
        if not self._snoop_on_inv:
            return
        victim = None
        bucket = self._lq_by_line.get(line)
        if bucket is None:
            return
        alive = 0
        n = len(bucket)
        for load in bucket:
            if not load.in_lq:
                continue
            bucket[alive] = load
            alive += 1
            if victim is not None:
                continue
            if load.cls is InstrClass.ATOMIC or load.squashed or load.committed:
                continue
            if load.value_read_from_memory and load.fwd_store_uid is None:
                victim = load
        if alive != n:
            if alive:
                del bucket[alive:]
            else:
                del self._lq_by_line[line]
        if victim is not None:
            self.stats.counter("inv_squashes").add()
            recovery = self.recovery
            assert recovery is not None
            recovery.flush_from(
                victim,
                self.core.engine.now,
                penalty=self.params.order_violation_flush_penalty,
            )

    # ------------------------------------------------------------------
    # Flush support (driven by the recovery unit)
    # ------------------------------------------------------------------

    def note_squashed(self, dyn: DynInstr) -> None:
        """Per-instruction squash bookkeeping for stores/atomics."""
        if self.storeset is not None and dyn.cls in (
            InstrClass.STORE,
            InstrClass.ATOMIC,
        ):
            self.storeset.store_squashed(dyn)

    def drop_squashed_tails(self) -> None:
        """LQ/SB are in program order: squashed entries form the tails."""
        while self.lq and self.lq[-1].squashed:
            self.lq.pop().in_lq = False
        while self.sb and self.sb[-1].squashed:
            self.sb.pop().in_sb = False

    def prune_squashed_waiters(self) -> None:
        """Drop parking-lot entries whose waiters all squashed (blockers of
        parked items are always older, so parked items squash together with
        their blockers)."""
        for table in (self.storeset_waiting, self.memdep_waiting, self.drain_waiting):
            stale = [uid for uid, lst in table.items() if all(w.squashed for w in lst)]
            for uid in stale:
                del table[uid]
