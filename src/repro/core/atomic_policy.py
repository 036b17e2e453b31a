"""Pluggable atomic-execution policies (Sec. II/III/IV of the paper).

The policy layer owns *when an atomic RMW is allowed to start executing*
and everything downstream of that decision: the Atomic Queue, the lazy
parking lot, contention detection, lock acquisition/release and the
unlock-time accounting.  Each :class:`~repro.common.params.AtomicMode`
maps to one concrete policy class:

======  ======================  =============================================
mode    class                   decision at dispatch
======  ======================  =============================================
eager   :class:`EagerPolicy`    always eager (issue when operands ready)
lazy    :class:`LazyPolicy`     always lazy (LQ head + SB drained)
row     :class:`RowPolicy`      per-PC contention predictor, with the
                                only-calculate-address pass and optional
                                forwarding promotion
fenced  :class:`FencedPolicy`   lazy, plus full serialization of younger
                                memory ops until the unlock (legacy x86)
far     :class:`FarPolicy`      lazy condition, then ship the RMW to the
                                line's home bank (no line transfer)
oracle  :class:`OraclePolicy`   profile-guided: lazy iff the PC is in
                                ``RowParams.oracle_contended_pcs`` (an
                                upper bound for the RoW predictor)
======  ======================  =============================================

Policies touch memory only through :class:`~repro.core.ports.MemoryPort`
and keep all line-lock bookkeeping inside the
:class:`~repro.core.lsq.LoadStoreUnit` (``lock_line`` / ``unlock_line``),
so the lock table has exactly one home.  Releasing a parked lazy atomic
costs one :meth:`ConsistencyModel.atomic_lazy_ready
<repro.core.consistency.ConsistencyModel.atomic_lazy_ready>` query per
core pump — about the load-queue head only, which that predicate's
contract makes sufficient — and ``lazy_waiting`` is an unordered parking
lot (atomics park in issue order, not program order).  ``truth_by_pc``
accumulates the simulator-omniscient per-PC contention ground truth every
policy observes at unlock; :mod:`repro.analysis.ablations` reads it to
build the oracle PC set for two-pass experiments.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.params import AtomicMode, SystemParams
from repro.core.dyninstr import AQEntry, DynInstr
from repro.isa.instructions import InstrClass, apply_atomic
from repro.row.detection import ContentionDetector, oracle_contended, stamp
from repro.row.mechanism import RowMechanism
from repro.sanitize.errors import ProtocolInvariantError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lsq import LoadStoreUnit
    from repro.core.ports import AmoResponse, CoreServices
    from repro.core.recovery import RecoveryUnit

_UNSET = -1


class AtomicPolicyBase:
    """Shared machinery of every atomic-execution policy.

    Subclasses specialize three points: the dispatch-time eager/lazy
    decision (:meth:`on_dispatch`), the request transport
    (:meth:`_send_request`, overridden by far atomics), and the
    unlock-time hook (:meth:`_after_truth`, used for predictor training
    and fence release).
    """

    #: The AtomicMode this class implements (set by subclasses).
    mode: AtomicMode

    def __init__(
        self,
        core: "CoreServices",
        lsq: "LoadStoreUnit",
        recovery: "RecoveryUnit",
    ) -> None:
        self.core = core
        self.lsq = lsq
        self.recovery = recovery
        params: SystemParams = core.params
        self.params = params
        self.stats = core.stats

        self.aq: deque[AQEntry] = deque()
        self.lazy_waiting: list[DynInstr] = []
        self.detector = ContentionDetector(params.row)
        # Ground-truth contention threshold tracks the (possibly scaled)
        # Dir-detector threshold of the configuration.
        self._truth_threshold = (
            params.row.latency_threshold
            if params.row.latency_threshold is not None
            else 400
        )
        #: Per-PC OR of unlock-time ground truth (observer state: read by
        #: the analysis layer to derive oracle PC sets; never fed back).
        self.truth_by_pc: dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def on_dispatch(self, dyn: DynInstr) -> None:
        entry = AQEntry(dyn)
        dyn.aq_entry = entry
        self.aq.append(entry)
        dyn.exec_eager = self._decide_eager(dyn)
        entry.only_calc_addr = (
            not dyn.exec_eager and self.detector.tracks_ready_window
            and self._runs_addr_pass()
        )
        self.stats.counter("atomics_dispatched").add()

    def _decide_eager(self, dyn: DynInstr) -> bool:
        raise NotImplementedError

    def _runs_addr_pass(self) -> bool:
        """Only RoW performs the only-calculate-address pass."""
        return False

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def first_issue(self, dyn: DynInstr, now: int) -> bool:
        """First trip through the issue stage for an atomic.  Returns True
        if it consumed an issue slot this cycle."""
        if dyn.exec_eager:
            self.issue_full(dyn, now)
            return True
        entry = dyn.aq_entry
        assert entry is not None
        if entry.only_calc_addr and not dyn.addr_pass_done:
            self._addr_pass(dyn, now)
            return True
        # Plain lazy (or EW-mode RoW): park until oldest-memory + SB-drained.
        dyn.addr_pass_done = True
        self.lazy_waiting.append(dyn)
        # Parking counts as activity: the lazy pump must re-examine the
        # atomic next cycle even if nothing else is in flight (otherwise a
        # single parked atomic with an empty event queue deadlocks the run).
        self.core.note_activity()
        return False

    def _addr_pass(self, dyn: DynInstr, now: int) -> None:
        """Only-calculate-address pass (Sec. IV-B) — RoW only; the base
        never sets ``only_calc_addr``."""
        raise NotImplementedError

    def pump(self, now: int, budget: int) -> tuple[int, bool]:
        """Release the load-queue head if it is a parked lazy atomic whose
        turn arrived: one :meth:`lazy_ready` query per pump, however many
        atomics are parked.  Returns the remaining budget and whether
        work happened.

        Sound because ``atomic_lazy_ready`` is True only for the LQ head
        (the :class:`~repro.core.consistency.ConsistencyModel` contract),
        so no other parked atomic can be ready and ``lazy_waiting`` needs
        no order.  The sanitizer's ``lazy-release-order`` checker still
        walks the whole lot to catch a model that breaks the contract.
        """
        if not (budget and self.lazy_waiting):
            return budget, False
        # A parked atomic holds an LQ entry, so the LQ is not empty.
        # Parked == went through first_issue (both parking paths set
        # addr_pass_done) and has not been through issue_full since.
        head = self.lsq.lq[0]
        if not head.addr_pass_done or head.issued or not self.lazy_ready(head):
            return budget, False
        self.lazy_waiting.remove(head)
        self.issue_full(head, now)
        return budget - 1, True

    def lazy_ready(self, dyn: DynInstr) -> bool:
        """Is the parked lazy atomic's turn up?  The consistency model
        decides (TSO: LQ head with the SB drained down to the atomic's
        own store_unlock; RELAXED: only older same-line stores)."""
        lsq = self.lsq
        return self.core.consistency.atomic_lazy_ready(dyn, lsq.lq, lsq.sb)

    def issue_full(self, dyn: DynInstr, now: int) -> None:
        entry = dyn.aq_entry
        assert entry is not None
        dyn.issued = True
        dyn.issue_cycle = now
        if dyn.first_issue_cycle == _UNSET:
            dyn.first_issue_cycle = now
        self.core.iq_used -= 1
        entry.line = dyn.line
        entry.only_calc_addr = False
        entry.request_issued_stamp = stamp(now, self.params.row.timestamp_bits)
        dyn.addr_computed = True
        self.stats.counter("atomics_issued").add()
        if self.core.tracer is not None:
            self.core.emit_instr(dyn, now, "issue")
        if dyn.exec_eager:
            self.stats.counter("atomics_issued_eager").add()
            self.stats.histogram("older_unexecuted_at_eager_issue").add(
                self._count_older_unexecuted(dyn)
            )
        else:
            self.stats.counter("atomics_issued_lazy").add()
            self.stats.histogram("younger_started_at_lazy_issue").add(
                self._count_younger_started(dyn)
            )
        self.lsq.store_resolved(dyn)
        self.lsq.check_violations(dyn, now)
        self._send_request(dyn, now)

    def _send_request(self, dyn: DynInstr, now: int) -> None:
        """Near atomics: fetch the line with ownership, then lock it."""
        self.core.port.access(
            dyn.line,
            excl=True,
            cb=lambda when, priv, lat, d=dyn: self.on_atomic_data(d, when, priv),
            pc=dyn.pc,
        )

    def _count_older_unexecuted(self, dyn: DynInstr) -> int:
        n = 0
        for other in self.core.rob:
            if other is dyn:
                break
            if not other.completed:
                n += 1
        return n

    def _count_younger_started(self, dyn: DynInstr) -> int:
        n = 0
        seen = False
        for other in self.core.rob:
            if other is dyn:
                seen = True
                continue
            if seen and other.issued:
                n += 1
        return n

    # ------------------------------------------------------------------
    # Execution (data arrival -> compute -> unlock)
    # ------------------------------------------------------------------

    def on_atomic_data(self, dyn: DynInstr, when: int, from_private: bool) -> None:
        self.core.note_activity()
        if dyn.squashed:
            return
        if not self.core.port.has_permission(dyn.line, excl=True):
            # The line was stolen during the hit-latency window between the
            # permission check and the lock taking effect; re-request it.
            self.stats.counter("atomic_lock_retries").add()
            self.core.port.access(
                dyn.line,
                excl=True,
                cb=lambda w, priv, lat, d=dyn: self.on_atomic_data(d, w, priv),
                pc=dyn.pc,
            )
            return
        entry = dyn.aq_entry
        assert entry is not None
        entry.locked = True
        dyn.lock_cycle = when
        self.lsq.lock_line(dyn.line)
        self.detector.on_data_arrival(entry, when, from_private)
        self.try_compute(dyn)

    def try_compute(self, dyn: DynInstr) -> None:
        """Perform the modify once the line is locked and the value source
        (memory image or a forwarded older store) is unambiguous."""
        if dyn.squashed or dyn.completed or dyn.compute_pending:
            return
        match = self.lsq.find_store_match(dyn)
        fwd_value: int | None = None
        if match is not None:
            can_forward = (
                self.params.row.forward_to_atomics
                and match.cls is InstrClass.STORE
                and match.issued
            )
            if can_forward:
                fwd_value = match.static.operand
                dyn.fwd_store_uid = match.uid
                dyn.fwd_store_seq = match.seq
                self.stats.counter("atomics_forwarded").add()
            else:
                # Wait for the older matching store/atomic to drain.
                self.lsq.park_until_drained(match, dyn)
                return
        static = dyn.static
        old = fwd_value if fwd_value is not None else self.core.image.read(dyn.addr)
        assert static.atomic_op is not None
        new, loaded = apply_atomic(
            static.atomic_op, old, static.operand, static.cas_expected
        )
        dyn.value = loaded
        dyn.new_mem_value = new
        dyn.compute_pending = True
        self.core.schedule_complete(dyn, self.params.alu_latency)

    def unlock(self, dyn: DynInstr, now: int) -> None:
        """Retire the atomic from the AQ at SB drain time: release the
        line, collect ground truth, train/release per policy, account."""
        entry = dyn.aq_entry
        if entry is None or not self.aq or self.aq[0] is not entry:
            raise ProtocolInvariantError(
                "aq-sb-alignment",
                f"core {self.core.core_id} unlocking seq {dyn.seq} but its AQ "
                f"entry is not at the Atomic Queue head",
                line=dyn.line,
                cycle=now,
            )
        self.aq.popleft()
        dyn.unlock_cycle = now
        if entry.locked:  # far atomics never lock a line
            entry.locked = False
            self.lsq.unlock_line(dyn.line)
        entry.contended_truth = oracle_contended(entry, self._truth_threshold)
        pc = dyn.pc
        self.truth_by_pc[pc] = self.truth_by_pc.get(pc, False) or entry.contended_truth
        self._after_truth(entry, dyn)
        # Stats (Fig. 5, Fig. 6).
        self.stats.counter("atomics_committed").add()
        if entry.contended_truth:
            self.stats.counter("atomics_contended_truth").add()
        if entry.contended:
            self.stats.counter("atomics_contended_detected").add()
        self.core.breakdown.record(
            dyn.dispatch_cycle, dyn.issue_cycle, dyn.lock_cycle, now
        )
        if self.core.tracer is not None:
            self.core.tracer.atomic_span(
                now, self.core.core_id, dyn.pc, dyn.line,
                dyn.dispatch_cycle, dyn.issue_cycle, dyn.lock_cycle,
                dyn.exec_eager, dyn.predicted_contended,
                entry.contended, entry.contended_truth,
            )

    def _after_truth(self, entry: AQEntry, dyn: DynInstr) -> None:
        """Unlock-time hook between ground-truth capture and accounting."""

    def barrier_seq(self) -> int | None:
        """Policy-imposed memory barrier (fenced atomics); None otherwise."""
        return None

    # ------------------------------------------------------------------
    # External-request hooks (contention detection + lock revocation)
    # ------------------------------------------------------------------

    def _mark_external(self, line: int) -> None:
        for entry in self.aq:
            if entry.line == line:
                entry.external_seen = True
                self.detector.on_external_request(entry, line)

    def on_external_blocked(self, line: int, msg) -> None:
        self.core.note_activity()
        self._mark_external(line)
        self.stats.counter("externals_blocked_on_lock").add()
        self.core.engine.schedule_in(
            self.params.lock_revocation_timeout,
            lambda: self.maybe_revoke(line, msg),
        )

    def on_external_observed(self, line: int, msg) -> None:
        self._mark_external(line)

    def maybe_revoke(self, line: int, msg) -> None:
        stalled = self.core.port.stalled_externals.get(line)
        if not stalled or msg not in stalled:
            return  # the message was already replayed; no deadlock
        for entry in self.aq:
            if (
                entry.locked
                and entry.line == line
                and not entry.dyn.committed
                and not entry.dyn.squashed
            ):
                self.stats.counter("lock_revocations").add()
                self.recovery.flush_from(
                    entry.dyn,
                    self.core.engine.now,
                    penalty=self.params.order_violation_flush_penalty,
                )
                return

    def on_amo_resp(self, msg: "AmoResponse") -> None:
        raise RuntimeError(  # pragma: no cover - far-only channel
            f"core {self.core.core_id}: AMO response under "
            f"{self.mode.value} policy"
        )

    # ------------------------------------------------------------------
    # Flush support (driven by the recovery unit)
    # ------------------------------------------------------------------

    def drop_squashed(self) -> None:
        """Pop squashed AQ tail entries (the AQ is in program order),
        releasing any locks they hold, and empty the parking lots."""
        while self.aq and self.aq[-1].dyn.squashed:
            entry = self.aq.pop()
            if entry.locked:
                entry.locked = False
                self.lsq.unlock_line(entry.dyn.line)
        self.lazy_waiting = [d for d in self.lazy_waiting if not d.squashed]


class EagerPolicy(AtomicPolicyBase):
    """Issue as soon as operands are ready; lock from data to unlock."""

    mode = AtomicMode.EAGER

    def _decide_eager(self, dyn: DynInstr) -> bool:
        return True


class LazyPolicy(AtomicPolicyBase):
    """Wait until the atomic is the oldest memory instruction (LQ head)
    with the SB drained; younger instructions still execute around it."""

    mode = AtomicMode.LAZY

    def _decide_eager(self, dyn: DynInstr) -> bool:
        return False


class FencedPolicy(AtomicPolicyBase):
    """Legacy implementation: lazy issue plus full serialization of
    younger memory operations until the atomic unlocks (the "old x86
    processor" behaviour of Fig. 2)."""

    mode = AtomicMode.FENCED

    def __init__(self, core, lsq, recovery) -> None:
        super().__init__(core, lsq, recovery)
        self.fenced_atomics: list[DynInstr] = []

    def _decide_eager(self, dyn: DynInstr) -> bool:
        self.fenced_atomics.append(dyn)
        return False

    def barrier_seq(self) -> int | None:
        if self.fenced_atomics:
            return self.fenced_atomics[0].seq
        return None

    def _after_truth(self, entry: AQEntry, dyn: DynInstr) -> None:
        if dyn in self.fenced_atomics:
            self.fenced_atomics.remove(dyn)
            self.recovery.release_fence_waiters()

    def drop_squashed(self) -> None:
        super().drop_squashed()
        self.fenced_atomics = [d for d in self.fenced_atomics if not d.squashed]


class RowPolicy(AtomicPolicyBase):
    """Rush-or-Wait: per-atomic eager/lazy choice by the contention
    predictor, the only-calculate-address pass feeding the ready-window
    detector, and store-forwarding promotion (Sec. IV)."""

    mode = AtomicMode.ROW

    def __init__(self, core, lsq, recovery) -> None:
        super().__init__(core, lsq, recovery)
        self.row_mech = RowMechanism(
            self.params.row, self.stats,
            tracer=core.tracer, core_id=core.core_id,
        )

    def _decide_eager(self, dyn: DynInstr) -> bool:
        eager = self.row_mech.decide_eager(dyn.pc, cycle=dyn.dispatch_cycle)
        dyn.predicted_contended = not eager
        return eager

    def _runs_addr_pass(self) -> bool:
        return True

    def _addr_pass(self, dyn: DynInstr, now: int) -> None:
        """Only-calculate-address pass (Sec. IV-B): compute and record the
        address in the AQ so the ready window can match external requests;
        optionally promote to eager on a forwarding match (Sec. IV-E)."""
        entry = dyn.aq_entry
        assert entry is not None
        dyn.addr_pass_done = True
        dyn.first_issue_cycle = now
        entry.line = dyn.line
        # The computed address also lands in the SB entry (like a regular
        # store's address resolution): younger loads/atomics can now see the
        # pending store_unlock, and anything that already jumped it replays.
        dyn.addr_computed = True
        self.lsq.check_violations(dyn, now)
        self.stats.counter("atomic_addr_passes").add()
        if self.params.row.forward_to_atomics:
            match = self.lsq.find_store_match(dyn)
            store_match = match is not None and match.cls is InstrClass.STORE
            if self.row_mech.try_promote_for_forwarding(entry, store_match):
                dyn.exec_eager = True
                dyn.promoted_by_forwarding = True
                self.stats.counter("atomics_promoted_eager").add()
                self.issue_full(dyn, now)
                return
        self.lazy_waiting.append(dyn)

    def _after_truth(self, entry: AQEntry, dyn: DynInstr) -> None:
        self.row_mech.train(entry)


class FarPolicy(AtomicPolicyBase):
    """Far atomics: the RMW executes at the line's home L3/directory bank
    with no line transfer.  Issues under the lazy condition (a drained SB
    keeps the remote RMW ordered after every older store under TSO), which
    serializes them per core — at most one is in flight."""

    mode = AtomicMode.FAR

    def __init__(self, core, lsq, recovery) -> None:
        super().__init__(core, lsq, recovery)
        self._far_pending: DynInstr | None = None

    def _decide_eager(self, dyn: DynInstr) -> bool:
        return False

    def _send_request(self, dyn: DynInstr, now: int) -> None:
        """Ship the RMW to the line's home bank (far-atomics extension)."""
        assert self._far_pending is None, "far atomics are serialized per core"
        self._far_pending = dyn
        static = dyn.static
        self.stats.counter("atomics_far_issued").add()
        self.core.port.amo_request(
            dyn.line,
            op=static.atomic_op,
            operand=static.operand,
            expected=static.cas_expected,
            addr=static.addr,
            issued_cycle=now,
        )

    def on_amo_resp(self, msg: "AmoResponse") -> None:
        self.core.note_activity()
        dyn = self._far_pending
        self._far_pending = None
        if dyn is None or dyn.squashed:  # pragma: no cover - see issue rule
            raise RuntimeError(
                f"core {self.core.core_id}: AMO response without a pending far"
                " atomic (a squashed far atomic would double-execute)"
            )
        now = self.core.engine.now
        dyn.value = msg.amo_old
        dyn.new_mem_value = msg.amo_new
        dyn.lock_cycle = now  # the remote execution point (stats only)
        self.core.complete(dyn)


class OraclePolicy(AtomicPolicyBase):
    """Profile-guided static policy: an atomic is lazy iff its PC is in
    ``RowParams.oracle_contended_pcs`` (collected from a prior run's
    ``truth_by_pc``).  With an empty set it degenerates to all-eager.
    This is the upper bound the RoW predictor approximates."""

    mode = AtomicMode.ORACLE

    def __init__(self, core, lsq, recovery) -> None:
        super().__init__(core, lsq, recovery)
        self._contended_pcs = frozenset(self.params.row.oracle_contended_pcs)

    def _decide_eager(self, dyn: DynInstr) -> bool:
        contended = dyn.pc in self._contended_pcs
        dyn.predicted_contended = contended
        return not contended


_POLICY_BY_MODE: dict[AtomicMode, type[AtomicPolicyBase]] = {
    AtomicMode.EAGER: EagerPolicy,
    AtomicMode.LAZY: LazyPolicy,
    AtomicMode.ROW: RowPolicy,
    AtomicMode.FENCED: FencedPolicy,
    AtomicMode.FAR: FarPolicy,
    AtomicMode.ORACLE: OraclePolicy,
}


def make_policy(
    core: "CoreServices",
    lsq: "LoadStoreUnit",
    recovery: "RecoveryUnit",
) -> AtomicPolicyBase:
    """Instantiate the policy for ``core.params.atomic_mode``."""
    mode = core.params.atomic_mode
    try:
        cls = _POLICY_BY_MODE[mode]
    except KeyError:  # pragma: no cover - enum exhaustiveness
        raise ValueError(f"no atomic-execution policy for mode {mode!r}")
    return cls(core, lsq, recovery)
