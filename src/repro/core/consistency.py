"""Pluggable memory-consistency models: every ordering decision in one seam.

Before this module, TSO was smeared through the core as hard-coded
decisions: the load-queue invalidation snoop in
:meth:`~repro.core.lsq.LoadStoreUnit.on_invalidation`, the FIFO
store-buffer drain in :meth:`~repro.core.lsq.LoadStoreUnit.drain_sb`,
the lazy-atomic wakeup condition in
:meth:`~repro.core.atomic_policy.AtomicPolicyBase.lazy_ready`, the
atomic-commit SB-head rule in ``Core._commit``/``_commit_kernel`` and
the MFENCE retirement predicate in
:meth:`~repro.core.recovery.RecoveryUnit.check_fences`.  This module
collects them behind one protocol so a second model is a class, not a
code audit.

Two models ship:

``TSO``
    The extracted x86 baseline, bit-identical to the golden snapshot:
    loads stay ordered with loads (external invalidations squash
    completed-but-uncommitted loads), the SB drains strictly in FIFO
    order, a lazy atomic waits for the LQ head *and* a fully drained SB.

``RELAXED``
    WMM-style weak ordering (*Taming Weak Memory Models*, Zhang/
    Vijayaraghavan/Arvind): load-load reordering is permitted (no
    invalidation snoop), committed stores may drain past older committed
    stores stuck on write permission (store-store reordering), and a
    lazy atomic only waits for older *same-line* stores.  Same-address
    (same-line, the coherence unit) program order, dependencies and
    fences still restore order; atomics serialize the SB drain.

Model-independent rules deliberately stay in the owning units: the
same-address store->younger-load replay in ``check_violations`` is
per-location coherence (required under every model), and squash/refetch
recovery is microarchitecture, not memory-model, policy.

Every method here is a **pure decision query** — the model reads queue
state and answers; all mutation stays in the calling unit.  The
``consistency-purity`` effect-lint rule proves this statically (each
query and everything it reaches stays ≤ ``reads_sim``), and the
arch-lint module contract pins this file to ``repro.common`` /
``repro.isa`` imports only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.params import ConsistencyKind
from repro.isa.instructions import InstrClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import deque

    from repro.core.dyninstr import DynInstr


class ConsistencyModel:
    """One memory-consistency model's ordering rules (pure queries).

    Mirrors the :class:`~repro.common.params.AtomicMode` pattern: the
    params layer names a model with :class:`ConsistencyKind`, and
    :func:`make_model` / :meth:`from_name` resolve the name to the
    (stateless, shared) rule object the core units delegate to.
    """

    kind: ConsistencyKind

    @property
    def name(self) -> str:
        return self.kind.value

    @classmethod
    def from_name(cls, name: "str | ConsistencyKind") -> "ConsistencyModel":
        """Resolve a model instance by name (``"tso"``), kind, or enum."""
        return make_model(ConsistencyKind.from_name(name))

    # ------------------------------------------------------------------
    # Load-load ordering
    # ------------------------------------------------------------------

    def load_load_ordered(self) -> bool:
        """Must loads appear to execute in program order?

        When true, an external invalidation squashes completed but
        uncommitted loads of that line (the LQ snoop): a younger load
        that read early would otherwise be visibly reordered past an
        older load that reads the post-invalidation value.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Store-buffer drain
    # ------------------------------------------------------------------

    def drain_candidates(
        self, sb: "deque[DynInstr]"
    ) -> "tuple[DynInstr, ...]":
        """Committed SB entries allowed to write memory this cycle, in
        preference order.  The LSQ drains the first candidate that holds
        (or is granted) write permission and requests permission for the
        rest.  Must only be called with a non-empty SB.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Atomic ordering
    # ------------------------------------------------------------------

    def atomic_lazy_ready(
        self,
        dyn: "DynInstr",
        lq: "deque[DynInstr]",
        sb: "deque[DynInstr]",
    ) -> bool:
        """May a parked lazy atomic leave the parking lot and issue?

        **Contract: True only for the load-queue head** (``lq[0] is
        dyn``) — a lazy atomic is by definition the oldest memory
        instruction when it starts.  The policy relies on it: its pump
        asks about the LQ head alone, so an override that answered True
        for any other parked atomic would never see it released.  Both
        shipped models satisfy it, a third must; a hypothesis property
        over every registered model and the sanitizer's
        ``lazy-release-order`` checker enforce it.
        """
        raise NotImplementedError

    def atomic_commit_ready(
        self, dyn: "DynInstr", sb: "deque[DynInstr]"
    ) -> bool:
        """May a completed atomic retire from the ROB?

        Both shipped models keep the x86 rule — the atomic's own
        store_unlock must be the SB head, so everything older already
        wrote.  It lives here (not inline in commit) because it *is* an
        ordering decision: a model making atomics weaker than full
        store-release would override exactly this.
        """
        return bool(sb) and sb[0] is dyn

    # ------------------------------------------------------------------
    # Fences
    # ------------------------------------------------------------------

    def fence_satisfied(
        self, fence: "DynInstr", sb: "deque[DynInstr]"
    ) -> bool:
        """Is the store-buffer leg of an MFENCE satisfied?

        Both shipped models drain every older store before the fence
        retires; combined with the issue-stage barrier park (no younger
        memory op issues under an active fence) this is what lets a
        fence restore order even under ``RELAXED``.
        """
        return not any(entry.seq < fence.seq for entry in sb)


class TSOModel(ConsistencyModel):
    """Total store order: the extracted paper-baseline behaviour."""

    kind = ConsistencyKind.TSO

    def load_load_ordered(self) -> bool:
        return True

    def drain_candidates(
        self, sb: "deque[DynInstr]"
    ) -> "tuple[DynInstr, ...]":
        # FIFO: only the head may write, and only once committed.
        head = sb[0]
        return (head,) if head.committed else ()

    def atomic_lazy_ready(
        self,
        dyn: "DynInstr",
        lq: "deque[DynInstr]",
        sb: "deque[DynInstr]",
    ) -> bool:
        # Oldest memory instruction (LQ head) with the SB drained down
        # to the atomic's own store_unlock.
        return (
            bool(lq)
            and lq[0] is dyn
            and bool(sb)
            and sb[0] is dyn
        )


class RelaxedModel(ConsistencyModel):
    """WMM-style weak ordering: reorder loads and stores, fences restore."""

    kind = ConsistencyKind.RELAXED

    def load_load_ordered(self) -> bool:
        return False

    def drain_candidates(
        self, sb: "deque[DynInstr]"
    ) -> "tuple[DynInstr, ...]":
        # Any committed store may drain past an older committed store
        # stuck on write permission, except: same-line entries keep FIFO
        # order (the line is the coherence unit), and an atomic's
        # store_unlock serializes the drain (atomics stay full
        # store-release barriers under both shipped models).  Commit is
        # in order, so the committed entries form a prefix of the SB.
        out: list[DynInstr] = []
        blocked: set[int] = set()
        at_head = True
        for entry in sb:
            if not entry.committed:
                break
            if entry.cls is InstrClass.ATOMIC:
                if at_head:
                    out.append(entry)
                break
            at_head = False
            line = entry.line
            if line in blocked:
                continue
            blocked.add(line)
            out.append(entry)
        return tuple(out)

    def atomic_lazy_ready(
        self,
        dyn: "DynInstr",
        lq: "deque[DynInstr]",
        sb: "deque[DynInstr]",
    ) -> bool:
        # Still the oldest memory instruction, but only older same-line
        # stores must have drained — the full-drain wait is exactly the
        # store-store order a weak model gives up.
        if not lq or lq[0] is not dyn:
            return False
        for entry in sb:
            if entry is dyn:
                return True
            if entry.line == dyn.line:
                return False
        return False


_MODEL_BY_KIND: dict[ConsistencyKind, ConsistencyModel] = {
    ConsistencyKind.TSO: TSOModel(),
    ConsistencyKind.RELAXED: RelaxedModel(),
}


def make_model(kind: ConsistencyKind) -> ConsistencyModel:
    """Resolve the (stateless, shared) model object for a params kind."""
    try:
        return _MODEL_BY_KIND[kind]
    except KeyError:  # pragma: no cover - enum exhaustiveness
        raise ValueError(f"no consistency model for kind {kind!r}")
