"""Per-core private cache controller (L1D + L2 hierarchy, MSHRs, snoops).

The controller owns the MESI permission for every line cached by its core,
tracks L1D/L2 presence for hit timing, and is where coherence meets cache
locking: external requests (Inv / FwdGetS / FwdGetX) that target a line the
Atomic Queue holds locked are *stalled* in a per-line queue until the atomic
unlocks (Sec. II-B), which is the mechanism that makes eager atomics hold up
other cores on contended lines — the phenomenon RoW exists to manage.

The core installs hooks (``is_locked``, ``on_external_blocked``,
``on_external_observed``, ``on_invalidation``) so the RoW contention
detectors and the TSO load-queue snoop ride along with the protocol events,
matching the paper's "this can be done in parallel with snooping the LQ".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.params import SystemParams
from repro.common.stats import StatGroup
from repro.memory.cache import SetAssocCache
from repro.memory.messages import REQUEST_COUNTER, Message, MsgKind
from repro.memory.prefetcher import IPStridePrefetcher

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventEngine

# Callback signature: (completion_cycle, from_private_cache, latency_cycles)
AccessCallback = Callable[[int, bool, int], None]


@dataclass(slots=True)
class Mshr:
    line: int
    need_excl: bool
    issued_cycle: int
    callbacks: list[AccessCallback] = field(default_factory=list)
    upgrade_waiters: list[AccessCallback] = field(default_factory=list)
    prefetch_only: bool = False


class PrivateCacheController:
    """L1D+L2 private hierarchy of one core, speaking MESI to the directory."""

    def __init__(
        self,
        core_id: int,
        params: SystemParams,
        engine: "EventEngine",
        stats: StatGroup | None = None,
    ) -> None:
        self.core_id = core_id
        self.params = params
        self.engine = engine
        self.stats = stats if stats is not None else StatGroup(f"ctrl{core_id}")
        self.l1d = SetAssocCache(params.l1d, name=f"l1d[{core_id}]")
        self.l2 = SetAssocCache(params.l2, name=f"l2[{core_id}]")
        # MESI permission per line; absent key == Invalid.
        self.state: dict[int, str] = {}
        self.mshrs: dict[int, Mshr] = {}
        self.pending_requests: deque[tuple[int, bool, AccessCallback]] = deque()
        # Evicted-dirty lines awaiting PutM-Ack; they still answer forwards.
        self.wb_buffer: set[int] = set()
        self.stalled_externals: dict[int, deque[Message]] = {}
        self.prefetcher = (
            IPStridePrefetcher(params, self) if params.enable_prefetcher else None
        )
        # Hooks installed by the owning core.
        # ``on_message`` fires before *any* delivered message is dispatched:
        # the core uses it to raise its wake flag, so a sleeping core can
        # never miss a message (the no-missed-wake invariant that makes
        # quiescence scheduling sound; see docs/performance.md).
        self.on_message: Callable[[], None] = lambda: None
        self.is_locked: Callable[[int], bool] = lambda line: False
        self.on_external_blocked: Callable[[int, Message], None] = lambda l, m: None
        self.on_external_observed: Callable[[int, Message], None] = lambda l, m: None
        self.on_invalidation: Callable[[int], None] = lambda line: None
        self.on_amo_resp: Callable[[Message], None] = lambda msg: None
        # Hot-path hoists for access() and _on_data(): hit latencies are
        # immutable params, and the three classification counters and the
        # miss-latency accumulator are bound lazily at the same
        # first-increment point as the uncached code so stat-dict
        # insertion order (serialization identity) is preserved.
        self._l1d_hit_cycles = params.l1d.hit_cycles
        self._l2_hit_cycles = params.l2.hit_cycles
        self._c_l1d_hits = None
        self._c_l2_hits = None
        self._c_l1d_misses = None
        self._a_miss_latency = None

    # ------------------------------------------------------------------
    # CPU-side interface
    # ------------------------------------------------------------------

    def has_permission(self, line: int, excl: bool) -> bool:
        st = self.state.get(line)
        if st is None:
            return False
        return not excl or st in ("E", "M")

    def mark_dirty(self, line: int) -> None:
        """Silent E->M upgrade when the core writes an exclusive-clean line."""
        st = self.state.get(line)
        if st == "E":
            self.state[line] = "M"
        elif st != "M":
            raise RuntimeError(
                f"core {self.core_id}: write to line {line:#x} without ownership"
            )

    def access(
        self,
        line: int,
        excl: bool,
        cb: AccessCallback,
        pc: int | None = None,
        is_prefetch: bool = False,
    ) -> None:
        """Obtain the line with the needed permission; fire ``cb`` when done.

        Hits complete after the L1D/L2 hit latency.  Misses allocate an MSHR
        (or merge into one) and complete when the protocol delivers data.
        """
        now = self.engine.now
        if not is_prefetch and pc is not None and self.prefetcher is not None:
            self.prefetcher.observe(pc, line)
        st = self.state.get(line)
        if st is not None and (not excl or st == "E" or st == "M"):
            # Inlined has_permission; touch() doubles as the presence
            # probe so the hit path indexes each cache level only once.
            if self.l1d.touch(line):
                lat = self._l1d_hit_cycles
                ctr = self._c_l1d_hits
                if ctr is None:
                    ctr = self._c_l1d_hits = self.stats.counter("l1d_hits")
            elif self.l2.touch(line):
                self._install_l1d(line)
                lat = self._l2_hit_cycles
                ctr = self._c_l2_hits
                if ctr is None:
                    ctr = self._c_l2_hits = self.stats.counter("l2_hits")
            else:  # pragma: no cover - presence must track permission
                raise RuntimeError(
                    f"core {self.core_id}: permission without presence "
                    f"for line {line:#x}"
                )
            ctr.value += 1
            self.engine.schedule_in(lat, partial(cb, now + lat, False, lat))
            return
        if is_prefetch and (line in self.mshrs or line in self.wb_buffer):
            return  # drop prefetch; demand stream already covers it
        if line in self.wb_buffer:
            # A PutM for this line is in flight; re-requesting before the
            # ack would confuse ownership at the directory.  Retry shortly.
            self.engine.schedule_in(
                2, lambda: self.access(line, excl, cb, is_prefetch=is_prefetch)
            )
            return
        ctr = self._c_l1d_misses
        if ctr is None:
            ctr = self._c_l1d_misses = self.stats.counter("l1d_misses")
        ctr.value += 1
        mshr = self.mshrs.get(line)
        if mshr is not None:
            if excl and not mshr.need_excl:
                # A GetS is outstanding but we now need ownership: remember
                # the waiter and issue a GetX once the GetS completes.
                mshr.upgrade_waiters.append(cb)
            else:
                mshr.callbacks.append(cb)
                if not is_prefetch:
                    mshr.prefetch_only = False
            return
        if len(self.mshrs) >= self.params.mshr_entries:
            if is_prefetch:
                return  # never queue prefetches
            self.stats.counter("mshr_full").add()
            self.pending_requests.append((line, excl, cb))
            return
        self._allocate_and_request(line, excl, cb, is_prefetch)

    def _allocate_and_request(
        self, line: int, excl: bool, cb: AccessCallback | None, is_prefetch: bool
    ) -> None:
        now = self.engine.now
        mshr = Mshr(line, excl, now, prefetch_only=is_prefetch)
        if cb is not None:
            mshr.callbacks.append(cb)
        self.mshrs[line] = mshr
        kind = MsgKind.GETX if excl else MsgKind.GETS
        bank = self.engine.network.bank_of(line)
        msg = Message(
            kind,
            line,
            src=self.core_id,
            dst=bank,
            requestor=self.core_id,
            issued_cycle=now,
        )
        self.stats.counter(REQUEST_COUNTER[kind]).add()
        self.engine.send(msg, to_directory=True)

    def amo_request(
        self,
        line: int,
        *,
        op,
        operand: int,
        expected: int | None,
        addr: int,
        issued_cycle: int,
    ) -> None:
        """Ship a far atomic to the line's home bank (Sec. "near vs far").

        The RMW executes at the directory/L3 bank; the answer comes back as
        an AMO_RESP and is delivered through the ``on_amo_resp`` hook.  The
        message is built here so the core never touches
        :mod:`repro.memory.messages` directly.
        """
        bank = self.engine.network.bank_of(line)
        msg = Message(
            MsgKind.AMO_REQ,
            line,
            src=self.core_id,
            dst=bank,
            requestor=self.core_id,
            issued_cycle=issued_cycle,
            amo_op=op,
            amo_operand=operand,
            amo_expected=expected,
            amo_addr=addr,
        )
        self.engine.send(msg, to_directory=True)

    # ------------------------------------------------------------------
    # Message handling (network-side)
    # ------------------------------------------------------------------

    def receive(self, msg: Message) -> None:
        self.on_message()
        if msg.kind in (MsgKind.DATA, MsgKind.DATA_E):
            self._on_data(msg)
        elif msg.kind is MsgKind.INV:
            self._on_inv(msg)
        elif msg.kind is MsgKind.FWD_GETS:
            self._on_fwd(msg, exclusive=False)
        elif msg.kind is MsgKind.FWD_GETX:
            self._on_fwd(msg, exclusive=True)
        elif msg.kind is MsgKind.PUTM_ACK:
            self.wb_buffer.discard(msg.line)
        elif msg.kind is MsgKind.AMO_RESP:
            self.on_amo_resp(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"core {self.core_id} cannot handle {msg!r}")

    def _on_data(self, msg: Message) -> None:
        line = msg.line
        mshr = self.mshrs.pop(line, None)
        if mshr is None:  # pragma: no cover - defensive
            raise RuntimeError(
                f"core {self.core_id}: data for line {line:#x} without MSHR"
            )
        if mshr.need_excl:
            self.state[line] = "M"
        elif msg.kind is MsgKind.DATA_E:
            self.state[line] = "E"
        else:
            self.state[line] = "S"
        self._install(line)
        unblock = Message(
            MsgKind.UNBLOCK,
            line,
            src=self.core_id,
            dst=self.engine.network.bank_of(line),
            requestor=self.core_id,
        )
        self.engine.send(unblock, to_directory=True)
        now = self.engine.now
        latency = now - mshr.issued_cycle
        acc = self._a_miss_latency
        if acc is None:
            acc = self._a_miss_latency = self.stats.accumulator("miss_latency")
        acc.add(latency)
        if msg.from_private_cache:
            self.stats.counter("fills_from_private").add()
        for cb in mshr.callbacks:
            cb(now, msg.from_private_cache, latency)
        if mshr.upgrade_waiters:
            waiters = mshr.upgrade_waiters
            if self.has_permission(line, excl=True):
                for cb in waiters:
                    cb(now, msg.from_private_cache, latency)
            else:
                first, rest = waiters[0], waiters[1:]
                self._allocate_and_request(line, True, first, is_prefetch=False)
                for cb in rest:
                    self.mshrs[line].callbacks.append(cb)
        self._drain_pending()

    def _drain_pending(self) -> None:
        while self.pending_requests and len(self.mshrs) < self.params.mshr_entries:
            line, excl, cb = self.pending_requests.popleft()
            # The line may have arrived meanwhile; go through access() again.
            self.access(line, excl, cb)
            if line in self.mshrs and len(self.mshrs) >= self.params.mshr_entries:
                break

    def _on_inv(self, msg: Message) -> None:
        line = msg.line
        if self.is_locked(line):
            self._stall_external(line, msg)
            return
        self.on_external_observed(line, msg)
        if line in self.state:
            del self.state[line]
            self.l1d.remove(line)
            self.l2.remove(line)
            self.on_invalidation(line)
        ack = Message(
            MsgKind.INV_ACK,
            line,
            src=self.core_id,
            dst=msg.src,
            requestor=msg.requestor,
        )
        self.engine.send(ack, to_directory=True)

    def _on_fwd(self, msg: Message, exclusive: bool) -> None:
        line = msg.line
        if self.is_locked(line):
            self._stall_external(line, msg)
            return
        self.on_external_observed(line, msg)
        st = self.state.get(line)
        if st in ("E", "M"):
            if exclusive:
                del self.state[line]
                self.l1d.remove(line)
                self.l2.remove(line)
                self.on_invalidation(line)
            else:
                self.state[line] = "S"
        elif line in self.wb_buffer:
            pass  # eviction raced with the forward; serve from the buffer
        else:  # pragma: no cover - defensive
            raise RuntimeError(
                f"core {self.core_id}: forwarded {msg.kind.value} for "
                f"line {line:#x} it does not own"
            )
        data = Message(
            MsgKind.DATA_E if exclusive else MsgKind.DATA,
            line,
            src=self.core_id,
            dst=msg.requestor,
            requestor=msg.requestor,
            exclusive=exclusive,
            from_private_cache=True,
            issued_cycle=msg.issued_cycle,
        )
        self.stats.counter("cache_to_cache").add()
        self.engine.send(data, to_directory=False)

    def _stall_external(self, line: int, msg: Message) -> None:
        self.stats.counter("externals_stalled").add()
        self.stalled_externals.setdefault(line, deque()).append(msg)
        self.on_external_blocked(line, msg)

    # ------------------------------------------------------------------
    # Cache locking support
    # ------------------------------------------------------------------

    def pin(self, line: int) -> None:
        self.l1d.pin(line)
        self.l2.pin(line)

    def unpin_and_release(self, line: int) -> None:
        """Unpin a line and replay any coherence requests stalled on it."""
        self.l1d.unpin(line)
        self.l2.unpin(line)
        stalled = self.stalled_externals.pop(line, None)
        if not stalled:
            return
        # Replay in arrival order; a replayed message may stall again if a
        # later atomic has re-locked the line by the time it is processed.
        def replay() -> None:
            while stalled:
                self.receive(stalled.popleft())
                if self.is_locked(line):
                    remaining = self.stalled_externals.setdefault(line, deque())
                    while stalled:
                        remaining.append(stalled.popleft())
                    return

        self.engine.schedule_in(1, replay)

    # ------------------------------------------------------------------
    # Presence maintenance
    # ------------------------------------------------------------------

    def _install(self, line: int) -> None:
        victim = self.l2.insert(line)
        if victim is not None:
            self._evict_from_private(victim)
        self._install_l1d(line)

    def _install_l1d(self, line: int) -> None:
        if not self.l1d.can_insert(line):
            return  # every way pinned by locked atomics; serve from L2
        self.l1d.insert(line)
        # L1D victims stay in L2 (inclusive hierarchy): nothing else to do.

    def _evict_from_private(self, line: int) -> None:
        """A line left the private hierarchy entirely (L2 victim)."""
        self.l1d.remove(line)
        st = self.state.pop(line, None)
        if st in ("E", "M"):
            self.wb_buffer.add(line)
            putm = Message(
                MsgKind.PUTM,
                line,
                src=self.core_id,
                dst=self.engine.network.bank_of(line),
                requestor=self.core_id,
            )
            self.stats.counter("writebacks").add()
            self.engine.send(putm, to_directory=True)
