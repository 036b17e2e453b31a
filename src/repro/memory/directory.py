"""MESI directory protocol with GEMS-style blocked transient states.

One :class:`DirectoryBank` lives at every mesh tile next to its L3 bank.
A transaction blocks the directory entry from the moment a request is
accepted until the requestor's Unblock arrives; requests that hit a blocked
entry queue in FIFO order.  This is precisely the mechanism behind Fig. 8 of
the paper: a second core's request for a line being handed to a first core
waits in the blocked queue, so the invalidation it eventually triggers can
reach the first core *after* that core's atomic has already unlocked — which
is why execution-window/ready-window contention detection alone is
insufficient and the latency-threshold (Dir) detector exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.params import SystemParams
from repro.common.stats import StatGroup
from repro.isa.instructions import apply_atomic
from repro.memory.cache import SetAssocCache
from repro.memory.messages import REQUEST_COUNTER, Message, MsgKind
from repro.sanitize.errors import ProtocolInvariantError

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.image import MemoryImage
    from repro.obs.tracer import Tracer
    from repro.sim.engine import EventEngine


@dataclass(slots=True)
class DirEntry:
    """Directory state for one cacheline."""

    state: str = "I"  # I, S, M (E merged into M), B (blocked)
    owner: int | None = None
    sharers: set[int] = field(default_factory=set)
    queue: deque[Message] = field(default_factory=deque)
    # Transaction-in-progress bookkeeping (valid while state == "B"):
    on_unblock: Callable[[], None] | None = None
    pending_acks: int = 0
    on_acks_done: Callable[[], None] | None = None


class DirectoryBank:
    """Directory + L3 bank for the lines homed at one mesh tile."""

    def __init__(
        self,
        node: int,
        params: SystemParams,
        engine: "EventEngine",
        stats: StatGroup | None = None,
        image: "MemoryImage | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.node = node
        self.params = params
        self.engine = engine
        self.stats = stats if stats is not None else StatGroup(f"dir{node}")
        self.l3 = SetAssocCache(params.l3_bank, name=f"l3[{node}]")
        self.entries: dict[int, DirEntry] = {}
        # Far atomics (extension) execute against the memory image here.
        self.image = image
        # Observer-only hook (repro.obs): every stable/blocked state edge
        # goes through _set_state so the trace sees each transition once.
        self.tracer = tracer

    # ------------------------------------------------------------------

    def entry(self, line: int) -> DirEntry:
        e = self.entries.get(line)
        if e is None:
            e = self.entries[line] = DirEntry()
        return e

    def _set_state(self, e: DirEntry, line: int, new: str) -> None:
        if self.tracer is not None and e.state != new:
            self.tracer.dir_transition(self.engine.now, self.node, line, e.state, new)
        e.state = new

    def receive(self, msg: Message) -> None:
        """Entry point for all messages addressed to this bank."""
        if msg.kind in (MsgKind.GETS, MsgKind.GETX, MsgKind.AMO_REQ):
            self._handle_request(msg)
        elif msg.kind is MsgKind.PUTM:
            self._handle_putm(msg)
        elif msg.kind is MsgKind.UNBLOCK:
            self._handle_unblock(msg)
        elif msg.kind is MsgKind.INV_ACK:
            self._handle_inv_ack(msg)
        else:
            raise ValueError(f"directory {self.node} cannot handle {msg!r}")

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _handle_request(self, msg: Message) -> None:
        e = self.entry(msg.line)
        if e.state == "B":
            e.queue.append(msg)
            self.stats.counter("requests_queued").add()
            return
        self.stats.counter(REQUEST_COUNTER[msg.kind]).add()
        if msg.kind is MsgKind.GETS:
            self._do_gets(e, msg)
        elif msg.kind is MsgKind.AMO_REQ:
            self._do_amo(e, msg)
        else:
            self._do_getx(e, msg)

    def _llc_fetch_delay(self, line: int) -> int:
        """Latency to obtain the line at the LLC (hit or memory fetch)."""
        hit = line in self.l3
        self.l3.insert(line)
        if hit:
            self.stats.counter("l3_hits").add()
            return self.params.l3_bank.hit_cycles
        self.stats.counter("l3_misses").add()
        return self.params.l3_bank.hit_cycles + self.params.memory_cycles

    def _grant_from_llc(self, msg: Message, exclusive: bool, delay: int) -> None:
        """Send DATA/DATA_E to the requestor after an LLC/memory delay."""
        kind = MsgKind.DATA_E if exclusive else MsgKind.DATA
        reply = Message(
            kind,
            msg.line,
            src=self.node,
            dst=msg.requestor,
            requestor=msg.requestor,
            exclusive=exclusive,
            from_private_cache=False,
            issued_cycle=msg.issued_cycle,
        )
        self.engine.schedule_in(delay, partial(self.engine.send, reply, False))

    def _do_gets(self, e: DirEntry, msg: Message) -> None:
        req = msg.requestor
        if e.state == "I":
            delay = self._llc_fetch_delay(msg.line)
            self._grant_from_llc(msg, exclusive=True, delay=delay)
            self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
        elif e.state == "S":
            delay = self._llc_fetch_delay(msg.line)
            self._grant_from_llc(msg, exclusive=False, delay=delay)
            self._block(e, msg.line, partial(self._add_sharer, e, msg.line, req))
        elif e.state == "M":
            owner = e.owner
            if owner is None:
                raise ProtocolInvariantError(
                    "dir-owner",
                    f"directory {self.node} has an M entry with no owner "
                    f"while serving a GetS",
                    line=msg.line,
                    cycle=self.engine.now,
                )
            if owner == req:
                # Degenerate re-request (e.g. raced with own writeback).
                delay = self._llc_fetch_delay(msg.line)
                self._grant_from_llc(msg, exclusive=True, delay=delay)
                self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
                return
            fwd = Message(
                MsgKind.FWD_GETS,
                msg.line,
                src=self.node,
                dst=owner,
                requestor=req,
                issued_cycle=msg.issued_cycle,
            )
            self.stats.counter("fwd_gets").add()
            lookup = self.params.l3_bank.hit_cycles
            self.engine.schedule_in(lookup, partial(self.engine.send, fwd, False))
            # Owner's dirty copy is written back to the LLC on the downgrade.
            self.l3.insert(msg.line)
            self._block(
                e, msg.line, partial(self._downgrade_owner, e, msg.line, owner, req)
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"GETS in unexpected state {e.state}")

    def _do_getx(self, e: DirEntry, msg: Message) -> None:
        req = msg.requestor
        if e.state == "I":
            delay = self._llc_fetch_delay(msg.line)
            self._grant_from_llc(msg, exclusive=True, delay=delay)
            self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
        elif e.state == "S":
            targets = sorted(e.sharers - {req})
            lookup = self.params.l3_bank.hit_cycles
            if not targets:
                self._grant_from_llc(msg, exclusive=True, delay=lookup)
                self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
                return
            self.stats.counter("invalidations_sent").add(len(targets))
            e.pending_acks = len(targets)
            e.on_acks_done = partial(self._grant_from_llc, msg, True, 0)
            for sharer in targets:
                inv = Message(
                    MsgKind.INV,
                    msg.line,
                    src=self.node,
                    dst=sharer,
                    requestor=req,
                    issued_cycle=msg.issued_cycle,
                )
                self.engine.schedule_in(lookup, partial(self.engine.send, inv, False))
            self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
        elif e.state == "M":
            owner = e.owner
            if owner is None:
                raise ProtocolInvariantError(
                    "dir-owner",
                    f"directory {self.node} has an M entry with no owner "
                    f"while serving a GetX",
                    line=msg.line,
                    cycle=self.engine.now,
                )
            if owner == req:
                delay = self._llc_fetch_delay(msg.line)
                self._grant_from_llc(msg, exclusive=True, delay=delay)
                self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
                return
            fwd = Message(
                MsgKind.FWD_GETX,
                msg.line,
                src=self.node,
                dst=owner,
                requestor=req,
                issued_cycle=msg.issued_cycle,
            )
            self.stats.counter("fwd_getx").add()
            lookup = self.params.l3_bank.hit_cycles
            self.engine.schedule_in(lookup, partial(self.engine.send, fwd, False))
            self._block(e, msg.line, partial(self._become_owner, e, msg.line, req))
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"GETX in unexpected state {e.state}")

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _block(
        self, e: DirEntry, line: int, on_unblock: Callable[[], None]
    ) -> None:
        self._set_state(e, line, "B")
        e.on_unblock = on_unblock

    def _become_owner(self, e: DirEntry, line: int, core: int) -> None:
        self._set_state(e, line, "M")
        e.owner = core
        e.sharers = set()

    def _add_sharer(self, e: DirEntry, line: int, core: int) -> None:
        self._set_state(e, line, "S")
        e.sharers.add(core)

    def _downgrade_owner(
        self, e: DirEntry, line: int, owner: int, req: int
    ) -> None:
        self._set_state(e, line, "S")
        e.owner = None
        e.sharers = {owner, req}

    def _handle_unblock(self, msg: Message) -> None:
        e = self.entry(msg.line)
        if e.state != "B" or e.on_unblock is None:  # pragma: no cover
            raise RuntimeError(f"unexpected Unblock for line {msg.line:#x}")
        action = e.on_unblock
        e.on_unblock = None
        action()
        self.stats.counter("transactions").add()
        if e.queue:
            self._handle_request_from_queue(e)

    def _handle_request_from_queue(self, e: DirEntry) -> None:
        nxt = e.queue.popleft()
        self.stats.counter(REQUEST_COUNTER[nxt.kind]).add()
        if nxt.kind is MsgKind.GETS:
            self._do_gets(e, nxt)
        elif nxt.kind is MsgKind.GETX:
            self._do_getx(e, nxt)
        elif nxt.kind is MsgKind.AMO_REQ:
            self._do_amo(e, nxt)
        else:
            self._apply_putm(e, nxt)
            if e.queue and e.state != "B":
                self._handle_request_from_queue(e)

    def _handle_inv_ack(self, msg: Message) -> None:
        e = self.entry(msg.line)
        if e.pending_acks <= 0:  # pragma: no cover - defensive
            raise RuntimeError(f"stray InvAck for line {msg.line:#x}")
        e.pending_acks -= 1
        if e.pending_acks == 0 and e.on_acks_done is not None:
            action = e.on_acks_done
            e.on_acks_done = None
            action()

    # ------------------------------------------------------------------
    # Far atomics (extension; DESIGN.md §5)
    # ------------------------------------------------------------------

    def _do_amo(self, e: DirEntry, msg: Message) -> None:
        """Execute an RMW at the home bank.

        The line is pulled out of every private cache first (exactly one
        writer, like a GetX whose requestor is the bank itself), then the
        operation runs against the LLC copy and only the old value travels
        back — no line transfer, no cache locking.
        """
        if self.image is None:
            raise RuntimeError(
                f"directory {self.node}: far atomics need a memory image"
            )
        if e.state == "I":
            delay = self._llc_fetch_delay(msg.line)
            self._set_state(e, msg.line, "B")
            self.engine.schedule_in(delay, partial(self._finish_amo, e, msg))
        elif e.state == "S":
            targets = sorted(e.sharers)
            if not targets:
                self._set_state(e, msg.line, "B")
                self.engine.schedule_in(
                    self.params.l3_bank.hit_cycles,
                    partial(self._finish_amo, e, msg),
                )
                return
            self._set_state(e, msg.line, "B")
            e.pending_acks = len(targets)
            e.on_acks_done = partial(self._finish_amo, e, msg)
            self.stats.counter("invalidations_sent").add(len(targets))
            for sharer in targets:
                inv = Message(
                    MsgKind.INV,
                    msg.line,
                    src=self.node,
                    dst=sharer,
                    requestor=msg.requestor,
                    issued_cycle=msg.issued_cycle,
                )
                self.engine.schedule_in(
                    self.params.l3_bank.hit_cycles,
                    partial(self.engine.send, inv, False),
                )
        elif e.state == "M":
            owner = e.owner
            if owner is None:
                raise ProtocolInvariantError(
                    "dir-owner",
                    f"directory {self.node} has an M entry with no owner "
                    f"while serving an AMO",
                    line=msg.line,
                    cycle=self.engine.now,
                )
            self._set_state(e, msg.line, "B")
            e.pending_acks = 1
            e.on_acks_done = partial(self._finish_amo, e, msg)
            inv = Message(
                MsgKind.INV,
                msg.line,
                src=self.node,
                dst=owner,
                requestor=msg.requestor,
                issued_cycle=msg.issued_cycle,
            )
            self.engine.schedule_in(
                self.params.l3_bank.hit_cycles,
                partial(self.engine.send, inv, False),
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"AMO in unexpected state {e.state}")

    def _finish_amo(self, e: DirEntry, msg: Message) -> None:
        if self.image is None:
            raise ProtocolInvariantError(
                "amo-image",
                f"directory {self.node} completed an AMO without a memory "
                f"image to execute it against",
                line=msg.line,
                cycle=self.engine.now,
            )
        old = self.image.read(msg.amo_addr)
        new, loaded = apply_atomic(
            msg.amo_op, old, msg.amo_operand, msg.amo_expected
        )
        self.image.write(msg.amo_addr, new)
        self.l3.insert(msg.line)
        self._set_state(e, msg.line, "I")
        e.owner = None
        e.sharers = set()
        self.stats.counter("amo_executed").add()
        resp = Message(
            MsgKind.AMO_RESP,
            msg.line,
            src=self.node,
            dst=msg.requestor,
            requestor=msg.requestor,
            issued_cycle=msg.issued_cycle,
            amo_old=loaded,
            amo_new=new,
        )
        self.engine.send(resp, to_directory=False)
        if e.queue:
            self._handle_request_from_queue(e)

    # ------------------------------------------------------------------
    # Writebacks
    # ------------------------------------------------------------------

    def _handle_putm(self, msg: Message) -> None:
        e = self.entry(msg.line)
        if e.state == "B":
            e.queue.append(msg)
            return
        self._apply_putm(e, msg)

    def _apply_putm(self, e: DirEntry, msg: Message) -> None:
        if e.state == "M" and e.owner == msg.src:
            self._set_state(e, msg.line, "I")
            e.owner = None
            self.l3.insert(msg.line)
            self.stats.counter("writebacks").add()
        else:
            self.stats.counter("stale_putm").add()
        ack = Message(
            MsgKind.PUTM_ACK,
            msg.line,
            src=self.node,
            dst=msg.src,
            requestor=msg.src,
        )
        self.engine.send(ack, to_directory=False)
