"""Runtime protocol sanitizers: opt-in invariant checkers for live runs.

The harness attaches to an assembled system (engine + banks + controllers +
cores) purely by wrapping *instance* methods — when it is not attached the
simulator runs the exact same bytecode as before, so sanitizer-off runs are
byte-identical to the seed simulator.  When attached, every delivered
coherence message triggers targeted checks for the affected cacheline and a
violation raises :class:`ProtocolInvariantError` carrying a reconstructed
message trace.

Checked invariants (all individually switchable via
:class:`SanitizerConfig`):

``swmr``             single writer / multiple readers: never two private
                     caches with E/M on a line, never E/M alongside S.
``dir-agreement``    a stable directory entry agrees with the private
                     caches: an M entry's owner really owns the line, an S
                     entry's sharers form a superset of the caches holding
                     S, an I entry means no cache holds the line.
``sb-fifo``          each core's store buffer stays in program order.
``blocked-liveness`` no directory entry stays blocked (state ``B``) across
                     a single transaction for more than ``blocked_bound``
                     cycles.
``rmw-atomicity``    no intervening write lands on an atomic's address
                     between its read and its write (cache locking works).
``data-value``       at unlock, the memory image holds exactly the value
                     the atomic computed (the dirty result was not
                     clobbered on its way to memory).
``lazy-release-order`` before each lazy pump, every parked lazy atomic
                     that passes ``atomic_lazy_ready`` is the load-queue
                     head — the contract that lets the pump ask about the
                     head alone (this checker is the full walk the pump
                     used to do; see docs/performance.md, experiment 2).
``missed-wake``      after a coherence message is delivered to a private
                     cache controller, the owning core must be awake (or
                     done) — the invariant that makes quiescence-aware
                     scheduling sound (see docs/performance.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.params import AtomicMode
from repro.memory.messages import Message
from repro.sanitize.errors import ProtocolInvariantError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Core
    from repro.memory.controller import PrivateCacheController
    from repro.memory.directory import DirectoryBank
    from repro.memory.image import MemoryImage
    from repro.memory.interconnect import MeshNetwork
    from repro.sim.engine import EventEngine
    from repro.sim.multicore import MulticoreSimulator

WRITE_STATES = ("E", "M")


@dataclass(frozen=True)
class SanitizerConfig:
    """Which invariant checkers run, and their tunables."""

    swmr: bool = True
    dir_agreement: bool = True
    sb_fifo: bool = True
    blocked_liveness: bool = True
    rmw_atomicity: bool = True
    data_value: bool = True
    lazy_release_order: bool = True
    missed_wake: bool = True
    # A directory entry blocked longer than this (within one transaction)
    # is reported as a liveness violation.  Must comfortably exceed the
    # worst legitimate stall (lock revocation timeout + memory round trips).
    blocked_bound: int = 50_000
    # Depth of the in-flight message recorder used for violation traces.
    trace_depth: int = 64


class MessageTraceRecorder:
    """Ring buffer of recently sent coherence messages."""

    def __init__(self, depth: int) -> None:
        self._buf: deque[tuple[int, Message, bool]] = deque(maxlen=depth)

    def record(self, cycle: int, msg: Message, to_directory: bool) -> None:
        self._buf.append((cycle, msg, to_directory))

    def for_line(self, line: int | None, limit: int = 16) -> list[str]:
        """Formatted trace entries, filtered to ``line`` when given."""
        out = []
        for cycle, msg, to_directory in self._buf:
            if line is not None and msg.line != line:
                continue
            route = "dir" if to_directory else "core"
            out.append(
                f"cycle {cycle:>8}: {msg.kind.value:<8} line={msg.line:#x} "
                f"{msg.src}->{msg.dst} ({route}) req={msg.requestor}"
            )
        return out[-limit:]


class SanitizerHarness:
    """Invariant checkers wired into a live simulated system.

    The constructor only records references; :meth:`attach` installs the
    instance-level wrappers.  ``cores`` and ``image`` are optional so the
    harness also serves the core-less protocol test harness.
    """

    def __init__(
        self,
        engine: "EventEngine",
        network: "MeshNetwork",
        banks: Sequence["DirectoryBank"],
        controllers: Sequence["PrivateCacheController"],
        cores: Iterable["Core"] = (),
        image: "MemoryImage | None" = None,
        config: SanitizerConfig | None = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.banks = list(banks)
        self.controllers = list(controllers)
        self.cores = list(cores)
        self._core_by_id = {core.core_id: core for core in self.cores}
        self.image = image
        self.config = config or SanitizerConfig()
        self.trace = MessageTraceRecorder(self.config.trace_depth)
        # (bank node, line) -> cycle the current transaction was first seen
        # blocked at; cleared on every observed unblock/AMO completion.
        self._blocked_since: dict[tuple[int, int], int] = {}
        # Per-address count of memory-image writes (rmw-atomicity bookkeeping).
        self._write_counts: dict[int, int] = {}
        # (core id, dyn uid) -> write count at the atomic's read instant.
        self._read_marks: dict[tuple[int, int], int] = {}
        # How many times each checker ran (introspection for tests/reports).
        self.checks: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> "SanitizerHarness":
        """Install instance-level wrappers on every watched component."""
        self._wrap_send()
        for ctrl in self.controllers:
            self._wrap_controller(ctrl)
        for bank in self.banks:
            self._wrap_bank(bank)
        if self.image is not None and (
            self.config.rmw_atomicity or self.config.data_value
        ):
            self._wrap_image()
        for core in self.cores:
            self._wrap_core(core)
        return self

    def _wrap_send(self) -> None:
        engine, trace = self.engine, self.trace
        orig_send = engine.send

        def send(msg: Message, to_directory: bool) -> None:
            trace.record(engine.now, msg, to_directory)
            orig_send(msg, to_directory)

        engine.send = send  # type: ignore[method-assign]

    def _wrap_controller(self, ctrl: "PrivateCacheController") -> None:
        orig = ctrl.receive
        core = self._core_by_id.get(ctrl.core_id)
        check_wake = self.config.missed_wake and core is not None

        def receive(msg: Message, _orig=orig) -> None:
            _orig(msg)
            self.check_line(msg.line)
            if check_wake:
                self.check_missed_wake(core, msg)

        ctrl.receive = receive  # type: ignore[method-assign]
        self.engine.register_core_endpoint(ctrl.core_id, receive)

    def _wrap_bank(self, bank: "DirectoryBank") -> None:
        orig = bank.receive

        def receive(msg: Message, _orig=orig) -> None:
            _orig(msg)
            self.check_line(msg.line)
            if self.config.blocked_liveness:
                self.observe_blocked(bank, msg.line)

        bank.receive = receive  # type: ignore[method-assign]
        self.engine.register_dir_endpoint(bank.node, receive)

        if self.config.blocked_liveness:
            # Unblock / AMO completion end a transaction: reset the
            # blocked-age tracking so back-to-back queued transactions on a
            # hot line are not mistaken for a wedged one.
            orig_unblock = bank._handle_unblock
            orig_finish = bank._finish_amo

            def handle_unblock(msg: Message, _orig=orig_unblock) -> None:
                _orig(msg)
                self._blocked_since.pop((bank.node, msg.line), None)

            def finish_amo(e, msg: Message, _orig=orig_finish) -> None:
                _orig(e, msg)
                self._blocked_since.pop((bank.node, msg.line), None)

            bank._handle_unblock = handle_unblock  # type: ignore[method-assign]
            bank._finish_amo = finish_amo  # type: ignore[method-assign]

    def _wrap_image(self) -> None:
        image = self.image
        assert image is not None
        orig_write = image.write

        def write(addr: int, value: int) -> None:
            orig_write(addr, value)
            self.note_image_write(addr)

        image.write = write  # type: ignore[method-assign]

    def _wrap_core(self, core: "Core") -> None:
        """Wrap the hot paths on the core's subsystem units.

        The LSQ owns the SB drain; the atomic policy owns compute/unlock.
        All internal call sites reach these through instance-attribute
        lookups, so instance-level wrapping intercepts every call.
        """
        cfg = self.config
        if cfg.sb_fifo:
            orig_drain = core.lsq.drain_sb

            def drain_sb(now: int, _orig=orig_drain, _core=core) -> bool:
                if len(_core.lsq.sb) > 1:
                    self.check_sb_fifo(_core)
                return _orig(now)

            core.lsq.drain_sb = drain_sb  # type: ignore[method-assign]

        if (cfg.rmw_atomicity or cfg.data_value) and core.mode is not AtomicMode.FAR:
            orig_compute = core.policy.try_compute
            orig_unlock = core.policy.unlock

            def try_compute(dyn, _orig=orig_compute, _core=core) -> None:
                was_pending = dyn.compute_pending
                _orig(dyn)
                if (
                    dyn.compute_pending
                    and not was_pending
                    and dyn.fwd_store_uid is None
                ):
                    # The atomic's read half just executed against memory.
                    self.note_atomic_read(_core.core_id, dyn.uid, dyn.addr)

            def unlock(dyn, now: int, _orig=orig_unlock, _core=core) -> None:
                # _drain_sb wrote the atomic's result immediately before
                # calling unlock, so the image must hold it right now.
                if cfg.data_value:
                    self.check_data_value(
                        _core.core_id, dyn.addr, dyn.new_mem_value, line=dyn.line
                    )
                if cfg.rmw_atomicity:
                    self.check_atomic_unlock(
                        _core.core_id, dyn.uid, dyn.addr, line=dyn.line
                    )
                _orig(dyn, now)

            core.policy.try_compute = try_compute  # type: ignore[method-assign]
            core.policy.unlock = unlock  # type: ignore[method-assign]

        if cfg.lazy_release_order:
            orig_pump = core.policy.pump

            def pump(now: int, budget: int, _orig=orig_pump, _core=core):
                self.check_lazy_release_order(_core)
                return _orig(now, budget)

            core.policy.pump = pump  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Checkers (callable directly; the wrappers above route into these)
    # ------------------------------------------------------------------

    def _violation(self, invariant: str, detail: str, line: int | None) -> None:
        raise ProtocolInvariantError(
            invariant,
            detail,
            line=line,
            cycle=self.engine.now,
            trace=self.trace.for_line(line),
        )

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def check_line(self, line: int) -> None:
        if self.config.swmr:
            self.check_swmr(line)
        if self.config.dir_agreement:
            self.check_dir_agreement(line)

    def check_swmr(self, line: int) -> None:
        """At most one writer; a writer excludes every other reader."""
        self._count("swmr")
        owners = [
            c.core_id for c in self.controllers if c.state.get(line) in WRITE_STATES
        ]
        if len(owners) > 1:
            self._violation(
                "swmr",
                f"cores {owners} all hold write permission",
                line,
            )
        if owners:
            readers = [
                c.core_id for c in self.controllers if c.state.get(line) == "S"
            ]
            if readers:
                self._violation(
                    "swmr",
                    f"core {owners[0]} holds write permission while cores "
                    f"{readers} hold read permission",
                    line,
                )

    def check_dir_agreement(self, line: int) -> None:
        """A stable directory entry must match the private-cache states."""
        bank = self.banks[self.network.bank_of(line)]
        entry = bank.entries.get(line)
        if entry is None or entry.state == "B":
            return  # nothing recorded / mid-transaction: nothing to check
        self._count("dir-agreement")
        if entry.state == "M":
            owner = entry.owner
            if owner is None:
                self._violation(
                    "dir-agreement", "directory M entry without an owner", line
                )
                return
            ctrl = self.controllers[owner]
            if ctrl.state.get(line) not in WRITE_STATES and line not in ctrl.wb_buffer:
                self._violation(
                    "dir-agreement",
                    f"directory names core {owner} owner but it holds neither "
                    f"write permission nor a pending writeback",
                    line,
                )
            for other in self.controllers:
                if other.core_id != owner and other.state.get(line) is not None:
                    self._violation(
                        "dir-agreement",
                        f"core {other.core_id} caches the line "
                        f"({other.state[line]}) although the directory says "
                        f"core {owner} owns it exclusively",
                        line,
                    )
        elif entry.state == "S":
            if entry.owner is not None:
                self._violation(
                    "dir-agreement",
                    f"shared directory entry still records owner {entry.owner}",
                    line,
                )
            for ctrl in self.controllers:
                st = ctrl.state.get(line)
                if st in WRITE_STATES:
                    self._violation(
                        "dir-agreement",
                        f"core {ctrl.core_id} holds write permission ({st}) "
                        f"under a shared directory entry",
                        line,
                    )
                if st == "S" and ctrl.core_id not in entry.sharers:
                    self._violation(
                        "dir-agreement",
                        f"core {ctrl.core_id} holds the line shared but is "
                        f"missing from the directory sharer list "
                        f"{sorted(entry.sharers)}",
                        line,
                    )
        else:  # "I"
            for ctrl in self.controllers:
                if ctrl.state.get(line) is not None:
                    self._violation(
                        "dir-agreement",
                        f"core {ctrl.core_id} caches the line "
                        f"({ctrl.state[line]}) although the directory entry "
                        f"is invalid",
                        line,
                    )

    def observe_blocked(self, bank: "DirectoryBank", line: int) -> None:
        """Track how long a directory entry has been blocked."""
        key = (bank.node, line)
        entry = bank.entries.get(line)
        if entry is None or entry.state != "B":
            self._blocked_since.pop(key, None)
            return
        self._count("blocked-liveness")
        first = self._blocked_since.setdefault(key, self.engine.now)
        age = self.engine.now - first
        if age > self.config.blocked_bound:
            self._violation(
                "blocked-liveness",
                f"directory {bank.node} entry blocked for {age} cycles "
                f"(bound {self.config.blocked_bound}) with "
                f"{len(entry.queue)} queued request(s)",
                line,
            )

    def check_sb_fifo(self, core) -> None:
        """The store buffer must hold entries in program (seq) order."""
        self._count("sb-fifo")
        prev = None
        for entry in core.lsq.sb:
            if prev is not None and entry.seq <= prev.seq:
                self._violation(
                    "sb-fifo",
                    f"core {core.core_id} store buffer out of program order "
                    f"(seq {entry.seq} queued behind seq {prev.seq})",
                    None,
                )
            prev = entry

    def note_image_write(self, addr: int) -> None:
        self._write_counts[addr] = self._write_counts.get(addr, 0) + 1

    def note_atomic_read(self, core_id: int, uid: int, addr: int) -> None:
        """Record the write count at the instant an atomic reads memory."""
        self._read_marks[(core_id, uid)] = self._write_counts.get(addr, 0)

    def check_atomic_unlock(
        self, core_id: int, uid: int, addr: int, line: int | None = None
    ) -> None:
        """Between an atomic's read and its write, only its own write may
        land on the address (the locked line admits no remote writer)."""
        mark = self._read_marks.pop((core_id, uid), None)
        if mark is None:
            return  # forwarded/far atomic: the read never touched the image
        self._count("rmw-atomicity")
        intervening = self._write_counts.get(addr, 0) - mark - 1
        if intervening != 0:
            self._violation(
                "rmw-atomicity",
                f"core {core_id} atomic on addr {addr:#x} saw {intervening} "
                f"intervening write(s) between its read and write halves",
                line,
            )

    def check_lazy_release_order(self, core: "Core") -> None:
        """Only the load-queue head may pass ``atomic_lazy_ready``.

        ``AtomicPolicyBase.pump`` asks the consistency model about the LQ
        head alone; this is the walk over the whole parking lot it
        replaced.  A parked atomic that is ready without being the head
        means the model broke the head-only contract and the pump would
        silently never release it.
        """
        self._count("lazy-release-order")
        policy = core.policy
        lq = core.lsq.lq
        for dyn in policy.lazy_waiting:
            if policy.lazy_ready(dyn) and not (lq and lq[0] is dyn):
                self._violation(
                    "lazy-release-order",
                    f"core {core.core_id} parked atomic seq {dyn.seq} passes "
                    f"{core.consistency.name}.atomic_lazy_ready but is not "
                    f"the load-queue head, so the head-only pump skips it",
                    dyn.line,
                )

    def check_missed_wake(self, core: "Core", msg: Message) -> None:
        """A delivered message must leave the owning core awake (or done).

        Quiescence scheduling only skips a core on the promise that any
        message reaching its controller raises the wake flag; a sleeping
        core that just received a message would otherwise never be stepped
        again — the classic lost-wakeup deadlock.
        """
        self._count("missed-wake")
        if not core.awake and not core.done:
            self._violation(
                "missed-wake",
                f"core {core.core_id} received {msg.kind.value} while asleep "
                f"and was not woken (note_activity never raised the wake "
                f"flag)",
                msg.line,
            )

    def check_data_value(
        self, core_id: int, addr: int, expected: int, line: int | None = None
    ) -> None:
        """At unlock the image must hold the atomic's computed result."""
        if self.image is None:
            return
        self._count("data-value")
        actual = self.image.peek(addr)
        if actual != expected:
            self._violation(
                "data-value",
                f"core {core_id} unlocked addr {addr:#x} with memory holding "
                f"{actual} instead of the atomic's result {expected}",
                line,
            )

    # ------------------------------------------------------------------
    # End-of-run sweep
    # ------------------------------------------------------------------

    def final_check(self) -> None:
        """Global SWMR / agreement sweep over every line either side knows.

        Blocked entries are skipped: the run may legitimately end with
        acknowledgment messages still in flight.
        """
        lines: set[int] = set()
        for bank in self.banks:
            lines.update(bank.entries)
        for ctrl in self.controllers:
            lines.update(ctrl.state)
        for line in sorted(lines):
            self.check_line(line)


def attach_sanitizers(
    sim: "MulticoreSimulator", config: SanitizerConfig | None = None
) -> SanitizerHarness:
    """Build and attach a harness covering a full multicore simulator."""
    harness = SanitizerHarness(
        engine=sim.engine,
        network=sim.network,
        banks=sim.banks,
        controllers=sim.controllers,
        cores=sim.cores,
        image=sim.image,
        config=config,
    )
    return harness.attach()
