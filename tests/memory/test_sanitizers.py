"""Runtime sanitizer tests: forged message streams must trip each checker.

The strategy: bring the core-less protocol system into a legal state, then
*forge* an illegal situation directly (a second owner, a stale sharer, a
wedged blocked entry — the kinds of states a protocol bug would produce),
and deliver one benign message for the line so the wrapped receive path
runs the checkers.  Each test asserts the right invariant fires, with the
line and a reconstructed message trace attached.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.params import AtomicMode, SystemParams
from repro.isa.instructions import line_of
from repro.memory.image import MemoryImage
from repro.memory.messages import Message, MsgKind
from repro.sanitize import (
    ProtocolInvariantError,
    SanitizerConfig,
    SanitizerHarness,
)
from repro.sim.multicore import MulticoreSimulator
from repro.workloads.litmus import atomic_counter

LINE = 0x40


def attach(system, config=None, image=None):
    return SanitizerHarness(
        engine=system.engine,
        network=system.network,
        banks=system.banks,
        controllers=system.controllers,
        image=image,
        config=config,
    ).attach()


def poke(system, line, dst):
    """Deliver a benign message for ``line`` so the checkers run."""
    bank = system.network.bank_of(line)
    msg = Message(MsgKind.PUTM_ACK, line, src=bank, dst=dst, requestor=dst)
    system.engine.send(msg, to_directory=False)


class TestSWMR:
    def test_forged_second_owner_fires(self, system):
        harness = attach(system)
        system.access(0, LINE, excl=True)
        system.pump()
        # A protocol bug hands core 1 write permission it was never granted.
        system.controllers[1].state[LINE] = "M"
        poke(system, LINE, dst=1)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        err = excinfo.value
        assert err.invariant == "swmr"
        assert err.line == LINE
        assert err.trace, "violation should carry a message trace"
        assert harness.checks["swmr"] > 0

    def test_forged_reader_beside_writer_fires(self, system):
        attach(system)
        system.access(0, LINE, excl=True)
        system.pump()
        system.controllers[2].state[LINE] = "S"
        poke(system, LINE, dst=2)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        assert excinfo.value.invariant == "swmr"

    def test_clean_exclusive_handoff_passes(self, system):
        harness = attach(system)
        system.access(0, LINE, excl=True)
        system.pump()
        system.access(1, LINE, excl=True)
        system.pump()
        harness.final_check()  # no violation on a legal handoff
        assert system.controllers[1].state.get(LINE) == "M"


class TestDirectoryAgreement:
    def _share_between(self, system, cores):
        for core in cores:
            system.access(core, LINE, excl=False)
            system.pump()

    def test_stale_sharer_fires(self, system):
        attach(system)
        self._share_between(system, (0, 1))
        assert system.dir_entry(LINE).state == "S"
        # Core 2 claims a shared copy the directory never recorded.
        system.controllers[2].state[LINE] = "S"
        poke(system, LINE, dst=2)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        err = excinfo.value
        assert err.invariant == "dir-agreement"
        assert "sharer list" in err.detail

    def test_writer_under_shared_entry_fires(self, system):
        # swmr would also catch this; disable it to prove the directory
        # cross-check fires on its own.
        attach(system, config=SanitizerConfig(swmr=False))
        self._share_between(system, (0, 1))
        system.controllers[1].state[LINE] = "M"
        poke(system, LINE, dst=1)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        assert excinfo.value.invariant == "dir-agreement"

    def test_owner_losing_its_copy_fires(self, system):
        attach(system)
        system.access(0, LINE, excl=True)
        system.pump()
        assert system.dir_entry(LINE).owner == 0
        # The recorded owner silently dropped the line (no PutM in flight).
        del system.controllers[0].state[LINE]
        poke(system, LINE, dst=3)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        err = excinfo.value
        assert err.invariant == "dir-agreement"
        assert "owner" in err.detail

    def test_caching_under_invalid_entry_fires(self, system):
        attach(system)
        entry = system.dir_entry(LINE)
        assert entry.state == "I"
        system.controllers[0].state[LINE] = "S"
        poke(system, LINE, dst=0)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        assert excinfo.value.invariant == "dir-agreement"


class TestBlockedLiveness:
    def test_wedged_blocked_entry_fires(self, system):
        attach(system, config=SanitizerConfig(blocked_bound=100))
        entry = system.dir_entry(LINE)
        entry.state = "B"  # forged: a transaction that will never unblock
        bank = system.network.bank_of(LINE)

        def gets():
            system.engine.send(
                Message(MsgKind.GETS, LINE, src=1, dst=bank, requestor=1,
                        issued_cycle=system.engine.now),
                to_directory=True,
            )

        gets()  # first observation starts the blocked-age clock
        system.engine.schedule(system.engine.now + 500, gets)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            system.pump()
        err = excinfo.value
        assert err.invariant == "blocked-liveness"
        assert "queued" in err.detail

    def test_back_to_back_transactions_pass(self, system):
        # Real contention churns through B states without tripping the
        # bound: each Unblock resets the clock.
        attach(system, config=SanitizerConfig(blocked_bound=100))
        for round_ in range(6):
            system.access(round_ % len(system.controllers), LINE, excl=True)
            system.pump()
        assert system.dir_entry(LINE).state == "M"


class TestStoreBufferFifo:
    def test_out_of_order_sb_fires(self, system):
        harness = attach(system)
        core = SimpleNamespace(
            core_id=0,
            lsq=SimpleNamespace(
                sb=[SimpleNamespace(seq=2), SimpleNamespace(seq=1)]
            ),
        )
        with pytest.raises(ProtocolInvariantError) as excinfo:
            harness.check_sb_fifo(core)
        assert excinfo.value.invariant == "sb-fifo"

    def test_in_order_sb_passes(self, system):
        harness = attach(system)
        core = SimpleNamespace(
            core_id=0,
            lsq=SimpleNamespace(
                sb=[SimpleNamespace(seq=1), SimpleNamespace(seq=5)]
            ),
        )
        harness.check_sb_fifo(core)


class TestRmwAtomicity:
    def test_intervening_write_fires(self, system):
        harness = attach(system)
        addr = 0x1000
        harness.note_atomic_read(0, uid=7, addr=addr)
        harness.note_image_write(addr)  # a remote write sneaks in
        harness.note_image_write(addr)  # the atomic's own write
        with pytest.raises(ProtocolInvariantError) as excinfo:
            harness.check_atomic_unlock(0, uid=7, addr=addr)
        err = excinfo.value
        assert err.invariant == "rmw-atomicity"
        assert "1 intervening" in err.detail

    def test_exclusive_write_passes(self, system):
        harness = attach(system)
        addr = 0x1000
        harness.note_atomic_read(0, uid=7, addr=addr)
        harness.note_image_write(addr)
        harness.check_atomic_unlock(0, uid=7, addr=addr)

    def test_forwarded_atomic_skipped(self, system):
        # No read mark recorded (store->atomic forwarding): nothing checked.
        harness = attach(system)
        harness.check_atomic_unlock(0, uid=9, addr=0x2000)
        assert "rmw-atomicity" not in harness.checks


class TestDataValue:
    def test_clobbered_result_fires(self, system):
        image = MemoryImage({0x1000: 5})
        harness = attach(system, image=image)
        with pytest.raises(ProtocolInvariantError) as excinfo:
            harness.check_data_value(0, addr=0x1000, expected=7)
        err = excinfo.value
        assert err.invariant == "data-value"
        assert "5" in err.detail and "7" in err.detail

    def test_matching_result_passes(self, system):
        image = MemoryImage({0x1000: 7})
        harness = attach(system, image=image)
        harness.check_data_value(0, addr=0x1000, expected=7)


class TestFullSystem:
    def test_sanitized_contended_run_is_clean(self):
        """A real contended multicore run exercises every checker with
        zero violations — and still produces the exact counter value."""
        params = SystemParams.quick()
        prog = atomic_counter(4, 25)
        sim = MulticoreSimulator(params, prog, sanitize=True)
        result = sim.run()
        assert result.memory_snapshot[prog.metadata["addr"]] == 4 * 25
        for invariant in ("swmr", "dir-agreement", "sb-fifo",
                          "rmw-atomicity", "data-value", "blocked-liveness"):
            assert sim.sanitizer.checks.get(invariant, 0) > 0, invariant

    @pytest.mark.parametrize("mode", ["eager", "far"])
    def test_trace_holds_every_message(self, mode):
        """The sanitizer replaces ``engine.send`` on the instance, so every
        send must look the method up when it is made: each message the
        network routed is in the trace, none bypassed the wrapper."""
        params = SystemParams.quick(atomic_mode=AtomicMode(mode))
        prog = atomic_counter(4, 25)
        sim = MulticoreSimulator(
            params, prog, sanitize=SanitizerConfig(trace_depth=1_000_000)
        )
        result = sim.run()
        messages = result.network_stats.counter("messages").value
        assert messages > 0
        traced = sim.sanitizer.trace.for_line(None, limit=1_000_000)
        assert len(traced) == messages

    def test_forged_owner_in_live_system_fires(self):
        params = SystemParams.quick()
        prog = atomic_counter(2, 40)
        sim = MulticoreSimulator(params, prog, sanitize=True)
        hot = line_of(prog.metadata["addr"])
        budget = 3_000

        def forge():
            # Once both cores are past warm-up, hand core 1 a second copy
            # of whatever core 0 owns — the next message for the hot line
            # must trip SWMR or directory agreement.
            if sim.controllers[0].state.get(hot) in ("E", "M"):
                sim.controllers[1].state[hot] = "M"
            elif sim.engine.now < budget:
                sim.engine.schedule_in(10, forge)

        sim.engine.schedule_in(50, forge)
        with pytest.raises(ProtocolInvariantError):
            sim.run()
