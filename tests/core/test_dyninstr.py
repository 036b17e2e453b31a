"""Dynamic-instruction record tests."""

import pytest

from repro.core.dyninstr import AQEntry, DynInstr
from repro.isa.instructions import InstrClass, alu, atomic, load
from repro.memory.messages import Message, MsgKind


class TestDynInstr:
    def test_passthrough_properties(self):
        static = load(3, pc=0x44, addr=10 * 64)
        dyn = DynInstr(static, uid=7, fetch_cycle=5)
        assert dyn.seq == 3
        assert dyn.pc == 0x44
        assert dyn.cls is InstrClass.LOAD
        assert dyn.line == 10
        assert dyn.addr == 10 * 64
        assert dyn.fetch_cycle == 5

    def test_initial_state(self):
        dyn = DynInstr(alu(0, 0), uid=0, fetch_cycle=0)
        assert not dyn.issued
        assert not dyn.completed
        assert not dyn.committed
        assert not dyn.squashed
        assert dyn.deps_left == 0
        assert dyn.consumers == []
        assert dyn.dispatch_cycle == -1

    def test_slots_prevent_arbitrary_attributes(self):
        """The three highest-volume allocations stay ``__slots__`` records:
        one per fetched instruction, per dynamic atomic, per message."""
        dyn = DynInstr(alu(0, 0), uid=0, fetch_cycle=0)
        message = Message(kind=MsgKind.GETS, line=0x40, src=0, dst=1)
        for record in (dyn, AQEntry(dyn=dyn), message):
            assert not hasattr(record, "__dict__"), type(record).__name__
            with pytest.raises(AttributeError):
                record.bogus = 1  # type: ignore[attr-defined]

    def test_atomic_defaults(self):
        dyn = DynInstr(atomic(0, 0, 64), uid=0, fetch_cycle=0)
        assert dyn.exec_eager
        assert not dyn.predicted_contended
        assert dyn.lock_cycle == -1
        assert dyn.first_issue_cycle == -1


class TestAQEntry:
    def test_defaults(self):
        dyn = DynInstr(atomic(0, 0, 64), uid=0, fetch_cycle=0)
        entry = AQEntry(dyn)
        assert entry.line is None
        assert not entry.locked
        assert not entry.contended
        assert not entry.only_calc_addr
        assert entry.request_issued_stamp is None
        assert not entry.external_seen
        assert not entry.contended_truth
