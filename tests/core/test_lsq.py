"""Unit tests for the LoadStoreUnit (PR 4 split).

The line-lock table is the load-bearing piece: it is the *single* home of
lock bookkeeping (lock_line/unlock_line), and the controller's
``is_locked`` hook points straight at it.  The litmus class hammers one
line with back-to-back atomics and checks no stale lock is ever observed.
"""

import pytest

from repro.common.params import AtomicMode, SystemParams
from repro.core.dyninstr import DynInstr
from repro.core.lsq import LoadStoreUnit
from repro.isa.instructions import (
    AtomicOp,
    Program,
    ThreadTrace,
    atomic,
    load,
    store,
)
from repro.sim.multicore import MulticoreSimulator


def make_sim(instr_lists, mode=AtomicMode.EAGER, **overrides):
    params = SystemParams.quick(atomic_mode=mode, **overrides)
    prog = Program(
        "lsq-unit",
        [ThreadTrace(tid, instrs) for tid, instrs in enumerate(instr_lists)],
    )
    return MulticoreSimulator(params, prog)


class TestLineLockTable:
    """lock_line/unlock_line semantics, directly against the unit."""

    def _lsq(self):
        sim = make_sim([[load(0, pc=8, addr=640)]])
        return sim.cores[0].lsq

    def test_lock_counts_stack(self):
        lsq = self._lsq()
        assert not lsq.is_line_locked(10)
        lsq.lock_line(10)
        lsq.lock_line(10)
        assert lsq.locked_lines[10] == 2
        lsq.unlock_line(10)
        assert lsq.is_line_locked(10)
        lsq.unlock_line(10)
        assert not lsq.is_line_locked(10)
        assert lsq.locked_lines == {}

    def test_lock_pins_and_last_unlock_unpins(self):
        lsq = self._lsq()
        pins, unpins = [], []
        lsq.core.port.pin = pins.append
        lsq.core.port.unpin_and_release = unpins.append
        lsq.lock_line(7)
        lsq.lock_line(7)
        assert pins == [7, 7]
        lsq.unlock_line(7)
        assert unpins == []  # still one holder
        lsq.unlock_line(7)
        assert unpins == [7]

    def test_controller_is_locked_hook_points_at_table(self):
        sim = make_sim([[load(0, pc=8, addr=640)]])
        core = sim.cores[0]
        core.lsq.lock_line(3)
        assert core.port.is_locked(3)
        core.lsq.unlock_line(3)
        assert not core.port.is_locked(3)


class TestFindStoreMatch:
    """Youngest-older matching SB entry, unresolved entries skipped."""

    def _lsq_with_sb(self, stores):
        sim = make_sim([[load(0, pc=8, addr=640)]])
        lsq = sim.cores[0].lsq
        uid = 0
        for st, resolved in stores:
            dyn = DynInstr(st, uid=uid, fetch_cycle=0)
            dyn.addr_computed = resolved
            lsq.sb.append(dyn)
            lsq.index_sb_entry(dyn)
            uid += 1
        return lsq

    def _load(self, seq, addr):
        return DynInstr(load(seq, pc=8, addr=addr), uid=100 + seq, fetch_cycle=0)

    def test_youngest_older_wins(self):
        lsq = self._lsq_with_sb(
            [(store(1, pc=4, addr=640, value=1), True),
             (store(3, pc=4, addr=640, value=3), True)]
        )
        assert lsq.find_store_match(self._load(4, 640)).seq == 3
        assert lsq.find_store_match(self._load(2, 640)).seq == 1

    def test_no_match_for_younger_or_other_addr(self):
        lsq = self._lsq_with_sb([(store(5, pc=4, addr=640, value=1), True)])
        assert lsq.find_store_match(self._load(4, 640)) is None
        assert lsq.find_store_match(self._load(6, 704)) is None

    def test_unresolved_store_not_matched(self):
        lsq = self._lsq_with_sb([(store(1, pc=4, addr=640, value=1), False)])
        assert lsq.find_store_match(self._load(2, 640)) is None


ALL_MODES = list(AtomicMode)


class TestBackToBackAtomicLitmus:
    """Two (and more) back-to-back atomics to the same line must never
    observe a stale lock: every unlock targets a currently-locked line,
    and the table drains to empty with no stalled external left behind."""

    def _instrument(self, sim):
        violations: list[str] = []
        for core in sim.cores:
            lsq = core.lsq

            def unlock(line, lsq=lsq, violations=violations):
                if not lsq.is_line_locked(line):
                    violations.append(
                        f"core {lsq.core.core_id} unlocked line {line:#x} "
                        f"it does not hold (cycle {lsq.core.engine.now})"
                    )
                LoadStoreUnit.unlock_line(lsq, line)

            lsq.unlock_line = unlock
        return violations

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_single_core_pair(self, mode):
        instrs = [
            atomic(0, pc=0x40, addr=640, op=AtomicOp.FAA),
            atomic(1, pc=0x44, addr=640, op=AtomicOp.FAA),
        ]
        sim = make_sim([instrs], mode=mode, num_cores=1)
        violations = self._instrument(sim)
        res = sim.run()
        assert not violations
        assert res.memory_snapshot.get(640) == 2
        for core in sim.cores:
            assert core.lsq.locked_lines == {}
            assert not core.port.stalled_externals

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_two_cores_hammering_one_line(self, mode):
        per_core = 8
        mk = lambda: [
            atomic(i, pc=0x40 + 4 * (i % 2), addr=640, op=AtomicOp.FAA)
            for i in range(per_core)
        ]
        sim = make_sim([mk(), mk()], mode=mode)
        violations = self._instrument(sim)
        res = sim.run()
        assert not violations
        # Atomicity across the contended line: no increment lost.
        assert res.memory_snapshot.get(640) == 2 * per_core
        for core in sim.cores:
            assert core.lsq.locked_lines == {}
            assert not core.port.stalled_externals
