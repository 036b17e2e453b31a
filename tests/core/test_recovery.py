"""Unit tests for the RecoveryUnit: flush_from against in-flight lazy
atomics and pending fence waiters (PR 4 split).

The flushes here are *injected* mid-run from engine callbacks — the point
is that a flush landing while an atomic is parked lazy, or while memory
ops wait behind an MFENCE, leaves every queue and parking lot consistent
and the program still produces the architecturally correct result.
"""

from repro.common.params import AtomicMode, SystemParams
from repro.isa.instructions import (
    AtomicOp,
    Program,
    ThreadTrace,
    alu,
    atomic,
    load,
    mfence,
    store,
)
from repro.sim.multicore import MulticoreSimulator


def make_sim(instrs, mode=AtomicMode.EAGER):
    params = SystemParams.quick(num_cores=1, atomic_mode=mode)
    prog = Program("recovery-unit", [ThreadTrace(0, instrs)])
    return MulticoreSimulator(params, prog)


def inject_flush_when(sim, condition, pick_victim, penalty=5):
    """Poll every cycle; on the first cycle ``condition`` holds, flush from
    ``pick_victim()`` and stop polling.  Returns a [victim] cell."""
    core = sim.cores[0]
    fired = []

    def poll():
        if fired:
            return
        if condition(core):
            victim = pick_victim(core)
            fired.append(victim)
            core.recovery.flush_from(victim, sim.engine.now, penalty=penalty)
        if not core.done:
            sim.engine.schedule_in(1, poll)

    sim.engine.schedule(1, poll)
    return fired


def assert_clean(core):
    """Post-run structural invariants across every unit."""
    assert not core.lsq.lq and not core.lsq.sb
    assert not core.policy.aq
    assert not core.policy.lazy_waiting
    assert core.lsq.locked_lines == {}
    assert not core.lsq.storeset_waiting
    assert not core.lsq.memdep_waiting
    assert not core.lsq.drain_waiting
    assert not core.recovery.fences_active
    assert not core.recovery.fence_waiting


class TestFlushLazyAtomic:
    def _program(self):
        # An ALU chain keeps the lazy atomic parked for many cycles, and a
        # trailing dependent chain rides behind it.
        instrs = [
            alu(i, pc=4, deps=(i - 1,) if i else (), latency=3)
            for i in range(8)
        ]
        instrs.append(atomic(8, pc=0x40, addr=640, op=AtomicOp.FAA))
        instrs += [alu(9 + i, pc=8, deps=(8 + i,)) for i in range(4)]
        return instrs

    def test_flush_parked_lazy_atomic_replays_once(self):
        sim = make_sim(self._program(), mode=AtomicMode.LAZY)
        core = sim.cores[0]
        fired = inject_flush_when(
            sim,
            condition=lambda c: bool(c.policy.lazy_waiting),
            pick_victim=lambda c: c.policy.lazy_waiting[0],
        )
        res = sim.run()
        assert fired, "the lazy atomic never parked — test premise broken"
        assert core.stats.counter("flushes").value == 1
        # The squashed parked head left the parking lot with the flush and
        # was never issued; only its refetched copy was.
        assert fired[0].squashed and not fired[0].issued
        assert core.stats.counter("atomics_issued").value == 1
        # The squashed-and-replayed FAA applied exactly once.
        assert res.memory_snapshot.get(640) == 1
        assert core.stats.counter("atomics_committed").value == 1
        assert_clean(core)

    def test_flush_older_instr_squashes_parked_atomic_too(self):
        """Flushing from *before* the parked atomic squashes it along with
        the rest of the window; the refetched copy still completes."""
        sim = make_sim(self._program(), mode=AtomicMode.LAZY)
        core = sim.cores[0]

        def victim(c):
            for d in c.rob:
                if d.seq == 4:
                    return d
            raise AssertionError("seq 4 not in ROB")

        fired = inject_flush_when(
            sim,
            condition=lambda c: bool(c.policy.lazy_waiting)
            and any(d.seq == 4 and not d.committed for d in c.rob),
            pick_victim=victim,
        )
        res = sim.run()
        assert fired
        assert fired[0].squashed
        assert res.memory_snapshot.get(640) == 1
        assert_clean(core)


class TestFlushFenceWaiters:
    def _program(self):
        # A store that misses far away keeps the SB busy, the MFENCE holds
        # back the load behind it, which parks in fence_waiting.
        return [
            store(0, pc=4, addr=64 * (1 << 16), value=7),
            mfence(1, pc=8),
            load(2, pc=12, addr=640),
            alu(3, pc=16, deps=(2,)),
        ]

    def test_flush_parked_fence_waiter(self):
        sim = make_sim(self._program())
        core = sim.cores[0]
        fired = inject_flush_when(
            sim,
            condition=lambda c: bool(c.recovery.fence_waiting),
            pick_victim=lambda c: c.recovery.fence_waiting[0],
        )
        res = sim.run()
        assert fired, "no load ever parked behind the fence"
        # The flush pruned the parking lot immediately (no squashed entry
        # lingered to be woken later).
        assert core.stats.counter("flushes").value == 1
        assert res.memory_snapshot.get(64 * (1 << 16)) == 7
        assert res.instructions == 4
        assert_clean(core)

    def test_flush_fence_itself_clears_active_list(self):
        sim = make_sim(self._program())
        core = sim.cores[0]
        fired = inject_flush_when(
            sim,
            condition=lambda c: bool(c.recovery.fences_active),
            pick_victim=lambda c: c.recovery.fences_active[0],
        )
        res = sim.run()
        assert fired
        assert fired[0].squashed
        # The refetched fence still orders the load after the store.
        assert res.memory_snapshot.get(64 * (1 << 16)) == 7
        assert res.instructions == 4
        assert_clean(core)


class TestFencedAtomicFlush:
    def test_flush_with_fenced_atomic_in_flight(self):
        """FENCED mode: the policy's implicit barrier (fenced_atomics) must
        be pruned when the atomic squashes, or the barrier never lifts."""
        instrs = [
            alu(i, pc=4, deps=(i - 1,) if i else (), latency=3)
            for i in range(6)
        ]
        instrs.append(atomic(6, pc=0x40, addr=640, op=AtomicOp.FAA))
        instrs.append(load(7, pc=12, addr=704))
        sim = make_sim(instrs, mode=AtomicMode.FENCED)
        core = sim.cores[0]
        fired = inject_flush_when(
            sim,
            condition=lambda c: bool(c.policy.lazy_waiting),
            pick_victim=lambda c: c.policy.lazy_waiting[0],
        )
        res = sim.run()
        assert fired
        assert res.memory_snapshot.get(640) == 1
        assert not core.policy.fenced_atomics
        assert_clean(core)
