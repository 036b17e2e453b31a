"""TSO litmus tests run across many deterministic timing skews."""

import pytest

from repro.common.params import AtomicMode, SystemParams
from repro.sim.multicore import simulate
from repro.workloads.litmus import same_core_forwarding
from repro.workloads.litmus_oracle import LITMUS_TESTS, observed_outcome

MP, SB = LITMUS_TESTS["mp"], LITMUS_TESTS["sb"]

PADS = [0, 1, 2, 5, 9, 14, 23, 40]


def run(prog, mode=AtomicMode.EAGER):
    params = SystemParams.quick(atomic_mode=mode)
    return simulate(params, prog)


class TestMessagePassing:
    @pytest.mark.parametrize("pad1", PADS)
    def test_forbidden_outcome_never_observed(self, pad1):
        """flag==1 && data==0 violates TSO; the LQ invalidation snoop must
        prevent it across all skews."""
        for pad0 in (0, 3, 11):
            prog = MP.program(pad0, pad1)
            res = run(prog)
            flag, data = observed_outcome(prog, res.load_values)
            assert not (flag == 1 and data == 0), (
                f"TSO violation at pads=({pad0},{pad1}): flag=1, data=0"
            )

    def test_eventual_visibility(self):
        """With the reader long-delayed, both stores must be visible."""
        prog = MP.program(0, 300)
        res = run(prog)
        assert observed_outcome(prog, res.load_values) == (1, 1)

    def test_final_memory_state(self):
        prog = MP.program()
        res = run(prog)
        snap = res.memory_snapshot
        assert snap.get(100 * 64) == 1
        assert snap.get(200 * 64) == 1


class TestStoreBuffering:
    @pytest.mark.parametrize("pad", PADS)
    def test_outcomes_within_tso_set(self, pad):
        """All four outcomes are legal under TSO (including 0,0 — that is
        what distinguishes TSO from SC); just check legality and progress."""
        prog = SB.program(pad, 0)
        res = run(prog)
        assert observed_outcome(prog, res.load_values) in {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_relaxed_outcome_occurs(self):
        """Symmetric threads with store buffers should show r0==r1==0 for at
        least one skew — evidence the model is TSO, not SC."""
        seen = set()
        for pad in PADS:
            prog = SB.program(pad, pad)
            res = run(prog)
            seen.add(observed_outcome(prog, res.load_values))
        assert (0, 0) in seen


class TestSameCoreForwarding:
    @pytest.mark.parametrize("mode", [AtomicMode.EAGER, AtomicMode.LAZY])
    def test_load_sees_own_store(self, mode):
        prog = same_core_forwarding()
        res = run(prog, mode)
        assert res.load_values[0][prog.metadata["load_seq"]] == 7

    @pytest.mark.parametrize("mode", [AtomicMode.EAGER, AtomicMode.LAZY])
    def test_atomic_rmws_own_store_value(self, mode):
        prog = same_core_forwarding()
        res = run(prog, mode)
        assert res.load_values[0][prog.metadata["faa_seq"]] == 7  # old value
        assert res.load_values[0][prog.metadata["final_load_seq"]] == 8

    def test_final_memory_has_rmw_result(self):
        prog = same_core_forwarding()
        res = run(prog)
        assert res.memory_snapshot.get(100 * 64) == 8
