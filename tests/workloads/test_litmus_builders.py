"""Litmus-program builder tests (structure only; outcomes are in
tests/integration/test_litmus.py)."""

from repro.isa.instructions import AtomicOp, InstrClass
from repro.workloads.litmus import (
    atomic_counter,
    atomic_exchange_ring,
    same_core_forwarding,
)
from repro.workloads.litmus_oracle import LITMUS_TESTS

MP, SB = LITMUS_TESTS["mp"], LITMUS_TESTS["sb"]


class TestPadding:
    def test_pad_prefixes_alu_chain(self):
        prog = MP.program(5)
        t0 = prog.traces[0]
        assert all(t0[i].cls is InstrClass.ALU for i in range(5))
        assert t0[5].cls is InstrClass.STORE

    def test_pad_chain_is_serial(self):
        prog = MP.program(4)
        t0 = prog.traces[0]
        for i in range(1, 4):
            assert t0[i].src_deps == (i - 1,)

    def test_deps_shifted_by_pad(self):
        prog = same_core_forwarding(pad=3)
        prog.validate()

    def test_metadata_seq_offsets(self):
        prog = MP.program(0, 7)
        assert prog.metadata["observed"] == ((1, 7), (1, 8))


class TestBuilders:
    def test_mp_two_threads(self):
        prog = MP.program()
        assert prog.num_threads == 2
        prog.validate()

    def test_sb_symmetric(self):
        prog = SB.program()
        for trace in prog.traces:
            assert trace.count(InstrClass.STORE) == 1
            assert trace.count(InstrClass.LOAD) == 1

    def test_counter_all_faa(self):
        prog = atomic_counter(3, 5)
        for trace in prog.traces:
            atomics = [
                i for i in trace.instructions if i.cls is InstrClass.ATOMIC
            ]
            assert len(atomics) == 5
            assert all(a.atomic_op is AtomicOp.FAA for a in atomics)

    def test_counter_expected_metadata(self):
        prog = atomic_counter(3, 5)
        assert prog.metadata["expected"] == 15

    def test_ring_tokens_distinct(self):
        prog = atomic_exchange_ring(3, 4)
        tokens = [
            i.operand
            for trace in prog.traces
            for i in trace.instructions
            if i.cls is InstrClass.ATOMIC
        ]
        assert len(tokens) == len(set(tokens)) == 12

    def test_all_builders_validate(self):
        for prog in (
            MP.program(3, 5),
            SB.program(2, 2),
            atomic_counter(4, 3),
            atomic_exchange_ring(2, 2),
            same_core_forwarding(4),
        ):
            prog.validate()
