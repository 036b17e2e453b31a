"""The exhaustive-interleaving oracle reproduces the textbook outcome
sets, and each skeleton compiles into its simulator program."""

import hashlib
import json

import pytest

from repro.common.params import ConsistencyKind
from repro.isa.instructions import AtomicOp, InstrClass
from repro.isa.serialize import instruction_to_record
from repro.workloads.litmus_oracle import (
    LITMUS_TESTS,
    X,
    Y,
    LitmusTest,
    Op,
    _may_execute,
    allowed_outcomes,
    ld,
    rmw,
    st,
)

ALL = sorted(LITMUS_TESTS)

#: sha256 prefixes over (pads, instruction records, observed) of every
#: pad set plus the unpadded build, pinned from the hand-written builders
#: the compiler replaced: the compiled programs are those programs.  The
#: pad sets are those the builders were swept over (frozen in
#: HAND_BUILDER_PADS), not the registry's current ones.
PROGRAM_DIGESTS = {
    "mp": "ead1b35ba406f331",
    "mp+fences": "c674dd34ff5139a6",
    "sb": "97083fdec978db73",
    "sb+fences": "3c0a3aefcad28cd4",
    "lb": "c6eda803c2805931",
    "iriw": "0269b145dd9a9e4a",
}


_MP = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (4, 4, 0), (16, 16, 0), (8, 0, 20), (16, 0, 20), (24, 0, 40))
_PADS_2 = tuple((a, b) for a in (0, 2, 6, 12) for b in (0, 2, 6, 12))
HAND_BUILDER_PADS = {
    "mp": _MP,
    "mp+fences": ((0, 0, 0), (2, 0, 0), (4, 4, 0), (8, 0, 20), (16, 0, 20), (24, 0, 40)),
    "sb": _PADS_2,
    "sb+fences": _PADS_2,
    "lb": _PADS_2,
    "iriw": (
        (0, 0, 0, 0, 0), (0, 4, 2, 6, 0), (4, 0, 6, 2, 0), (2, 2, 10, 10, 0),
        (8, 8, 0, 0, 20), (16, 8, 0, 0, 20), (16, 16, 0, 0, 20), (24, 24, 0, 0, 40),
    ),
}


def program_digest(test: LitmusTest) -> str:
    h = hashlib.sha256()
    for pads in ((),) + HAND_BUILDER_PADS[test.name]:
        program = test.program(*pads)
        records = [[instruction_to_record(i) for i in t.instructions] for t in program.traces]
        observed = [list(o) for o in program.metadata["observed"]]
        h.update(json.dumps([list(pads), records, observed]).encode())
    return h.hexdigest()[:16]


class TestRegistryShape:
    @pytest.mark.parametrize("name", ALL)
    def test_observed_metadata_agrees(self, name):
        test = LITMUS_TESTS[name]
        program = test.program()
        assert len(program.metadata["observed"]) == len(test.observed)
        for (tid, seq), (otid, idx) in zip(program.metadata["observed"], test.observed):
            assert tid == otid
            assert program.traces[tid][seq].addr == test.threads[tid][idx].addr


class TestCompiledPrograms:
    @pytest.mark.parametrize("name", sorted(PROGRAM_DIGESTS))
    def test_same_programs_as_the_hand_builders(self, name):
        assert program_digest(LITMUS_TESTS[name]) == PROGRAM_DIGESTS[name]

    def test_memory_ops_every_four_bytes_fences_two_past(self):
        test = LITMUS_TESTS["mp+fences"]
        t0 = test.program().traces[0]
        assert [(i.cls, i.pc) for i in t0.instructions] == [
            (InstrClass.STORE, 0x100),
            (InstrClass.MFENCE, 0x102),
            (InstrClass.STORE, 0x104),
        ]

    def test_delay_chain_feeds_only_the_delayed_load(self):
        prog = LITMUS_TESTS["mp"].program(2, 1, 3)
        t1 = prog.traces[1].instructions
        assert [i.cls for i in t1] == [InstrClass.ALU] * 4 + [InstrClass.LOAD] * 2
        assert [i.pc for i in t1[1:4]] == [0x14] * 3
        flag, data = t1[4], t1[5]
        assert flag.src_deps == (3,) and data.src_deps == ()
        assert prog.metadata["observed"] == ((1, 4), (1, 5))

    def test_pc_bases_are_shape_data(self):
        prog = LITMUS_TESTS["iriw"].program()
        assert [t[0].pc for t in prog.traces] == [0x100, 0x110, 0x200, 0x300]

    def test_atomics_and_deps_compile(self):
        test = LitmusTest(
            name="t",
            threads=((ld(X), Op("atomic", Y, 5, AtomicOp.SWAP, deps=(0,))),),
            observed=((0, 1),),
            forbidden={},
            pad_sets=(),
        )
        swap = test.program(2).traces[0][3]
        assert swap.cls is InstrClass.ATOMIC and swap.atomic_op is AtomicOp.SWAP
        assert (swap.addr, swap.operand, swap.src_deps, swap.pc) == (Y, 5, (2,), 0x104)
        assert test.program(2).metadata["observed"] == ((0, 3),)


class TestAtomicDrainsStoreBuffer:
    """Under TSO a locked RMW waits for an SB empty of older stores,
    whatever their address; RELAXED keeps the same-address rule."""

    OPS = (st(X, 1), rmw(AtomicOp.FAA, Y))
    OLDER_STORE = ((X, 1, 0),)

    def test_tso_atomic_waits_for_any_older_store(self):
        assert not _may_execute(self.OPS, 1, 0b01, self.OLDER_STORE, ConsistencyKind.TSO)
        assert _may_execute(self.OPS, 1, 0b01, (), ConsistencyKind.TSO)

    def test_relaxed_atomic_waits_only_for_same_address(self):
        assert _may_execute(self.OPS, 1, 0b01, self.OLDER_STORE, ConsistencyKind.RELAXED)
        same = (st(Y, 1), rmw(AtomicOp.FAA, Y))
        assert not _may_execute(same, 1, 0b01, ((Y, 1, 0),), ConsistencyKind.RELAXED)

    def test_mp_with_swap_flag_forbids_flag_without_data(self):
        test = LITMUS_TESTS["mp+swap"]
        assert allowed_outcomes(test, "tso") == frozenset({(0, 0), (0, 1), (1, 1)})
        assert (1, 0) in allowed_outcomes(test, "relaxed")

    def test_sb_with_rmw_forbids_both_zero(self):
        test = LITMUS_TESTS["sb+rmw"]
        assert allowed_outcomes(test, "tso") == frozenset({(0, 1), (1, 0), (1, 1)})
        assert (0, 0) in allowed_outcomes(test, "relaxed")


class TestOutcomeSets:
    @pytest.mark.parametrize("name", ALL)
    def test_forbidden_tags_hold(self, name):
        """The human-readable forbidden tag agrees with the enumeration."""
        test = LITMUS_TESTS[name]
        for kind, forbidden in test.forbidden.items():
            assert not (allowed_outcomes(test, kind) & forbidden)

    @pytest.mark.parametrize("name", ALL)
    def test_tso_is_a_subset_of_relaxed(self, name):
        test = LITMUS_TESTS[name]
        tso = allowed_outcomes(test, ConsistencyKind.TSO)
        relaxed = allowed_outcomes(test, ConsistencyKind.RELAXED)
        assert tso <= relaxed

    @pytest.mark.parametrize("name", ALL)
    def test_relaxed_only_tags_hold(self, name):
        test = LITMUS_TESTS[name]
        tso = allowed_outcomes(test, "tso")
        relaxed = allowed_outcomes(test, "relaxed")
        for outcome in test.relaxed_only:
            assert outcome in relaxed and outcome not in tso

    def test_mp_textbook_sets(self):
        test = LITMUS_TESTS["mp"]
        assert allowed_outcomes(test, "tso") == frozenset(
            {(0, 0), (0, 1), (1, 1)}
        )
        assert allowed_outcomes(test, "relaxed") == frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1)}
        )

    def test_fences_remove_the_weak_outcomes(self):
        mp_f = LITMUS_TESTS["mp+fences"]
        assert (1, 0) not in allowed_outcomes(mp_f, "relaxed")
        sb_f = LITMUS_TESTS["sb+fences"]
        for model in ("tso", "relaxed"):
            assert (0, 0) not in allowed_outcomes(sb_f, model)

    def test_sb_allows_both_zero_under_tso(self):
        """(0, 0) is what separates TSO from SC: the store buffer alone
        produces it, so even the strong model admits it."""
        assert (0, 0) in allowed_outcomes(LITMUS_TESTS["sb"], "tso")

    def test_lb_weak_outcome_only_under_relaxed(self):
        test = LITMUS_TESTS["lb"]
        assert (1, 1) not in allowed_outcomes(test, "tso")
        assert (1, 1) in allowed_outcomes(test, "relaxed")

    def test_iriw_disagreeing_readers_only_under_relaxed(self):
        test = LITMUS_TESTS["iriw"]
        assert (1, 0, 1, 0) not in allowed_outcomes(test, "tso")
        assert (1, 0, 1, 0) in allowed_outcomes(test, "relaxed")
