"""Unit tests for the pluggable consistency-model seam."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import ConsistencyKind, SystemParams
from repro.core.consistency import (
    _MODEL_BY_KIND,
    ConsistencyModel,
    RelaxedModel,
    TSOModel,
    make_model,
)
from repro.core.dyninstr import DynInstr
from repro.isa.instructions import LINE_BYTES, atomic, load, store
from repro.sim.multicore import simulate
from repro.workloads import litmus
from repro.workloads.litmus_oracle import LITMUS_TESTS, observed_outcome

TSO = make_model(ConsistencyKind.TSO)
RELAXED = make_model(ConsistencyKind.RELAXED)


def dyn(ins, uid=0, committed=False):
    d = DynInstr(ins, uid, 0)
    d.committed = committed
    return d


def sb_store(seq, line, committed=True, uid=None):
    return dyn(
        store(seq, pc=0x100, addr=line * LINE_BYTES, value=1),
        uid=uid if uid is not None else seq,
        committed=committed,
    )


class TestResolution:
    def test_from_name_and_kind(self):
        assert ConsistencyModel.from_name("tso") is TSO
        assert ConsistencyModel.from_name("relaxed") is RELAXED
        assert ConsistencyModel.from_name(ConsistencyKind.TSO) is TSO
        assert isinstance(TSO, TSOModel)
        assert isinstance(RELAXED, RelaxedModel)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            ConsistencyModel.from_name("sc")

    def test_models_are_shared_singletons(self):
        assert make_model(ConsistencyKind.TSO) is TSO
        assert TSO.name == "tso" and RELAXED.name == "relaxed"

    def test_params_carry_the_kind(self):
        p = SystemParams.quick()
        assert p.consistency_model is ConsistencyKind.TSO
        assert (
            p.with_consistency_model("relaxed").consistency_model
            is ConsistencyKind.RELAXED
        )
        with pytest.raises(ValueError):
            p.with_consistency_model("weak-ordering")


class TestLoadLoadOrdering:
    def test_tso_snoops_relaxed_does_not(self):
        assert TSO.load_load_ordered() is True
        assert RELAXED.load_load_ordered() is False


class TestDrainCandidates:
    def test_tso_is_fifo_head_only(self):
        sb = deque([sb_store(0, line=1), sb_store(1, line=2)])
        assert TSO.drain_candidates(sb) == (sb[0],)

    def test_tso_uncommitted_head_blocks(self):
        sb = deque([sb_store(0, line=1, committed=False)])
        assert TSO.drain_candidates(sb) == ()

    def test_relaxed_offers_committed_prefix(self):
        a, b, c = sb_store(0, 1), sb_store(1, 2), sb_store(2, 3)
        assert RELAXED.drain_candidates(deque([a, b, c])) == (a, b, c)

    def test_relaxed_stops_at_uncommitted(self):
        a, b = sb_store(0, 1), sb_store(1, 2, committed=False)
        c = sb_store(2, 3)
        assert RELAXED.drain_candidates(deque([a, b, c])) == (a,)

    def test_relaxed_same_line_keeps_fifo(self):
        a, b, c = sb_store(0, 1), sb_store(1, 1), sb_store(2, 2)
        # b is to a's line: it must wait for a; c may bypass both.
        assert RELAXED.drain_candidates(deque([a, b, c])) == (a, c)

    def test_relaxed_atomic_serializes_the_scan(self):
        a = sb_store(0, 1)
        rmw = dyn(
            atomic(1, pc=0x300, addr=5 * LINE_BYTES), uid=1, committed=True
        )
        c = sb_store(2, 3)
        # Non-head atomic stops the scan: nothing younger may bypass it.
        assert RELAXED.drain_candidates(deque([a, rmw, c])) == (a,)
        # At the head it is itself the (only) candidate.
        assert RELAXED.drain_candidates(deque([rmw, c])) == (rmw,)


class TestAtomicRules:
    def _rmw(self, seq=2, line=7):
        return dyn(atomic(seq, pc=0x300, addr=line * LINE_BYTES), uid=seq)

    def test_commit_rule_shared_by_both_models(self):
        rmw = self._rmw()
        other = sb_store(0, 1)
        for model in (TSO, RELAXED):
            assert model.atomic_commit_ready(rmw, deque([rmw, other]))
            assert not model.atomic_commit_ready(rmw, deque([other, rmw]))
            assert not model.atomic_commit_ready(rmw, deque())

    def test_tso_lazy_ready_needs_full_drain(self):
        rmw = self._rmw()
        older = sb_store(0, 1)
        lq = deque([rmw])
        assert TSO.atomic_lazy_ready(rmw, lq, deque([rmw]))
        assert not TSO.atomic_lazy_ready(rmw, lq, deque([older, rmw]))
        assert not TSO.atomic_lazy_ready(rmw, deque([dyn(load(0, pc=0, addr=0)), rmw]), deque([rmw]))

    def test_relaxed_lazy_ready_waits_only_for_same_line(self):
        rmw = self._rmw(line=7)
        other_line = sb_store(0, line=3)
        same_line = sb_store(1, line=7)
        lq = deque([rmw])
        assert RELAXED.atomic_lazy_ready(rmw, lq, deque([other_line, rmw]))
        assert not RELAXED.atomic_lazy_ready(rmw, lq, deque([same_line, rmw]))
        assert not RELAXED.atomic_lazy_ready(rmw, deque(), deque([rmw]))

    @pytest.mark.parametrize(
        "model", list(_MODEL_BY_KIND.values()), ids=lambda m: m.name
    )
    @given(
        window=st.lists(
            st.tuples(
                st.sampled_from(["load", "store", "atomic"]),
                st.integers(0, 3),  # line
                st.booleans(),  # still in the LQ (loads, atomics)
                st.booleans(),  # still in the SB (stores, atomics)
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_lazy_ready_only_for_the_lq_head(self, model, window):
        """The contract the policy's head-only pump rests on: whatever
        the queues hold, a model says "ready" only about ``lq[0]``."""
        make = {
            "load": lambda seq, addr: load(seq, pc=0x10, addr=addr),
            "store": lambda seq, addr: store(seq, pc=0x20, addr=addr, value=1),
            "atomic": lambda seq, addr: atomic(seq, pc=0x30, addr=addr),
        }
        lq, sb, atomics = deque(), deque(), []
        for seq, (kind, line, in_lq, in_sb) in enumerate(window):
            d = dyn(make[kind](seq, line * LINE_BYTES), uid=seq)
            if kind != "store" and in_lq:
                lq.append(d)
            if kind != "load" and in_sb:
                sb.append(d)
            if kind == "atomic":
                atomics.append(d)
        for d in atomics:
            if model.atomic_lazy_ready(d, lq, sb):
                assert lq and lq[0] is d


class TestFenceRule:
    def test_fence_waits_for_older_stores_only(self):
        from repro.isa.instructions import mfence

        fence = dyn(mfence(2, pc=0x10))
        older, younger = sb_store(0, 1), sb_store(3, 2)
        for model in (TSO, RELAXED):
            assert not model.fence_satisfied(fence, deque([older]))
            assert model.fence_satisfied(fence, deque([younger]))
            assert model.fence_satisfied(fence, deque())


class TestEndToEnd:
    """The plug changes machine behaviour — and keeps invariants."""

    def test_relaxed_reaches_tso_forbidden_mp_outcome(self):
        params = SystemParams.quick().with_consistency_model("relaxed")
        prog = LITMUS_TESTS["mp"].program(8, 0, 20)
        res = simulate(params, prog, sanitize=True)
        assert observed_outcome(prog, res.load_values) == (1, 0)

    def test_tso_never_shows_it_on_the_same_program(self):
        params = SystemParams.quick()
        for pads in ((8, 0, 20), (16, 0, 20), (24, 0, 40)):
            prog = LITMUS_TESTS["mp"].program(*pads)
            res = simulate(params, prog, sanitize=True)
            assert observed_outcome(prog, res.load_values) != (1, 0), pads

    def test_fences_forbid_it_again_under_relaxed(self):
        params = SystemParams.quick().with_consistency_model("relaxed")
        for pads in ((8, 0, 20), (16, 0, 20), (24, 0, 40), (0, 0, 0)):
            prog = LITMUS_TESTS["mp+fences"].program(*pads)
            res = simulate(params, prog, sanitize=True)
            assert observed_outcome(prog, res.load_values) != (1, 0), pads

    @pytest.mark.parametrize("mode", ["eager", "lazy", "row", "far"])
    def test_atomic_counter_exact_under_relaxed(self, mode):
        from repro.common.params import AtomicMode

        params = (
            SystemParams.quick()
            .with_atomic_mode(AtomicMode.from_name(mode))
            .with_consistency_model("relaxed")
        )
        prog = litmus.atomic_counter(4, 20, pads=[0, 3, 7, 11])
        res = simulate(params, prog, sanitize=True)
        assert res.memory_snapshot.get(prog.metadata["addr"]) == 80
