"""Lazy-atomic release: the pump asks ``atomic_lazy_ready`` about the
load-queue head only (ISSUE 24).

The head-only pump replaced a walk over the whole parking lot.  These
tests pin the behaviours that walk guaranteed and the recorded digests do
not reach: release order when atomics park out of program order, the
fenced/far policies (no wide digest covers them), the counted
one-query-per-pump bound, and the ``lazy-release-order`` sanitizer
checker that keeps the old walk as the oracle.
"""

from functools import partial

import pytest

from repro.analysis.runner import RunMetrics
from repro.cli import run_counting_lazy_queries
from repro.common.params import AtomicMode, SystemParams
from repro.core.consistency import TSOModel
from repro.isa.instructions import (
    AtomicOp,
    Program,
    ThreadTrace,
    alu,
    atomic,
    load,
)
from repro.sanitize.errors import ProtocolInvariantError
from repro.sim.multicore import MulticoreSimulator
from repro.workloads.litmus import atomic_counter
from repro.workloads.synthetic import build_program

MODELS = ("tso", "relaxed")


def walk_pump(policy, now, budget):
    """Reference: the walk ``AtomicPolicyBase.pump`` did before ISSUE 24 —
    ask the predicate about every parked atomic, rebuild the lot."""
    if not policy.lazy_waiting:
        return budget, False
    worked = False
    still_waiting = []
    for dyn in policy.lazy_waiting:
        if dyn.squashed:
            continue
        if budget and policy.lazy_ready(dyn):
            policy.issue_full(dyn, now)
            budget -= 1
            worked = True
        else:
            still_waiting.append(dyn)
    policy.lazy_waiting = still_waiting
    return budget, worked


def run(params, prog, reference=False):
    sim = MulticoreSimulator(params, prog)
    if reference:
        for core in sim.cores:
            core.policy.pump = partial(walk_pump, core.policy)
    return sim.run()


def assert_same_run(new, ref):
    assert RunMetrics.from_result(new).to_json() == (
        RunMetrics.from_result(ref).to_json()
    )
    assert new.memory_snapshot == ref.memory_snapshot
    assert new.per_core_cycles == ref.per_core_cycles


def policy_params(mode, model):
    row = {"forward_to_atomics": True} if mode is AtomicMode.ROW else {}
    return (
        SystemParams.quick()
        .with_atomic_mode(mode, **row)
        .with_consistency_model(model)
    )


LAZY_PATH_MODES = (
    AtomicMode.LAZY, AtomicMode.ROW, AtomicMode.FENCED, AtomicMode.FAR
)


class TestOutOfOrderParking:
    """``lazy_waiting`` is in *issue* order: a younger atomic with ready
    operands parks before an older one still waiting on its operands.
    Release must follow program order anyway."""

    ADDR = 640

    def _program(self):
        chain = [
            alu(i, pc=4, deps=(i - 1,) if i else (), latency=3)
            for i in range(6)
        ]
        older = atomic(6, pc=0x40, addr=self.ADDR, op=AtomicOp.FAA, deps=(5,))
        younger = atomic(7, pc=0x44, addr=self.ADDR, op=AtomicOp.FAA, operand=10)
        return Program("park-order", [ThreadTrace(0, chain + [older, younger])])

    def _run_logged(self, params, reference=False):
        sim = MulticoreSimulator(params, self._program())
        policy = sim.cores[0].policy
        if reference:
            policy.pump = partial(walk_pump, policy)
        parked, issued = [], []
        first_issue, issue_full = policy.first_issue, policy.issue_full

        def log_first_issue(dyn, now):
            consumed = first_issue(dyn, now)
            if dyn in policy.lazy_waiting:
                parked.append(dyn.seq)
            return consumed

        def log_issue_full(dyn, now):
            issued.append(dyn.seq)
            issue_full(dyn, now)

        policy.first_issue = log_first_issue
        policy.issue_full = log_issue_full
        return sim.run(), parked, issued

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("mode", [AtomicMode.LAZY, AtomicMode.FENCED])
    def test_release_follows_program_order(self, mode, model):
        params = SystemParams.quick(
            num_cores=1, atomic_mode=mode
        ).with_consistency_model(model)
        res, parked, issued = self._run_logged(params)
        ref, _, ref_issued = self._run_logged(params, reference=True)
        if mode is AtomicMode.LAZY:
            # Fenced holds the younger atomic behind the older's barrier
            # instead of parking it, so the premise is lazy-only.
            assert parked == [7, 6], "younger atomic did not park first"
        assert issued == ref_issued == [6, 7]
        assert res.memory_snapshot.get(self.ADDR) == 11
        assert_same_run(res, ref)


class TestMatchesReferenceWalk:
    """New pump vs the old walk where no recorded digest reaches (the
    wide digests cover eager / lazy / row only)."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("mode", LAZY_PATH_MODES)
    def test_identical_runs(self, mode, model):
        params = policy_params(mode, model)
        programs = [atomic_counter(n, 40) for n in (2, 3, 4)] + [
            build_program(name, 2, 300, seed=1)
            for name in ("pc", "canneal", "tpcc")  # 5 lazy atomics each
        ]
        for prog in programs:
            assert_same_run(run(params, prog), run(params, prog, reference=True))


class TestCountedQueries:
    """Tier-1 mirror of ``repro check``'s ``lazy readiness`` line: at most
    one ``atomic_lazy_ready`` query per core pump (the walk read ~6 per
    pump on this cell)."""

    @pytest.mark.parametrize("mode", LAZY_PATH_MODES)
    def test_at_most_one_query_per_pump(self, mode):
        prog = atomic_counter(4, 50)
        result, queries = run_counting_lazy_queries(
            policy_params(mode, "tso"), prog
        )
        assert result.memory_snapshot.get(prog.metadata["addr"]) == 200
        assert 0 < queries <= result.spine["step_calls"]


class HeadBlindTSO(TSOModel):
    """Seeded defect: a model whose lazy rule forgets the LQ head (the SB
    is drained down to the atomic, but an older load is still in flight)."""

    def atomic_lazy_ready(self, dyn, lq, sb):
        return bool(sb) and sb[0] is dyn


class TestLazyReleaseOrderChecker:
    def test_head_blind_model_trips_the_checker(self):
        # The far-away load misses and stays the LQ head while the atomic
        # behind it parks with the SB already drained down to itself.
        instrs = [
            load(0, pc=4, addr=64 * (1 << 16)),
            atomic(1, pc=0x40, addr=640, op=AtomicOp.FAA),
            alu(2, pc=8, deps=(1,)),
        ]
        params = SystemParams.quick(num_cores=1, atomic_mode=AtomicMode.LAZY)
        prog = Program("head-blind", [ThreadTrace(0, instrs)])
        sim = MulticoreSimulator(params, prog, sanitize=True)
        sim.cores[0].consistency = HeadBlindTSO()
        with pytest.raises(ProtocolInvariantError, match="lazy-release-order"):
            sim.run()

    def test_clean_run_counts_checks(self):
        sim = MulticoreSimulator(
            SystemParams.quick(atomic_mode=AtomicMode.LAZY),
            atomic_counter(4, 10),
            sanitize=True,
        )
        sim.run()
        assert sim.sanitizer.checks.get("lazy-release-order", 0) > 0
