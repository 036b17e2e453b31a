"""Stress tests: structural invariants under hostile configurations.

Each test cranks one pressure knob (tiny structures, aggressive timeouts,
heavy contention) and asserts the invariants that must survive anything:
exact atomicity, exact commit counts, empty structures at completion.
"""

import pytest

from repro.common.params import AtomicMode, SystemParams
from repro.sim.multicore import MulticoreSimulator, simulate
from repro.workloads.litmus import atomic_counter
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import build_program


def assert_clean_finish(sim: MulticoreSimulator) -> None:
    for core in sim.cores:
        assert core.done
        assert not core.rob
        assert not core.lsq.sb
        assert not core.policy.aq
        assert not core.lsq.lq
        assert not core.policy.lazy_waiting
        assert not core.recovery.fence_waiting
        assert not core.recovery.fences_active
        assert not core.lsq.locked_lines
        assert core.iq_used == 0
    for controller in sim.controllers:
        assert not controller.stalled_externals or all(
            not queue for queue in controller.stalled_externals.values()
        )
        assert not controller.mshrs


class TestStructuralPressure:
    @pytest.mark.parametrize("mode", [AtomicMode.EAGER, AtomicMode.ROW])
    def test_minimal_structures(self, mode):
        params = SystemParams.quick(
            atomic_mode=mode,
            rob_entries=8,
            lq_entries=4,
            sb_entries=4,
            iq_entries=4,
            aq_entries=2,
            mshr_entries=2,
        )
        prog = build_program("sps", 2, 1200, seed=0)
        sim = MulticoreSimulator(params, prog)
        res = sim.run()
        assert_clean_finish(sim)
        assert (
            res.merged_core_stats().counter("committed").value
            == prog.total_instructions()
        )

    def test_single_mshr(self):
        params = SystemParams.quick(atomic_mode=AtomicMode.EAGER, mshr_entries=1)
        prog = atomic_counter(4, 30)
        res = simulate(params, prog)
        assert res.memory_snapshot.get(prog.metadata["addr"]) == 120

    def test_tiny_network_bandwidth(self):
        params = SystemParams.quick(
            atomic_mode=AtomicMode.EAGER, link_bandwidth=1
        )
        prog = atomic_counter(4, 40)
        res = simulate(params, prog)
        assert res.memory_snapshot.get(prog.metadata["addr"]) == 160

    def test_narrow_pipeline(self):
        params = SystemParams.quick(
            atomic_mode=AtomicMode.LAZY,
            fetch_width=1,
            issue_width=1,
            commit_width=1,
        )
        prog = build_program("cq", 2, 800, seed=1)
        sim = MulticoreSimulator(params, prog)
        res = sim.run()
        assert_clean_finish(sim)
        assert (
            res.merged_core_stats().counter("committed").value
            == prog.total_instructions()
        )


class TestRevocationPressure:
    @pytest.mark.parametrize("timeout", [40, 120, 600])
    def test_aggressive_revocation_keeps_atomicity(self, timeout):
        params = SystemParams.quick(
            atomic_mode=AtomicMode.EAGER, lock_revocation_timeout=timeout
        )
        prog = atomic_counter(4, 50)
        res = simulate(params, prog)
        assert res.memory_snapshot.get(prog.metadata["addr"]) == 200

    def test_revocations_actually_fire_under_pressure(self):
        """On a contended workload with real pipelines (older work delaying
        commits), eager locks outlive a tight timeout and get revoked; the
        pure counter's back-to-back atomics unlock too fast to trigger it."""
        params = SystemParams.quick(
            atomic_mode=AtomicMode.EAGER, lock_revocation_timeout=40
        )
        prog = build_program("pc", 4, 1500, seed=0)
        res = simulate(params, prog)
        assert res.merged_core_stats().counter("lock_revocations").value > 0

    def test_contended_workload_with_tight_timeout(self):
        params = SystemParams.quick(
            atomic_mode=AtomicMode.EAGER, lock_revocation_timeout=100
        )
        prog = build_program("pc", 4, 1500, seed=0)
        sim = MulticoreSimulator(params, prog)
        res = sim.run()
        assert_clean_finish(sim)
        assert (
            res.merged_core_stats().counter("committed").value
            == prog.total_instructions()
        )


class TestHeavyContention:
    def test_extreme_profile_completes_in_every_mode(self):
        profile = get_profile("pc").with_overrides(
            name="extreme",
            atomics_per_10k=300,
            hot_fraction=0.95,
            num_hot_lines=1,
        )
        prog = build_program(profile, 4, 800, seed=0)
        for mode in (AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW, AtomicMode.FAR):
            sim = MulticoreSimulator(SystemParams.quick(atomic_mode=mode), prog)
            res = sim.run()
            assert_clean_finish(sim)
            assert (
                res.merged_core_stats().counter("committed").value
                == prog.total_instructions()
            ), mode

    def test_all_threads_one_line_locality(self):
        """Locality stores + atomics all on one shared line: the worst case
        for the forwarding promotion path."""
        profile = get_profile("cq").with_overrides(
            name="hotspot",
            hot_fraction=1.0,
            num_hot_lines=1,
            store_before_atomic_prob=1.0,
            atomics_per_10k=150,
        )
        prog = build_program(profile, 4, 800, seed=0)
        params = SystemParams.quick().with_atomic_mode(
            AtomicMode.ROW, forward_to_atomics=True
        )
        sim = MulticoreSimulator(params, prog)
        res = sim.run()
        assert_clean_finish(sim)
        assert (
            res.merged_core_stats().counter("committed").value
            == prog.total_instructions()
        )
