"""Property-based end-to-end tests: atomicity and completion under random
workload shapes and timing parameters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import RunMetrics
from repro.common.params import AtomicMode, SystemParams
from repro.sim.multicore import simulate
from repro.workloads.litmus import atomic_counter
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import build_program


class TestAtomicityProperty:
    @given(
        threads=st.integers(1, 4),
        increments=st.integers(1, 25),
        mode=st.sampled_from([AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW]),
        pads=st.lists(st.integers(0, 30), min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_counter_exact_under_any_timing(self, threads, increments, mode, pads):
        prog = atomic_counter(threads, increments, pads=pads[:threads])
        params = SystemParams.quick(atomic_mode=mode)
        res = simulate(params, prog)
        assert res.memory_snapshot.get(prog.metadata["addr"], 0) == (
            threads * increments
        )


class TestCompletionProperty:
    @given(
        seed=st.integers(0, 50),
        hot_fraction=st.floats(0.0, 1.0),
        api=st.floats(0.0, 120.0),
        locality=st.floats(0.0, 1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_profiles_run_to_completion(self, seed, hot_fraction, api, locality):
        profile = get_profile("barnes").with_overrides(
            name="hypo",
            atomics_per_10k=api,
            hot_fraction=hot_fraction,
            store_before_atomic_prob=locality,
            num_hot_lines=2,
        )
        prog = build_program(profile, 2, 600, seed=seed)
        res = simulate(SystemParams.quick(atomic_mode=AtomicMode.ROW), prog)
        committed = res.merged_core_stats().counter("committed").value
        assert committed == prog.total_instructions()

class TestQuiescenceTransparencyProperty:
    @given(
        seed=st.integers(0, 100),
        workload=st.sampled_from(["pc", "barnes", "sps", "atomic_counter"]),
        mode=st.sampled_from(
            [AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW,
             AtomicMode.FENCED, AtomicMode.FAR]
        ),
        threads=st.integers(2, 4),
        consistency=st.sampled_from(["tso", "relaxed"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_quiesce_on_off_identical_metrics(
        self, seed, workload, mode, threads, consistency
    ):
        """The event pump's sleep/wake scheduling is timing-transparent:
        for any workload shape (profiles and the one-hot-line counter),
        seed, thread count, policy and consistency model, its RunMetrics
        JSON is bit-identical to the every-core-every-cycle reference
        scheduler's."""
        if workload == "atomic_counter":
            prog = atomic_counter(threads, 40)
        else:
            prog = build_program(workload, threads, 500, seed=seed)
        params = SystemParams.quick(
            atomic_mode=mode
        ).with_consistency_model(consistency)
        quiesced = simulate(params, prog)
        legacy = simulate(params, prog, quiesce=False)
        assert RunMetrics.from_result(quiesced).to_json() == (
            RunMetrics.from_result(legacy).to_json()
        )
        assert quiesced.memory_snapshot == legacy.memory_snapshot
        assert quiesced.per_core_cycles == legacy.per_core_cycles


class TestCompletionPropertyModes:
    @given(seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_modes_agree_on_final_memory_for_private_data(self, seed):
        """Runs with no shared atomics must end with identical memory images
        regardless of the execution policy (timing never changes values)."""
        profile = get_profile("barnes").with_overrides(
            name="hypo2", hot_fraction=0.0, store_before_atomic_prob=0.0
        )
        prog = build_program(profile, 2, 600, seed=seed)
        snaps = []
        for mode in (AtomicMode.EAGER, AtomicMode.LAZY):
            res = simulate(SystemParams.quick(atomic_mode=mode), prog)
            snaps.append(res.memory_snapshot)
        assert snaps[0] == snaps[1]
