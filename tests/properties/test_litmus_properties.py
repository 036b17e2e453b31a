"""Property-based litmus testing: the simulator stays inside the oracle
across random timing skews."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import AtomicMode, SystemParams
from repro.sim.multicore import simulate
from repro.workloads.litmus_oracle import (
    LITMUS_TESTS,
    X,
    Y,
    allowed_outcomes,
    observed_outcome,
)

pads = st.integers(min_value=0, max_value=60)
modes = st.sampled_from([AtomicMode.EAGER, AtomicMode.LAZY])
MP = LITMUS_TESTS["mp"]


class TestMessagePassingProperty:
    @given(pad0=pads, pad1=pads, mode=modes)
    @settings(max_examples=30, deadline=None)
    def test_never_flag_without_data(self, pad0, pad1, mode):
        prog = MP.program(pad0, pad1)
        res = simulate(SystemParams.quick(atomic_mode=mode), prog)
        flag, data = observed_outcome(prog, res.load_values)
        assert not (flag == 1 and data == 0)

    @given(pad0=pads, pad1=pads)
    @settings(max_examples=20, deadline=None)
    def test_stores_always_land(self, pad0, pad1):
        prog = MP.program(pad0, pad1)
        res = simulate(SystemParams.quick(), prog)
        assert res.memory_snapshot.get(100 * 64) == 1
        assert res.memory_snapshot.get(200 * 64) == 1


class TestStoreBufferingProperty:
    @given(
        test=st.sampled_from(sorted(LITMUS_TESTS.values(), key=lambda t: t.name)),
        data=st.data(),
        obs_delay=st.integers(min_value=0, max_value=40),
        mode=st.sampled_from(
            [AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW, AtomicMode.FENCED, AtomicMode.FAR]
        ),
        model=st.sampled_from(["tso", "relaxed"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_outcome_always_legal(self, test, data, obs_delay, mode, model):
        """Any registered shape, any skew, any atomic mode: the outcome is
        one the oracle allows under the run's consistency model."""
        thread_pads = data.draw(
            st.lists(pads, min_size=len(test.threads), max_size=len(test.threads))
        )
        prog = test.program(*thread_pads, obs_delay)
        params = SystemParams.quick(atomic_mode=mode).with_consistency_model(model)
        res = simulate(params, prog, sanitize=True)
        assert observed_outcome(prog, res.load_values) in allowed_outcomes(test, model)
        # And both stores are architecturally visible at the end: every
        # registered shape writes 1 to X and to Y.
        assert res.memory_snapshot.get(X) == 1
        assert res.memory_snapshot.get(Y) == 1
