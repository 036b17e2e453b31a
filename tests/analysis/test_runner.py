"""Experiment-scale, config-builder and metrics-schema tests."""

import pytest

from repro.analysis.parallel import (
    RunSpec,
    get_default_runner,
    reset_default_runner,
)
from repro.analysis.runner import (
    FULL,
    PAPER,
    QUICK,
    SMOKE,
    ROW_VARIANTS,
    RunMetrics,
    base_params,
    config,
    default_scale,
    normalized_time,
    scale_by_name,
)
from repro.common.params import (
    AtomicMode,
    DetectionMode,
    PredictorKind,
    SystemParams,
)


@pytest.fixture(autouse=True)
def fresh_default_runner():
    reset_default_runner()
    yield
    reset_default_runner()


class TestScales:
    def test_named_scales(self):
        assert scale_by_name("smoke") is SMOKE
        assert scale_by_name("quick") is QUICK
        assert scale_by_name("full") is FULL
        assert scale_by_name("paper") is PAPER

    def test_unknown_scale_is_value_error_naming_scales(self):
        with pytest.raises(ValueError, match="bogus"):
            scale_by_name("bogus")
        with pytest.raises(ValueError, match="smoke.*"):
            scale_by_name("bogus")
        try:
            scale_by_name("bogus")
        except ValueError as exc:
            for name in ("smoke", "quick", "full", "paper"):
                assert name in str(exc)

    def test_default_scale_explicit_name(self):
        assert default_scale("smoke") is SMOKE
        assert default_scale("paper") is PAPER

    def test_default_scale_ignores_env(self, monkeypatch):
        """A stray ``REPRO_SCALE`` must not change what library code runs
        (the variable is read only at the edge, benchmarks/conftest.py)."""
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert default_scale() is QUICK
        assert default_scale("full") is FULL

    def test_base_params_match_scale(self):
        assert base_params(SMOKE).num_cores == 4
        assert base_params(QUICK).num_cores == 8
        assert base_params(PAPER).num_cores == 32


class TestConfigBuilder:
    def test_mode_only(self):
        p = config(SystemParams.quick(), AtomicMode.LAZY)
        assert p.atomic_mode is AtomicMode.LAZY

    def test_row_knobs(self):
        p = config(
            SystemParams.quick(),
            AtomicMode.ROW,
            DetectionMode.EW,
            PredictorKind.SATURATE,
            forwarding=True,
        )
        assert p.row.detection is DetectionMode.EW
        assert p.row.predictor is PredictorKind.SATURATE
        assert p.row.forward_to_atomics

    def test_threshold_override(self):
        p = config(
            SystemParams.quick(), AtomicMode.ROW, latency_threshold=None
        )
        assert p.row.latency_threshold is None

    def test_threshold_default_preserved(self):
        p = config(SystemParams.quick(), AtomicMode.ROW)
        assert p.row.latency_threshold == SystemParams.quick().row.latency_threshold

    def test_six_row_variants(self):
        assert len(ROW_VARIANTS) == 6
        names = [name for name, _, _ in ROW_VARIANTS]
        assert "RW+Dir_U/D" in names
        assert "RW+Dir_Sat" in names


class TestShimsRetired:
    """The PR-2 deprecation shims are gone; the Runner API is the one API."""

    def test_module_level_shims_removed(self):
        import repro.analysis.runner as runner_mod

        for name in ("run_one", "run_seeds", "clear_cache", "_deprecated"):
            assert not hasattr(runner_mod, name), name

    def test_package_no_longer_exports_shims(self):
        import repro.analysis as analysis

        for name in ("run_one", "run_seeds", "clear_cache"):
            assert not hasattr(analysis, name), name
            assert name not in analysis.__all__


class TestMetricsSchema:
    def _metrics(self) -> RunMetrics:
        spec = RunSpec.build("fmm", base_params(SMOKE), SMOKE, seed=0)
        return get_default_runner().run(spec)

    def test_json_roundtrip_is_equal(self):
        m = self._metrics()
        again = RunMetrics.from_json(m.to_json())
        assert again == m

    def test_from_dict_missing_field_raises(self):
        payload = self._metrics().to_dict()
        del payload["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            RunMetrics.from_dict(payload)

    def test_from_dict_non_dict_raises(self):
        with pytest.raises(ValueError):
            RunMetrics.from_dict([1, 2, 3])


class TestNormalizedTime:
    def test_self_is_one(self):
        params = base_params(SMOKE)
        assert normalized_time("fmm", params, params, SMOKE) == pytest.approx(1.0)

    def test_positive(self):
        base = base_params(SMOKE)
        value = normalized_time(
            "fmm", config(base, AtomicMode.LAZY), config(base, AtomicMode.EAGER), SMOKE
        )
        assert value > 0
