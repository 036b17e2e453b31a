"""The committed campaign specs expand to exactly the grids the figure,
ablation and extension-bench code used to build by hand — asserted
spec-set equality, so the hand-built grids below are the reference the
specs are held to, and `repro figure <id>` and `repro campaign run
campaigns/<id>.yaml` hit the same cache entries by construction."""

import pathlib
from dataclasses import replace

import pytest

import repro.analysis.ablations as ablations_mod
import repro.analysis.figures as figures_mod
from repro.analysis.figures import TABLES, load_table_campaign
from repro.analysis.parallel import RunSpec
from repro.analysis.runner import (
    FULL,
    QUICK,
    ROW_VARIANTS,
    SMOKE,
    base_params,
    config,
)
from repro.common.params import AtomicMode, DetectionMode, PredictorKind
from repro.service import planner
from repro.service.schema import (
    default_campaign_dir,
    load_campaign,
    load_named_campaign,
)
from repro.workloads.profiles import FIGURE_ORDER as ATOMIC_WORKLOADS
from repro.workloads.profiles import get_profile

# The workloads whose behaviour stresses each sizing choice: contended
# apps expose predictor aliasing; mixed apps expose update policy.
ABLATION_WORKLOADS = ("canneal", "cq", "raytrace", "tpcc", "sps", "pc")


def mixed_alias_profile():
    """The workload class where predictor aliasing hurts most: half the
    atomic sites are contended (want lazy), the other half miss to a huge
    uncontended region (want eager)."""
    return get_profile("canneal").with_overrides(
        name="mixed-alias",
        hot_fraction=0.45,
        num_hot_lines=2,
        atomics_per_10k=60,
        atomic_sites=8,
    )


def expand(name, scale=SMOKE):
    return set(planner.expand_campaign(load_named_campaign(name), scale))


class TestFigureParity:
    def test_fig1_fig4_fig6_eager_lazy_grid(self):
        base = base_params(SMOKE)
        manual = set(
            RunSpec.grid(
                list(ATOMIC_WORKLOADS),
                [config(base, AtomicMode.EAGER), config(base, AtomicMode.LAZY)],
                SMOKE,
            )
        )
        for name in ("fig1", "fig4", "fig6"):
            assert expand(name) == manual, name

    def test_fig5_eager_only(self):
        base = base_params(SMOKE)
        manual = set(
            RunSpec.grid(
                list(ATOMIC_WORKLOADS), [config(base, AtomicMode.EAGER)], SMOKE
            )
        )
        assert expand("fig5") == manual

    def test_fig9_row_variants(self):
        base = base_params(SMOKE)
        configs = [config(base, AtomicMode.EAGER), config(base, AtomicMode.LAZY)]
        configs += [
            config(base, AtomicMode.ROW, det, pred)
            for _, det, pred in ROW_VARIANTS
        ]
        manual = set(RunSpec.grid(list(ATOMIC_WORKLOADS), configs, SMOKE))
        assert expand("fig9") == manual

    def test_fig10_thresholds(self):
        base = base_params(SMOKE)
        configs = [config(base, AtomicMode.EAGER)]
        configs += [
            config(
                base,
                AtomicMode.ROW,
                DetectionMode.RW_DIR,
                PredictorKind.SATURATE,
                latency_threshold=thr,
            )
            for thr in (0, 40, 120, 400, 2000, None)
        ]
        manual = set(RunSpec.grid(list(ATOMIC_WORKLOADS), configs, SMOKE))
        assert expand("fig10") == manual

    def test_fig13_forwarding_variants(self):
        base = base_params(SMOKE)
        configs = [
            config(base, AtomicMode.EAGER),
            config(base, AtomicMode.LAZY),
            config(base, AtomicMode.EAGER, forwarding=True),
        ]
        for det, pred in (
            (DetectionMode.RW_DIR, PredictorKind.UPDOWN),
            (DetectionMode.RW_DIR, PredictorKind.SATURATE),
        ):
            configs.append(config(base, AtomicMode.ROW, det, pred))
            configs.append(
                config(base, AtomicMode.ROW, det, pred, forwarding=True)
            )
        manual = set(RunSpec.grid(list(ATOMIC_WORKLOADS), configs, SMOKE))
        assert expand("fig13") == manual

    def test_fig2_microbench_axes(self):
        campaign = load_named_campaign("fig2")
        cells = list(planner.iter_cells(campaign, SMOKE))
        assert len(cells) == 2 * 3 * 4  # machines x ops x variants
        assert {c["machine"] for c in cells} == {"old-x86", "new-x86"}
        assert {c.spec.workload.op.value for c in cells} == {"faa", "cas", "swap"}
        assert {c.spec.workload.iterations for c in cells} == {200}


class TestAblationParity:
    def test_predictor_entries_sweep(self):
        base = base_params(SMOKE)
        workloads = list(ABLATION_WORKLOADS) + [mixed_alias_profile()]
        configs = [config(base, AtomicMode.EAGER)]
        for entries in (1, 4, 16, 64, 256):
            sat = config(
                base,
                AtomicMode.ROW,
                DetectionMode.RW_DIR,
                PredictorKind.SATURATE,
            )
            configs.append(
                replace(sat, row=replace(sat.row, predictor_entries=entries))
            )
        manual = set(RunSpec.grid(workloads, configs, SMOKE))
        assert expand("ablation_predictor_entries") == manual

    def test_aq_depth_sweep(self):
        base = base_params(SMOKE)
        configs = [
            config(replace(base, aq_entries=d), AtomicMode.EAGER)
            for d in (16, 1, 2, 4, 8, 16)
        ]
        manual = set(
            RunSpec.grid(["canneal", "freqmine", "pc"], configs, SMOKE)
        )
        assert expand("ablation_aq_depth") == manual

    def test_sb_depth_sweep(self):
        base = base_params(SMOKE)
        configs = [
            config(replace(base, sb_entries=d), AtomicMode.LAZY)
            for d in (32, 4, 8, 16, 32)
        ]
        manual = set(RunSpec.grid(["canneal", "pc"], configs, SMOKE))
        assert expand("ablation_sb_depth") == manual


class TestExtensionParity:
    """The grids `bench_far_atomics.py` / `bench_core_scaling.py` built by
    hand, now `campaigns/ext_*.yaml` in existing schema fields only."""

    @pytest.mark.parametrize("scale", [SMOKE, QUICK], ids=lambda s: s.name)
    def test_far_atomics_grid(self, scale):
        base = base_params(scale)
        configs = [
            config(base, mode)
            for mode in (
                AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW, AtomicMode.FAR
            )
        ]
        workloads = ("canneal", "freqmine", "cq", "tatp", "raytrace", "tpcc", "sps", "pc")
        manual = set(RunSpec.grid(workloads, configs, scale))
        assert expand("ext_far", scale) == manual
        assert len(manual) == 8 * 4 * len(scale.seeds)

    @pytest.mark.parametrize("scale", [QUICK, FULL], ids=lambda s: s.name)
    def test_core_scaling_grid(self, scale):
        # The bench ran `cores` threads on `cores` cores; the planner runs
        # min(scale threads, cores), which is the same wherever the scale
        # has at least 8 threads (every scale but smoke).
        base = base_params(scale)
        manual = set()
        for cores in (2, 4, 8):
            params = replace(base, num_cores=cores)
            at_count = replace(scale, num_threads=cores)
            for mode in (AtomicMode.LAZY, AtomicMode.EAGER):
                manual.update(RunSpec.for_seeds("pc", config(params, mode), at_count))
        assert expand("ext_scaling", scale) == manual
        assert len(manual) == 3 * 2 * len(scale.seeds)

    def test_oracle_ablation_commits_the_realizable_policies(self):
        base = base_params(SMOKE)
        configs = [
            config(base, AtomicMode.EAGER),
            config(base, AtomicMode.LAZY),
            config(base, AtomicMode.ROW, DetectionMode.RW_DIR, PredictorKind.SATURATE),
        ]
        manual = set(RunSpec.grid(ABLATION_WORKLOADS, configs, SMOKE))
        assert expand("ablation_oracle_schedule") == manual


class TestRegistryMatchesSpecs:
    """A table's id, its `campaigns/<id>.yaml` and that spec's `output.id`
    are one name, on both sides."""

    def committed_outputs(self):
        outputs = {}
        for path in sorted(default_campaign_dir().glob("*.yaml")):
            campaign = load_campaign(path)
            if campaign.output.kind != "none":
                outputs[path.stem] = campaign.output.id
        return outputs

    def test_every_output_names_its_own_table(self):
        outputs = self.committed_outputs()
        assert all(stem == out for stem, out in outputs.items()), outputs
        assert set(outputs) <= set(TABLES)

    def test_every_table_has_exactly_its_campaign(self):
        # Table I simulates nothing, so no grid is committed for it; its
        # campaign is the in-memory `base: paper` one.
        assert set(TABLES) - {"table1"} == set(self.committed_outputs())
        for table_id in TABLES:
            campaign = load_table_campaign(table_id)
            assert campaign.output.id == table_id
        assert load_table_campaign("table1").base == "paper"
        assert not (default_campaign_dir() / "table1.yaml").exists()

    def test_only_plumbing_campaigns_render_nothing(self):
        silent = {
            p.stem for p in default_campaign_dir().glob("*.yaml")
        } - set(self.committed_outputs())
        assert silent == {"litmus", "smoke"}


class TestNoHandWrittenGrids:
    """The satellite contract: figures/ablations contain no hand-rolled
    prefetch grids anymore — every grid flows through the campaign planner."""

    def _source(self, module):
        return pathlib.Path(module.__file__).read_text()

    def test_no_prefetch_calls_remain(self):
        assert "prefetch(" not in self._source(figures_mod)
        assert "prefetch(" not in self._source(ablations_mod)

    def test_no_runspec_grid_calls_remain(self):
        for module in (figures_mod, ablations_mod):
            assert "RunSpec.grid(" not in self._source(module)
            assert "RunSpec(" not in self._source(module)
            assert "for_seeds(" not in self._source(module)

    def test_every_figure_campaign_is_committed(self):
        committed = {p.stem for p in default_campaign_dir().glob("*.yaml")}
        for name in (
            "fig1", "fig2", "fig4", "fig5", "fig6", "fig9", "fig10",
            "fig11", "fig12", "fig13", "headline", "smoke",
            "ablation_predictor_entries", "ablation_counter_width",
            "ablation_predictor_policy", "ablation_aq_depth",
            "ablation_sb_depth", "ablation_oracle_schedule",
            "ablation_consistency", "ext_far", "ext_scaling",
        ):
            assert name in committed, name
