"""Table-regeneration smoke tests (structure, not magnitudes).

The magnitude/shape claims live in :mod:`repro.analysis.validate` and are
checked against the committed quick-scale tables; at smoke scale these
tests verify that ``render`` over each committed campaign (or a slice of
it) produces well-formed data for every workload and configuration.
"""

import dataclasses

import pytest

from repro.analysis.figures import TABLES, Table, load_table_campaign, render
from repro.analysis.parallel import Runner, reset_default_runner
from repro.analysis.runner import SMOKE
from repro.service import planner
from repro.service.schema import CampaignError, loads_campaign
from repro.workloads.profiles import FIGURE_ORDER


@pytest.fixture(scope="module", autouse=True)
def shared_cache():
    # One default runner for the whole module: tables share the
    # eager/lazy baselines through its in-memory memo.
    reset_default_runner()
    yield
    reset_default_runner()


def table(table_id, workloads=None):
    campaign = load_table_campaign(table_id)
    if workloads is not None:
        campaign = campaign.with_workloads(workloads)
    return render(campaign, SMOKE)


class TestFigureStructure:
    def test_fig1_rows_per_workload(self):
        fig = table("fig1")
        assert fig.column("workload") == list(FIGURE_ORDER)
        for ratio in fig.column("lazy/eager"):
            assert ratio > 0

    def test_fig2_full_matrix(self):
        campaign = dataclasses.replace(load_table_campaign("fig2"), iterations=80)
        fig = render(campaign, SMOKE)
        assert len(fig.rows) == 2 * 3 * 4  # machines x ops x variants
        for cycles in fig.column("cycles_per_iter"):
            assert cycles > 0

    def test_fig5_percentages_in_range(self):
        fig = table("fig5")
        for pct in fig.column("contended_pct"):
            assert 0 <= pct <= 100

    def test_fig9_has_geomean_row(self):
        fig = table("fig9", workloads=("fmm", "pc"))
        assert fig.column("workload") == ["fmm", "pc", "GEOMEAN"]
        assert len(fig.columns) == 3 + 6  # workload, eager, lazy + 6 variants
        assert fig.column("eager") == [1.0, 1.0, 1.0]

    def test_fig10_threshold_columns(self):
        campaign = load_table_campaign("fig10").with_workloads(("pc",))
        configs = campaign.grids[0].configs
        keep = [c for c in configs if c.name in ("eager", "thr_0", "thr_40", "thr_inf")]
        fig = render(campaign.with_configs(keep), SMOKE)
        assert fig.columns == ["workload", "thr_0", "thr_40", "thr_inf"]

    def test_fig12_accuracy_in_unit_interval(self):
        fig = table("fig12")
        assert fig.columns == ["workload", "U/D", "Sat"]
        assert fig.rows[-1][0] == "MEAN"
        for row in fig.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0

    def test_table1_static(self):
        fig = table("table1")
        values = {r[0]: r[1] for r in fig.rows}
        assert values["cores"] == 32
        assert values["RoW storage"] == "64 bytes"

    def test_headline_rows(self):
        fig = table("headline")
        assert any("vs eager" in str(r[0]) for r in fig.rows)
        assert any("all apps" in str(r[0]) for r in fig.rows)

    def test_registry_contains_every_figure(self):
        assert {
            "fig1", "fig2", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "fig12", "fig13", "table1", "headline", "ext_far", "ext_scaling",
        } <= set(TABLES)


class TestMoreFigureStructure:
    def test_fig4_columns(self):
        fig = table("fig4")
        assert len(fig.rows) == len(FIGURE_ORDER)
        for row in fig.rows:
            assert row[1] >= 0
            assert row[2] >= 0

    def test_fig6_two_rows_per_workload(self):
        fig = table("fig6")
        assert len(fig.rows) == 2 * len(FIGURE_ORDER)
        modes = {row[1] for row in fig.rows}
        assert modes == {"eager", "lazy"}

    def test_fig11_latencies_positive(self):
        fig = table("fig11")
        for row in fig.rows:
            for value in row[1:]:
                assert value > 0

    def test_fig13_has_forwarding_columns(self):
        fig = table("fig13")
        assert "RW+Dir_U/D+fwd" in fig.columns
        assert "RW+Dir_Sat+fwd" in fig.columns
        assert "eager" not in fig.columns  # the baseline column is dropped
        assert fig.rows[-1][0] == "GEOMEAN"

    def test_headline_percent_format(self):
        fig = table("headline")
        for row in fig.rows:
            assert str(row[2]).endswith("%")

    def test_ext_tables_structure(self):
        far = table("ext_far", workloads=("fmm", "pc"))
        assert far.columns == ["workload", "lazy", "row", "far"]
        assert far.column("workload") == ["fmm", "pc", "GEOMEAN"]
        campaign = load_table_campaign("ext_scaling")
        short = dataclasses.replace(campaign.grids[0], instructions_per_thread=300)
        scaling = render(dataclasses.replace(campaign, grids=(short,)), SMOKE)
        assert scaling.columns == ["cores", "lazy_over_eager"]
        assert scaling.column("cores") == [2, 4, 8]


class TestAblationStructure:
    def test_all_ablations_registry(self):
        assert {
            "ablation_predictor_entries",
            "ablation_counter_width",
            "ablation_predictor_policy",
            "ablation_aq_depth",
            "ablation_sb_depth",
            "ablation_oracle_schedule",
            "ablation_consistency",
        } <= set(TABLES)

    def test_oracle_schedule_structure(self):
        fig = table("ablation_oracle_schedule", workloads=("pc",))
        assert fig.columns == ["workload", "lazy", "row", "oracle", "oracle_pcs"]
        assert fig.rows[-1][0] == "GEOMEAN"
        wl_row = fig.rows[0]
        for value in wl_row[1:4]:
            assert value > 0
        assert wl_row[4] >= 0  # number of profiled contended PCs

    def test_sb_depth_structure(self):
        campaign = load_table_campaign("ablation_sb_depth").with_workloads(("fmm",))
        configs = campaign.grids[0].configs
        keep = [c for c in configs if c.name in ("baseline_sb32", "sb_8", "sb_16")]
        fig = render(campaign.with_configs(keep), SMOKE)
        assert fig.columns == ["workload", "sb_8", "sb_16"]
        for value in fig.rows[0][1:]:
            assert value > 0

    def test_mixed_alias_profile_shape(self):
        campaign = load_table_campaign("ablation_predictor_entries")
        profile = planner.campaign_workloads(campaign)[-1]
        assert profile.name == "mixed-alias"
        assert 0.2 < profile.hot_fraction < 0.7
        assert profile.atomic_region_lines > 0


CUSTOM = """
campaign: 1
name: my-slice
workloads: [fmm, pc]
num_threads: 2
instructions_per_thread: 300
configs:
  - {name: eager, mode: eager}
  - {name: lazy, mode: lazy}
output: {kind: figure, id: fig9}
"""


class TestRenderReadsTheCampaignItIsGiven:
    def test_rows_columns_and_cells_are_the_specs_own(self):
        """At the parent, an ``output: fig9`` spec rendered the committed
        13 x 8 fig9 grid (100 extra simulations) whatever it contained."""
        runner = Runner()
        fig = render(loads_campaign(CUSTOM), SMOKE, runner)
        assert fig.columns == ["workload", "eager", "lazy"]
        assert fig.column("workload") == ["fmm", "pc", "GEOMEAN"]
        assert runner.stats.simulated == 4  # 2 workloads x 2 configs x 1 seed

    def test_grid_overrides_are_honoured(self):
        text = CUSTOM.replace("workloads: [fmm, pc]", "workloads: [fmm]\nseeds: [0, 1, 2]")
        runner = Runner()
        render(loads_campaign(text), SMOKE, runner)
        assert runner.stats.simulated == 6  # the spec's three seeds, not SMOKE's one
        assert {spec.instructions_per_thread for spec in runner._memo} == {300}

    def test_missing_baseline_is_a_campaign_error_naming_it(self):
        text = CUSTOM.replace("{name: eager, mode: eager}", "{name: rush, mode: eager}")
        runner = Runner()
        with pytest.raises(CampaignError, match="eager.*rush, lazy"):
            render(loads_campaign(text), SMOKE, runner)
        assert runner.stats.simulated == 0  # refused before simulating

    def test_unknown_output_id_lists_the_tables(self):
        text = CUSTOM.replace("id: fig9", "id: fig99")
        with pytest.raises(CampaignError, match="fig99.*fig1, fig2"):
            render(loads_campaign(text), SMOKE)

    def test_header_names_follow_the_config_not_the_position(self):
        record = TABLES["fig12"]
        assert isinstance(record, Table)
        assert record.headers == {"RW+Dir_U/D": "U/D", "RW+Dir_Sat": "Sat"}
        text = (
            CUSTOM.replace("id: fig9", "id: fig12")
            .replace("[fmm, pc]", "[fmm]")
            .replace("{name: lazy, mode: lazy}",
                     "{name: RW+Dir_Sat, mode: row, detection: rw+dir, predictor: sat}")
        )
        fig = render(loads_campaign(text), SMOKE)
        assert fig.columns == ["workload", "eager", "Sat"]

    def test_core_scaling_needs_both_policies_at_every_count(self):
        text = CUSTOM.replace("id: fig9", "id: ext_scaling").replace(
            "{name: lazy, mode: lazy}",
            "{name: lazy_2, mode: lazy, params: {num_cores: 2}}",
        )
        runner = Runner()
        with pytest.raises(CampaignError, match=r"eager and a lazy config at \d+, 2 cores"):
            render(loads_campaign(text), SMOKE, runner)
        assert runner.stats.simulated == 0
