"""Campaign expansion: the one grid-expansion helper behaves like the
hand-written figure grids it replaced."""

import json
import pathlib

import pytest

from repro.analysis.parallel import RunSpec
from repro.analysis.runner import QUICK, SMOKE, base_params, config
from repro.common.params import DetectionMode, PredictorKind
from repro.service import planner
from repro.service.schema import (
    Campaign,
    CampaignError,
    ConfigSpec,
    GridSpec,
    WorkloadSpec,
    default_campaign_dir,
    load_campaign,
    loads_campaign,
)

CELL_HASHES = pathlib.Path(__file__).with_name("cell_hashes.json")

TWO_BY_TWO = """
campaign: 1
name: twobytwo
grids:
  - workloads: [fmm, pc]
    configs:
      - {name: eager, mode: eager}
      - {name: lazy, mode: lazy}
"""


class TestExpansion:
    def test_cells_cover_the_cross_product(self):
        campaign = loads_campaign(TWO_BY_TWO)
        cells = list(planner.iter_cells(campaign, SMOKE))
        # 2 workloads x 2 configs x 1 smoke seed
        assert len(cells) == 4
        labels = {(c.spec.workload.name, c["config"], c["seed"]) for c in cells}
        assert labels == {
            ("fmm", "eager", 0),
            ("fmm", "lazy", 0),
            ("pc", "eager", 0),
            ("pc", "lazy", 0),
        }

    def test_expand_campaign_matches_manual_grid(self):
        campaign = loads_campaign(TWO_BY_TWO)
        base = base_params(SMOKE)
        manual = RunSpec.grid(
            ["fmm", "pc"],
            [config(base, "eager"), config(base, "lazy")],
            SMOKE,
        )
        assert set(planner.expand_campaign(campaign, SMOKE)) == set(manual)

    def test_duplicate_cells_dedup_in_expand(self):
        text = """
campaign: 1
name: dupes
grids:
  - workloads: [fmm]
    configs:
      - {name: a, mode: eager}
      - {name: b, mode: eager}
"""
        campaign = loads_campaign(text)
        cells = list(planner.iter_cells(campaign, SMOKE))
        specs = planner.expand_campaign(campaign, SMOKE)
        assert len(cells) == 2  # both labelled cells exist...
        assert len(specs) == 1  # ...but they share one RunSpec

    def test_scale_governs_seeds(self):
        campaign = loads_campaign(TWO_BY_TWO)
        assert len(list(planner.iter_cells(campaign, QUICK))) == 8

    def test_explicit_grid_seeds_override_scale(self):
        text = TWO_BY_TWO + "    seeds: [7]\n"
        campaign = loads_campaign(text)
        cells = list(planner.iter_cells(campaign, QUICK))
        assert {c["seed"] for c in cells} == {7}


class TestConfigResolution:
    def test_params_overrides_apply_before_config(self):
        # ablation style: shrink the AQ on the *base*, then build eager.
        spec = ConfigSpec(name="aq4", mode="eager", params={"aq_entries": 4})
        base = base_params(SMOKE)
        resolved = planner.resolve_config(spec, base)
        import dataclasses

        assert resolved == config(
            dataclasses.replace(base, aq_entries=4), "eager"
        )

    def test_row_overrides_apply_after_config(self):
        spec = ConfigSpec(
            name="e16",
            mode="row",
            detection="rw+dir",
            predictor="sat",
            row={"predictor_entries": 16},
        )
        base = base_params(SMOKE)
        import dataclasses

        expected = config(
            base, "row", DetectionMode.RW_DIR, PredictorKind.SATURATE
        )
        expected = dataclasses.replace(
            expected, row=dataclasses.replace(expected.row, predictor_entries=16)
        )
        assert planner.resolve_config(spec, base) == expected

    def test_latency_threshold_null_is_plus_infinity(self):
        spec = ConfigSpec(
            name="inf",
            mode="row",
            detection="rw+dir",
            predictor="sat",
            latency_threshold=None,
        )
        resolved = planner.resolve_config(spec, base_params(SMOKE))
        assert resolved.row.latency_threshold is None

    def test_absent_threshold_keeps_base_default(self):
        spec = ConfigSpec(name="r", mode="row")
        base = base_params(SMOKE)
        resolved = planner.resolve_config(spec, base)
        assert resolved.row.latency_threshold == base.row.latency_threshold

    def test_bad_param_override_is_campaign_error(self):
        spec = ConfigSpec(name="bad", mode="eager", params={"aq_entries": -3})
        with pytest.raises(CampaignError):
            planner.resolve_config(spec, base_params(SMOKE))


class TestWorkloadResolution:
    def test_plain_name_stays_a_name(self):
        assert planner.resolve_workload(WorkloadSpec(base="fmm")) == "fmm"

    def test_overrides_become_a_profile(self):
        spec = WorkloadSpec(
            base="fmm", name="fmm-hot", overrides={"hot_fraction": 0.5}
        )
        profile = planner.resolve_workload(spec)
        assert profile.name == "fmm-hot"
        assert profile.hot_fraction == 0.5

    def test_unknown_override_field_is_campaign_error(self):
        # The parser rejects unknown keys up front; a programmatically
        # built spec hits the same wall inside resolve_workload.
        spec = WorkloadSpec(base="fmm", overrides={"not_a_field": 1})
        with pytest.raises(CampaignError):
            planner.resolve_workload(spec)


class TestMaps:
    def test_config_map_preserves_spec_order(self):
        campaign = loads_campaign(TWO_BY_TWO)
        configs = planner.campaign_config_map(campaign, SMOKE)
        assert list(configs) == ["eager", "lazy"]

    def test_workloads_list(self):
        campaign = loads_campaign(TWO_BY_TWO)
        assert planner.campaign_workloads(campaign) == ["fmm", "pc"]


class TestCampaignId:
    def _campaign(self):
        return loads_campaign(TWO_BY_TWO)

    def test_stable_across_parses(self):
        a = planner.campaign_id(self._campaign(), SMOKE)
        b = planner.campaign_id(loads_campaign(TWO_BY_TWO), SMOKE)
        assert a == b

    def test_scale_changes_id(self):
        campaign = self._campaign()
        assert planner.campaign_id(campaign, SMOKE) != planner.campaign_id(
            campaign, QUICK
        )

    def test_content_changes_id(self):
        other = loads_campaign(TWO_BY_TWO.replace("[fmm, pc]", "[fmm]"))
        assert planner.campaign_id(self._campaign(), SMOKE) != (
            planner.campaign_id(other, SMOKE)
        )

    def test_name_does_not_change_id_content_does(self):
        # The id hashes the campaign *content* (including the name field),
        # so renaming changes it too — ids are per-document, not per-grid.
        renamed = loads_campaign(TWO_BY_TWO.replace("twobytwo", "other"))
        assert planner.campaign_id(renamed, SMOKE) != planner.campaign_id(
            self._campaign(), SMOKE
        )


class TestMicrobench:
    def test_iterations_resolve_per_scale(self):
        from repro.service.schema import load_named_campaign

        campaign = load_named_campaign("fig2")
        smoke = planner.expand_campaign(campaign, SMOKE)
        quick = planner.expand_campaign(campaign, QUICK)
        assert len(smoke) == len(quick) == 24
        assert {s.workload.iterations for s in smoke} == {200}
        assert {s.workload.iterations for s in quick} == {600}

    def test_fixed_int_fields_keep_equal_programs_equal_specs(self):
        from repro.service.schema import load_named_campaign

        campaign = load_named_campaign("fig2")
        specs = planner.expand_campaign(campaign, QUICK)
        assert {(s.num_threads, s.instructions_per_thread, s.seed) for s in specs} == {
            (1, 600, 0)
        }
        again = planner.expand_campaign(load_named_campaign("fig2"), QUICK)
        assert [s.content_hash() for s in again] == [s.content_hash() for s in specs]


class TestCampaignJobs:
    def test_dispatches_on_kind(self):
        """One expansion serves every kind; each cell names its axes by
        the campaign's keys."""
        from repro.service.schema import load_named_campaign

        grid = next(planner.iter_cells(loads_campaign(TWO_BY_TWO), SMOKE))
        assert [key for key, _ in grid.axes] == ["grid", "workload", "config", "seed"]
        fig2 = next(planner.iter_cells(load_named_campaign("fig2"), SMOKE))
        assert fig2.axes == (("machine", "old-x86"), ("op", "faa"), ("variant", "plain"))
        litmus = next(planner.iter_cells(load_named_campaign("litmus")))
        assert [key for key, _ in litmus.axes] == ["program", "model", "pads"]
        assert litmus["program"] == "mp" and litmus["model"] == "tso"


class TestProgrammaticEquivalence:
    def test_yaml_and_programmatic_campaigns_expand_identically(self):
        yaml_campaign = loads_campaign(TWO_BY_TWO)
        programmatic = Campaign(
            name="twobytwo",
            grids=(
                GridSpec(
                    workloads=(
                        WorkloadSpec(base="fmm"),
                        WorkloadSpec(base="pc"),
                    ),
                    configs=(
                        ConfigSpec(name="eager", mode="eager"),
                        ConfigSpec(name="lazy", mode="lazy"),
                    ),
                ),
            ),
        )
        assert planner.expand_campaign(
            yaml_campaign, SMOKE
        ) == planner.expand_campaign(programmatic, SMOKE)


class TestCellIdentity:
    def test_cell_hashes_are_those_recorded(self):
        """``RunSpec.content_hash()`` keys the result cache: the first and
        last cell of every committed grid campaign at smoke and quick."""
        recorded = json.loads(CELL_HASHES.read_text())
        grids = {}
        for path in sorted(default_campaign_dir().glob("*.yaml")):
            campaign = load_campaign(path)
            if campaign.kind == "grid":
                grids[path.stem] = campaign
        assert set(recorded) == set(grids)
        for name, campaign in grids.items():
            for scale, (first, last) in recorded[name].items():
                specs = planner.expand_campaign(campaign, scale)
                assert [specs[0].content_hash(), specs[-1].content_hash()] == [
                    first,
                    last,
                ], (name, scale)
