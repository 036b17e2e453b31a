"""The consistency axis through the campaign service layer."""

import pytest

from repro.common.params import ConsistencyKind
from repro.service.planner import expand_campaign, iter_cells, resolve_config
from repro.service.schema import (
    CampaignError,
    dump_campaign,
    load_named_campaign,
    loads_campaign,
)
from repro.workloads.litmus_oracle import LITMUS_TESTS

RELAXED_GRID = """
campaign: 1
name: tiny-relaxed
grids:
  - workloads: [fmm]
    configs:
      - {name: eager-rlx, mode: eager, consistency: relaxed}
      - {name: eager-tso, mode: eager}
"""

LITMUS = """
campaign: 1
name: tiny-litmus
kind: litmus
programs: [mp, sb]
models: [relaxed]
"""


class TestConfigConsistency:
    def test_parse_and_roundtrip(self):
        campaign = loads_campaign(RELAXED_GRID)
        rlx, tso = campaign.grids[0].configs
        assert rlx.consistency == "relaxed"
        assert tso.consistency is None
        assert loads_campaign(dump_campaign(campaign)) == campaign

    def test_resolve_config_applies_the_model(self):
        from repro.common.params import SystemParams

        campaign = loads_campaign(RELAXED_GRID)
        rlx, tso = campaign.grids[0].configs
        base = SystemParams.quick()
        assert (
            resolve_config(rlx, base).consistency_model
            is ConsistencyKind.RELAXED
        )
        assert (
            resolve_config(tso, base).consistency_model
            is ConsistencyKind.TSO
        )

    def test_unknown_model_rejected(self):
        bad = RELAXED_GRID.replace("relaxed", "weak-ordering")
        with pytest.raises(CampaignError, match="consistency"):
            loads_campaign(bad)

    def test_consistency_model_not_a_params_override(self):
        bad = RELAXED_GRID.replace(
            "consistency: relaxed",
            "params: {consistency_model: relaxed}",
        )
        with pytest.raises(CampaignError):
            loads_campaign(bad)


class TestLitmusKind:
    def test_parse_explicit_axes(self):
        campaign = loads_campaign(LITMUS)
        assert campaign.kind == "litmus"
        assert campaign.programs == ("mp", "sb")
        assert campaign.models == ("relaxed",)
        assert loads_campaign(dump_campaign(campaign)) == campaign

    def test_defaults_cover_everything(self):
        campaign = loads_campaign(
            "campaign: 1\nname: all\nkind: litmus\n"
        )
        assert set(campaign.programs) == set(LITMUS_TESTS)
        assert set(campaign.models) == {k.value for k in ConsistencyKind}

    def test_expand_litmus_jobs(self):
        campaign = loads_campaign(LITMUS)
        jobs = list(iter_cells(campaign))
        assert {j["program"] for j in jobs} == {"mp", "sb"}
        assert {j["model"] for j in jobs} == {"relaxed"}
        expected = sum(
            len(LITMUS_TESTS[name].pad_sets) for name in ("mp", "sb")
        )
        assert len(jobs) == expected

    def test_unknown_program_rejected(self):
        with pytest.raises(CampaignError, match="program"):
            loads_campaign(LITMUS.replace("mp, sb", "mp, nosuch"))

    def test_unknown_model_rejected(self):
        with pytest.raises(CampaignError, match="model"):
            loads_campaign(LITMUS.replace("[relaxed]", "[sc]"))

    def test_grid_rejects_litmus_axes(self):
        bad = RELAXED_GRID + "programs: [mp]\n"
        with pytest.raises(CampaignError):
            loads_campaign(bad)

    def test_litmus_rejects_grids(self):
        bad = LITMUS + (
            "grids:\n"
            "  - workloads: [fmm]\n"
            "    configs:\n"
            "      - {name: eager, mode: eager}\n"
        )
        with pytest.raises(CampaignError):
            loads_campaign(bad)


class TestCommittedSpecs:
    def test_litmus_campaign_loads(self):
        campaign = load_named_campaign("litmus")
        assert campaign.kind == "litmus"
        assert set(campaign.programs) == set(LITMUS_TESTS)
        assert expand_campaign(campaign)

    def test_ablation_pins_both_models(self):
        campaign = load_named_campaign("ablation_consistency")
        models = {
            cfg.consistency or "tso"
            for grid in campaign.grids
            for cfg in grid.configs
        }
        assert models == {"tso", "relaxed"}
