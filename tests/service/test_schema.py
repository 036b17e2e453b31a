"""Campaign schema: strict parsing, round-trips, and the CLI contract."""

import pytest

from repro.cli import main
from repro.service.schema import (
    Campaign,
    CampaignError,
    ConfigSpec,
    GridSpec,
    WorkloadSpec,
    default_campaign_dir,
    dump_campaign,
    load_campaign,
    load_named_campaign,
    loads_campaign,
)

MINIMAL = """
campaign: 1
name: tiny
grids:
  - workloads: [fmm]
    configs:
      - {name: eager, mode: eager}
"""


class TestRoundTrip:
    def test_parse_dump_parse_is_identity(self):
        first = loads_campaign(MINIMAL)
        again = loads_campaign(dump_campaign(first))
        assert again == first

    def test_every_committed_spec_round_trips(self):
        paths = sorted(default_campaign_dir().glob("*.yaml"))
        assert paths, "no committed campaign specs found"
        for path in paths:
            campaign = load_campaign(path)
            assert loads_campaign(dump_campaign(campaign)) == campaign, path

    def test_dump_writes_file(self, tmp_path):
        out = tmp_path / "c.yaml"
        campaign = loads_campaign(MINIMAL)
        dump_campaign(campaign, out)
        assert load_campaign(out) == campaign

    def test_load_named_campaign(self):
        campaign = load_named_campaign("fig1")
        assert campaign.name == "fig1"
        assert campaign.kind == "grid"
        assert len(campaign.grids[0].workloads) == 13


class TestStrictness:
    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(CampaignError, match="bogus"):
            loads_campaign(MINIMAL + "bogus: 1\n")

    def test_unknown_config_field_rejected(self):
        text = """
campaign: 1
name: t
grids:
  - workloads: [fmm]
    configs:
      - {name: eager, mode: eager, nonsense: 3}
"""
        with pytest.raises(CampaignError, match="nonsense"):
            loads_campaign(text)

    def test_future_schema_version_rejected(self):
        with pytest.raises(CampaignError, match="version 99"):
            loads_campaign(MINIMAL.replace("campaign: 1", "campaign: 99"))

    def test_missing_version_rejected(self):
        with pytest.raises(CampaignError, match="campaign"):
            loads_campaign("name: t\ngrids: []\n")

    def test_unknown_mode_rejected(self):
        with pytest.raises(CampaignError, match="warp"):
            loads_campaign(MINIMAL.replace("mode: eager", "mode: warp"))

    def test_unknown_detection_rejected(self):
        text = MINIMAL.replace(
            "{name: eager, mode: eager}",
            "{name: r, mode: row, detection: psychic}",
        )
        with pytest.raises(CampaignError, match="psychic"):
            loads_campaign(text)

    def test_unknown_workload_override_rejected(self):
        text = """
campaign: 1
name: t
grids:
  - workloads:
      - {base: fmm, overrides: {warp_factor: 9}}
    configs:
      - {name: eager, mode: eager}
"""
        with pytest.raises(CampaignError, match="warp_factor"):
            loads_campaign(text)

    def test_output_requires_id(self):
        with pytest.raises(CampaignError, match="requires an id"):
            loads_campaign(MINIMAL + "output: {kind: figure}\n")

    def test_microbench_axes_invalid_for_grid(self):
        with pytest.raises(CampaignError, match="machines"):
            loads_campaign(MINIMAL + "machines: [new-x86]\n")

    def test_empty_seeds_rejected(self):
        with pytest.raises(CampaignError, match="seeds must be a non-empty"):
            loads_campaign(MINIMAL + "    seeds: []\n")

    def test_non_mapping_document_rejected(self):
        with pytest.raises(CampaignError):
            loads_campaign("- just\n- a\n- list\n")


class TestLatencyThreshold:
    def test_null_means_infinity_sentinel_distinct_from_absent(self):
        explicit = loads_campaign(
            MINIMAL.replace(
                "{name: eager, mode: eager}",
                "{name: r, mode: row, latency_threshold: null}",
            )
        )
        absent = loads_campaign(
            MINIMAL.replace(
                "{name: eager, mode: eager}", "{name: r, mode: row}"
            )
        )
        (config_explicit,) = explicit.grids[0].configs
        (config_absent,) = absent.grids[0].configs
        assert config_explicit.latency_threshold is None
        assert config_absent.latency_threshold == "default"


class TestCliContract:
    def test_validate_ok(self, capsys):
        spec = default_campaign_dir() / "fig9.yaml"
        assert main(["campaign", "validate", str(spec)]) == 0
        assert "fig9" in capsys.readouterr().out

    def test_validate_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(MINIMAL.replace("campaign: 1", "campaign: 99"))
        rc = main(["campaign", "validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "repro campaign: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_run_unknown_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(MINIMAL + "bogus: 1\n")
        rc = main(["campaign", "run", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "bogus" in captured.err

    def test_run_missing_file_exits_2(self, capsys):
        rc = main(["campaign", "run", "/nonexistent/spec.yaml"])
        assert rc == 2
        assert "repro campaign: error:" in capsys.readouterr().err


class TestProgrammaticSpecs:
    def test_grid_requires_config_names_unique(self):
        text = """
campaign: 1
name: t
grids:
  - workloads: [fmm]
    configs:
      - {name: same, mode: eager}
      - {name: same, mode: lazy}
"""
        with pytest.raises(CampaignError, match="same"):
            loads_campaign(text)

    def test_programmatic_campaign_dumps(self):
        campaign = Campaign(
            name="prog",
            grids=(
                GridSpec(
                    workloads=(WorkloadSpec(base="fmm"),),
                    configs=(ConfigSpec(name="eager", mode="eager"),),
                ),
            ),
        )
        assert loads_campaign(dump_campaign(campaign)) == campaign
