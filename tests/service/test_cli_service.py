"""CLI surface of the campaign fabric: serve/campaign/client, and the
committed sweep spec."""

import json
import pathlib

import pytest

from repro.analysis.parallel import Runner
from repro.cli import build_parser, main
from repro.service.fabric import ShardPool
from repro.service.http import ServiceThread

SWEEP_SPEC = pathlib.Path(__file__).resolve().parents[2] / "examples" / "sweep.yaml"


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.fn.__name__ == "cmd_serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.state_dir is None

    def test_campaign_run_flags(self):
        args = build_parser().parse_args(
            ["campaign", "run", "c.yaml", "--scale", "smoke", "-j", "2"]
        )
        assert args.fn.__name__ == "cmd_campaign"
        assert args.action == "run"
        assert args.spec == "c.yaml"
        assert args.jobs == 2
        assert args.remote is None

    def test_campaign_validate_takes_many_specs(self):
        args = build_parser().parse_args(["campaign", "validate", "a", "b"])
        assert args.action == "validate"
        assert args.specs == ["a", "b"]

    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_client_submit_flags(self):
        args = build_parser().parse_args(
            ["client", "submit", "c.yaml", "--url", "http://x:1"]
        )
        assert args.fn.__name__ == "cmd_client"
        assert args.action == "submit"
        assert args.url == "http://x:1"
        # Waiting is `campaign run --remote`'s job alone.
        for flag in ("--wait", "--timeout"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["client", "submit", "c.yaml", flag])

    def test_client_status_id_optional(self):
        args = build_parser().parse_args(["client", "status"])
        assert args.id is None


class TestCampaignRunLocal:
    def test_smoke_campaign_runs(self, capsys):
        from repro.service.schema import default_campaign_dir

        spec = default_campaign_dir() / "smoke.yaml"
        assert main(["campaign", "run", str(spec)]) == 0
        captured = capsys.readouterr()
        assert "1 unique cells at scale smoke" in captured.out

    def test_warm_rerun_is_all_cache_hits(self, capsys):
        from repro.service.schema import default_campaign_dir

        spec = default_campaign_dir() / "smoke.yaml"
        assert main(["campaign", "run", str(spec)]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(spec)]) == 0
        assert "0 simulated" in capsys.readouterr().err

    CUSTOM = (
        "campaign: 1\nname: my-slice\nscale: smoke\nworkloads: [fmm, pc]\n"
        "num_threads: 2\ninstructions_per_thread: 300\n"
        "configs:\n  - {name: eager, mode: eager}\n  - {name: lazy, mode: lazy}\n"
        "output: {kind: figure, id: fig9}\n"
    )

    def test_output_is_rendered_from_the_spec_it_was_given(self, tmp_path, capsys):
        """At the parent this printed the committed 13-workload x 8-config
        fig9 table and simulated its 100 other cells."""
        spec = tmp_path / "my.yaml"
        spec.write_text(self.CUSTOM)
        assert main(["campaign", "run", str(spec)]) == 0
        captured = capsys.readouterr()
        assert "4 unique cells at scale smoke" in captured.out
        assert "repro: 4 simulated" in captured.err
        table = captured.out[captured.out.index("Fig.9"):].splitlines()
        assert [c.strip() for c in table[2].split("|")] == ["workload", "eager", "lazy"]
        assert [row.split("|")[0].strip() for row in table[4:7]] == [
            "fmm", "pc", "GEOMEAN"
        ]
        assert not any(table[7:])

    def test_spec_without_the_tables_baseline_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "my.yaml"
        spec.write_text(self.CUSTOM.replace("name: eager", "name: rush"))
        assert main(["campaign", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "repro campaign: error:" in err
        assert "eager" in err and "rush, lazy" in err
        assert "Traceback" not in err and "simulated" not in err  # refused up front

    def test_microbench_campaign_prints_its_own_axes(self, tmp_path, capsys):
        spec = tmp_path / "mb.yaml"
        spec.write_text(
            "campaign: 1\nname: mb\nkind: microbench\nmachines: [new-x86]\n"
            "ops: [faa]\nvariants: [plain, lock]\niterations: 40\n"
            "output: {kind: figure, id: fig2}\n"
        )
        assert main(["campaign", "run", str(spec)]) == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("old-x86", "new-x86"))
        ]
        assert len(rows) == 2  # once, not the jobs table plus the figure

    @pytest.mark.parametrize("action", ["validate", "run"])
    def test_empty_seeds_exits_2(self, action, tmp_path, capsys):
        spec = tmp_path / "noseeds.yaml"
        spec.write_text(
            "campaign: 1\nname: noseeds\nworkloads: [fmm]\n"
            "configs: [{name: eager, mode: eager}]\nseeds: []\n"
        )
        assert main(["campaign", action, str(spec)]) == 2
        assert "seeds must be a non-empty" in capsys.readouterr().err


class TestSweepEmitCampaign:
    """``examples/sweep.yaml`` is the spec ``repro sweep pc
    --emit-campaign`` wrote, plus a Fig. 1 output."""

    def test_emitted_spec_runs_the_same_grid(self):
        from repro.service import planner, schema

        campaign = schema.load_campaign(SWEEP_SPEC)
        assert campaign.base == "small"
        assert campaign.output == schema.OutputSpec(kind="figure", id="fig1")
        specs = planner.expand_campaign(campaign)
        assert len(specs) == 16  # 4 hot_fraction values x eager/lazy x 2 seeds
        assert {s.params.atomic_mode.value for s in specs} == {"eager", "lazy"}
        assert {(s.num_threads, s.instructions_per_thread) for s in specs} == {
            (8, 5000)
        }
        # First and last cell of the spec `repro sweep pc --emit-campaign` wrote.
        assert specs[0].content_hash() == (
            "79f1a52669e7d6b2c43c0ecab0da3deea81766b5c4a2ae8f3d961c5af82e8a10"
        )
        assert specs[-1].content_hash() == (
            "f5d10075837e590d0e7f06a747a7a8f714c0ff73b5424db196df0b4f172c2d10"
        )

    def test_emitted_spec_replays_via_campaign_run(self, narrowed_sweep, capsys):
        spec = narrowed_sweep("fmm", (0.2,), seeds=1, threads=2, instructions=400)
        assert main(["campaign", "run", str(spec)]) == 0
        first = capsys.readouterr()
        assert "2 simulated" in first.err
        assert "fmm-hot_fraction-0.2" in first.out
        # A warm rerun replays the table without simulating.
        assert main(["campaign", "run", str(spec)]) == 0
        second = capsys.readouterr()
        assert "0 simulated" in second.err
        assert second.out == first.out


class TestClientAgainstLiveService:
    @pytest.fixture
    def service_url(self, tmp_path):
        runner = Runner(cache_dir=tmp_path / "cache")
        pool = ShardPool(runner, state_dir=tmp_path / "state")
        pool.start()
        thread = ServiceThread(pool).start()
        try:
            yield thread.url
        finally:
            thread.stop()
            pool.stop()

    def test_submit_wait_status_fetch(self, service_url, tmp_path, capsys):
        from repro.service.schema import default_campaign_dir

        spec = default_campaign_dir() / "smoke.yaml"
        rc = main(["campaign", "run", str(spec), "--remote", service_url])
        assert rc == 0
        assert "done: 1 result rows" in capsys.readouterr().out
        status_rc = main(["client", "status", "--url", service_url])
        assert status_rc == 0
        listing = capsys.readouterr().out.strip().splitlines()
        status = json.loads(listing[-1])
        assert status["state"] == "done"
        cid = status["id"]
        assert main(["client", "fetch", cid, "--url", service_url]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert rows and rows[0]["workload"] == "fmm"

    def test_campaign_run_remote(self, service_url, capsys):
        from repro.service.schema import default_campaign_dir

        spec = default_campaign_dir() / "smoke.yaml"
        rc = main(
            ["campaign", "run", str(spec), "--remote", service_url]
        )
        assert rc == 0
        assert "done: 1 result rows" in capsys.readouterr().out

    def test_client_unreachable_service_exits_1(self, capsys):
        rc = main(
            ["client", "status", "--url", "http://127.0.0.1:1"]
        )
        assert rc == 1
        assert "repro client:" in capsys.readouterr().err

    def test_client_missing_spec_exits_2(self, service_url, capsys):
        rc = main(
            ["client", "submit", "/nonexistent.yaml", "--url", service_url]
        )
        assert rc == 2
        assert "repro client: error:" in capsys.readouterr().err
