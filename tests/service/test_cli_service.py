"""CLI surface of the campaign fabric: serve/campaign/client/sweep."""

import json

import pytest

from repro.analysis.parallel import Runner
from repro.cli import build_parser, main
from repro.service.fabric import ShardPool
from repro.service.http import ServiceThread


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
            ["client", "submit", "c.yaml", "--wait", "--url", "http://x:1"]
        )
        assert args.fn.__name__ == "cmd_client"
        assert args.action == "submit"
        assert args.wait
        assert args.url == "http://x:1"

    def test_client_status_id_optional(self):
        args = build_parser().parse_args(["client", "status"])
        assert args.id is None

    def test_sweep_emit_campaign_flag(self):
        args = build_parser().parse_args(
            ["sweep", "pc", "--emit-campaign", "out.yaml"]
        )
        assert args.emit_campaign == "out.yaml"


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
    def test_emitted_spec_runs_the_same_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.yaml"
        rc = main(
            [
                "sweep", "fmm",
                "--values", "0.1,0.5",
                "--seeds", "1",
                "--threads", "2",
                "--instructions", "400",
                "--emit-campaign", str(out),
            ]
        )
        assert rc == 0
        assert "4 unique jobs" in capsys.readouterr().out

        # The emitted file expands to the exact grid the inline sweep runs.
        from repro.service import planner, schema

        campaign = schema.load_campaign(out)
        specs = planner.expand_campaign(campaign)
        assert len(specs) == 4
        assert {s.params.atomic_mode.value for s in specs} == {"eager", "lazy"}

    def test_emitted_spec_replays_via_campaign_run(self, tmp_path, capsys):
        out = tmp_path / "sweep.yaml"
        common = [
            "sweep", "fmm",
            "--values", "0.2",
            "--seeds", "1",
            "--threads", "2",
            "--instructions", "400",
        ]
        assert main(common + ["--emit-campaign", str(out)]) == 0
        capsys.readouterr()
        # Inline sweep warms the cache...
        assert main(common) == 0
        capsys.readouterr()
        # ...and the emitted campaign replays it without simulating.
        assert main(["campaign", "run", str(out)]) == 0
        assert "0 simulated" in capsys.readouterr().err


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
        rc = main(
            ["client", "submit", str(spec), "--wait", "--url", service_url]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"state": "done"' in out
        status_rc = main(["client", "status", "--url", service_url])
        assert status_rc == 0
        listing = capsys.readouterr().out.strip().splitlines()
        cid = json.loads(listing[-1])["id"]
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
