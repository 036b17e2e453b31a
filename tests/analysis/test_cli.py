"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pc"])
        assert args.workload == "pc"
        assert args.modes == ["eager", "lazy", "row"]
        assert args.config == "small"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nosuch"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig5", "--scale", "smoke"])
        assert args.figure == ["fig5"]
        args = build_parser().parse_args(["figure", "ext_far", "ablation_sb_depth"])
        assert args.figure == ["ext_far", "ablation_sb_depth"]
        assert build_parser().parse_args(["figure", "all"]).figure == ["all"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig3"])

    def test_subcommand_set(self, capsys):
        """The campaign door is the only door: the narrowing commands are
        gone and argparse refuses them as usage errors."""
        parser = build_parser()
        [sub] = [a for a in parser._actions if a.dest == "command"]
        assert list(sub.choices) == [
            "run", "lint", "effects", "check", "figure", "list", "validate",
            "trace", "profile", "serve", "campaign", "client",
        ]
        for gone in ("sweep", "microbench", "litmus"):
            with pytest.raises(SystemExit) as exc:
                main([gone])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out
        from repro.analysis.figures import TABLES

        tables_line = next(l for l in out.splitlines() if l.startswith("tables:"))
        assert tables_line == "tables: " + ", ".join(TABLES)
        assert "fig9" in TABLES and "ext_scaling" in TABLES

    def test_run_quick(self, capsys):
        rc = main(
            [
                "run",
                "fmm",
                "--threads",
                "2",
                "--instructions",
                "600",
                "--config",
                "quick",
                "--modes",
                "eager",
                "lazy",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "eager" in out and "lazy" in out

    def test_microbench(self, capsys):
        rc = main(["figure", "fig2", "--scale", "smoke", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig.2" in out
        rows = [line.split("|")[0].strip() for line in out.splitlines()]
        assert rows.count("old-x86") == rows.count("new-x86") == 12
        assert "lock+mfence" in out

    def test_figure_to_file(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "new" / "dir"
        rc = main(["figure", "table1", "--scale", "smoke", "--output", str(out_dir)])
        assert rc == 0
        text = (out_dir / "table1.txt").read_text()
        assert text == capsys.readouterr().out[: len(text)]  # header-free, as printed
        payload = json.loads((out_dir / "table1.json").read_text())
        assert payload["scale"]["name"] == "smoke"
        assert payload["engine"] and len(payload["golden_sha256"]) == 64
        assert payload["figures"][0]["rows"][0] == ["cores", 32]

    def test_figure_bad_output_fails_before_simulating(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(["figure", "fig9", "--output", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "repro figure: error: cannot create --output" in captured.err
        assert captured.out == ""  # nothing was rendered

    def test_trace_generate_inspect_run(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert (
            main(
                [
                    "trace",
                    "generate",
                    str(path),
                    "--workload",
                    "fmm",
                    "--threads",
                    "2",
                    "--instructions",
                    "400",
                ]
            )
            == 0
        )
        assert path.exists()
        assert main(["trace", "inspect", str(path)]) == 0
        assert "atomics/10k" in capsys.readouterr().out
        assert (
            main(["trace", "run", str(path), "--mode", "eager", "--config", "quick"])
            == 0
        )
        assert "cycles" in capsys.readouterr().out

    def test_trace_events_fig2(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "trace",
                "fig2",
                "--out",
                str(out),
                "--instructions",
                "50",
                "--config",
                "quick",
            ]
        )
        assert rc == 0
        assert "retained" in capsys.readouterr().out
        import json

        payload = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])

    def test_trace_events_workload_with_filter(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "trace",
                "pc",
                "--out",
                str(out),
                "--events",
                "atomic,coh",
                "--instructions",
                "400",
                "--threads",
                "2",
                "--mode",
                "row",
                "--config",
                "quick",
            ]
        )
        assert rc == 0
        assert "instr=0" in capsys.readouterr().out
        assert out.exists()

    def test_trace_events_rejects_unknown_category(self, tmp_path, capsys):
        rc = main(
            ["trace", "pc", "--out", str(tmp_path / "t.json"), "--events", "nope"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "nope" in captured.err
        assert "Traceback" not in captured.err

    def test_trace_rejects_unknown_target(self, capsys):
        rc = main(["trace", "not-a-workload"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not-a-workload" in captured.err

    def test_trace_action_without_path_exits_2(self, capsys):
        rc = main(["trace", "inspect"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "requires a trace-file path" in captured.err

    def test_sweep(self, narrowed_sweep, capsys):
        """``repro sweep pc --values 0.1,0.5 --seeds 1 --threads 2
        --instructions 300`` printed 1.147 and 1.150; the committed sweep
        spec, narrowed the same way, prints them through the Fig. 1 table."""
        spec = narrowed_sweep("pc", (0.1, 0.5), seeds=1, threads=2, instructions=300)
        assert main(["campaign", "run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "4 unique cells" in out
        rows = {
            cols[0]: cols[1]
            for cols in (
                [c.strip() for c in line.split("|")] for line in out.splitlines()
            )
            if len(cols) == 2
        }
        assert rows["workload"] == "lazy/eager"
        assert rows["pc-hot_fraction-0.1"] == "1.147"
        assert rows["pc-hot_fraction-0.5"] == "1.150"

    def test_sweep_carries_its_own_title_not_the_papers_remark(
        self, narrowed_sweep, capsys
    ):
        spec = narrowed_sweep("pc", (0.1, 0.5), seeds=1, threads=2, instructions=300)
        assert main(["campaign", "run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "Fig.1: lazy/eager ratio of pc vs hot_fraction" in out
        assert "canneal/freqmine" not in out
        assert "pc-hot_fraction-0.1 | 1.147" in out
        assert "pc-hot_fraction-0.5 | 1.150" in out
        assert "note: geomean=1.148\n" in out


class TestSanitizeFlag:
    def test_parser_accepts_sanitize(self):
        args = build_parser().parse_args(["run", "pc", "--sanitize"])
        assert args.sanitize

    def test_sanitize_off_by_default(self):
        args = build_parser().parse_args(["run", "pc"])
        assert not args.sanitize

    def test_sanitized_run_smoke(self, capsys):
        rc = main(
            [
                "run",
                "cq",
                "--sanitize",
                "--modes",
                "eager",
                "--config",
                "quick",
                "--threads",
                "2",
                "--instructions",
                "400",
            ]
        )
        assert rc == 0
        assert "cycles" in capsys.readouterr().out


class TestLintCommand:
    def test_parser_accepts_lint(self):
        args = build_parser().parse_args(["lint"])
        assert args.fn.__name__ == "cmd_lint"

    def test_lint_smoke(self, capsys):
        assert main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out


class TestRunnerFlags:
    def test_figure_accepts_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig5", "-j", "4", "--cache-dir", "/tmp/c", "--scale", "smoke"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert not args.no_cache

    def test_sweep_accepts_no_cache(self):
        args = build_parser().parse_args(
            ["campaign", "run", "examples/sweep.yaml", "--no-cache", "--jobs", "2"]
        )
        assert args.no_cache
        assert args.jobs == 2

    def test_validate_accepts_runner_flags(self):
        args = build_parser().parse_args(["validate", "-j", "3"])
        assert args.jobs == 3

    def test_list_documents_runner_flags(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--cache-dir" in out

    def test_warm_cache_figure_runs_zero_simulations(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["figure", "fig5", "--scale", "smoke", "--cache-dir", cache]) == 0
        first = capsys.readouterr()
        assert "0 simulated" not in first.err
        assert main(["figure", "fig5", "--scale", "smoke", "--cache-dir", cache]) == 0
        second = capsys.readouterr()
        assert "0 simulated" in second.err
        assert first.out == second.out


class TestUsageErrors:
    def test_bogus_scale_exits_2_without_traceback(self, capsys):
        rc = main(["figure", "table1", "--scale", "bogus"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "repro figure: error:" in captured.err
        assert "bogus" in captured.err
        assert "smoke" in captured.err  # names the valid scales
        assert "Traceback" not in captured.err

    def test_validate_bogus_scale_exits_2(self, capsys):
        rc = main(["validate", "--scale", "nope", "--figures", "fig1"])
        assert rc == 2
        assert "repro validate: error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_parser_accepts_check(self):
        args = build_parser().parse_args(["check", "--lint-only"])
        assert args.fn.__name__ == "cmd_check"
        assert args.lint_only

    def test_campaign_gate_runs_smoke_through_the_remote_door(self, capsys):
        from repro.cli import _check_campaigns

        assert _check_campaigns() == 0
        out = capsys.readouterr().out
        assert out.startswith("validated ")
        assert "campaign smoke done: 1 result rows" in out

    def test_check_lint_only_smoke(self, capsys):
        assert main(["check", "--lint-only"]) == 0
        out = capsys.readouterr().out
        assert "== repro lint ==" in out
        assert "lint clean" in out


class TestProfileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile", "pc"])
        assert args.fn.__name__ == "cmd_profile"
        assert args.workload == "pc"
        assert args.mode == "eager"
        assert args.top == 25
        assert args.out is None
        assert not hasattr(args, "no_quiesce")

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "nosuch"])

    def test_profile_smoke(self, capsys):
        rc = main(
            [
                "profile",
                "pc",
                "--threads",
                "2",
                "--instructions",
                "400",
                "--config",
                "quick",
                "--top",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped" in out  # the spine header line
        assert "cumulative" in out  # pstats table printed

    def test_profile_dumps_pstats(self, tmp_path, capsys):
        out_file = tmp_path / "run.pstats"
        rc = main(
            [
                "profile",
                "pc",
                "--threads",
                "2",
                "--instructions",
                "400",
                "--config",
                "quick",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        assert out_file.exists() and out_file.stat().st_size > 0
