"""Cross-validation of the simulator against the interleaving oracle,
plus the ``repro litmus`` CLI that fronts it."""

import dataclasses

import pytest

from repro.analysis.litmuscheck import (
    check_all,
    check_model,
    check_test,
    format_report,
    sweep,
)
from repro.cli import UsageError, _check_litmus, main
from repro.workloads.litmus_oracle import LITMUS_TESTS


class TestCheckers:
    def test_tso_simulator_within_oracle(self):
        report = check_model("tso")
        assert report.ok
        assert not report.violations
        assert {r.test for r in report.tests} == set(LITMUS_TESTS)

    def test_relaxed_within_oracle_and_demonstrates(self):
        report = check_model("relaxed")
        assert report.ok
        for tr in report.tests:
            if LITMUS_TESTS[tr.test].relaxed_only:
                assert tr.demonstrated, tr.test
                assert not tr.missing_demos, tr.test

    def test_check_all_covers_both_models(self):
        reports = check_all()
        assert [r.model for r in reports] == ["tso", "relaxed"]
        assert all(r.ok for r in reports)

    def test_unknown_program_raises(self):
        with pytest.raises(ValueError, match="unknown litmus program"):
            check_model("tso", tests=["nosuch"])

    def test_single_test_outcomes_are_oracle_allowed(self):
        tr = check_test(LITMUS_TESTS["sb"], "tso")
        assert tr.ok
        assert set(tr.outcomes) <= tr.allowed

    def test_format_report_mentions_every_test(self, capsys=None):
        report = check_model("tso", tests=["mp", "sb"])
        text = format_report(report)
        assert "mp" in text and "sb" in text
        assert "ok" in text


class TestSweep:
    """One sweep loop serves every door; only the demonstration rule
    differs between them."""

    @pytest.fixture
    def undemonstrated(self, monkeypatch):
        # mp's first pad set never reaches (1, 0) under RELAXED.
        mp = LITMUS_TESTS["mp"]
        short = dataclasses.replace(mp, pad_sets=mp.pad_sets[:1])
        monkeypatch.setitem(LITMUS_TESTS, "mp", short)

    def test_missing_demo_fails_only_when_required(self, undemonstrated, capsys):
        assert sweep(("relaxed",), ["mp"], require_demos=False) == 0
        assert sweep(("relaxed",), ["mp"]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_doors_keep_their_exit_rules(self, undemonstrated, tmp_path, capsys):
        litmus = ["litmus", "--model", "relaxed", "--program", "mp"]
        assert main(litmus) == 0
        assert main(litmus + ["--check"]) == 1
        spec = tmp_path / "l.yaml"
        spec.write_text(
            "campaign: 1\nname: l\nkind: litmus\nprograms: [mp]\nmodels: [relaxed]\n"
        )
        assert main(["campaign", "run", str(spec)]) == 1
        assert _check_litmus() == 1
        assert "litmus gate failed" in capsys.readouterr().out


class TestLitmusCLI:
    def test_default_invocation_passes(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "tso" in out and "relaxed" in out
        assert "VIOLATION" not in out

    def test_single_model_single_program(self, capsys):
        assert main(["litmus", "--model", "tso", "--program", "mp"]) == 0
        out = capsys.readouterr().out
        assert "mp" in out
        assert "relaxed" not in out.splitlines()[0]

    def test_check_mode_requires_demonstrations(self, capsys):
        assert main(["litmus", "--check"]) == 0
        out = capsys.readouterr().out
        assert "demonstrated" in out

    def test_unknown_program_is_a_usage_error(self, capsys):
        assert main(["litmus", "--program", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err

    def test_list_names_litmus_programs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "litmus:" in out
        assert "iriw" in out
