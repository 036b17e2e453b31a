"""Cross-validation of the simulator against the interleaving oracle,
plus its two doors: ``repro campaign run`` on a litmus spec and the
``repro check`` litmus gate."""

import dataclasses

import pytest

from repro.analysis.litmuscheck import check, format_report, sweep
from repro.analysis.parallel import Runner
from repro.analysis.runner import RunMetrics
from repro.cli import _check_litmus, main
from repro.service.schema import default_campaign_dir, load_named_campaign
from repro.workloads.litmus_oracle import LITMUS_TESTS, allowed_outcomes

LITMUS = load_named_campaign("litmus")
LITMUS_SPEC = str(default_campaign_dir() / "litmus.yaml")


def litmus(models=None, programs=None):
    """The committed litmus campaign, narrowed to some models/programs."""
    campaign = LITMUS
    if models is not None:
        campaign = dataclasses.replace(campaign, models=tuple(models))
    if programs is not None:
        campaign = dataclasses.replace(campaign, programs=tuple(programs))
    return campaign


def litmus_spec(path, programs, models):
    """A narrowed ``kind: litmus`` spec file for ``repro campaign run``."""
    path.write_text(
        f"campaign: 1\nname: l\nkind: litmus\nprograms: [{', '.join(programs)}]\n"
        f"models: [{', '.join(models)}]\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def runner():
    """One memory-only Runner per module: each cell simulates once."""
    return Runner()


class TestCheckers:
    def test_tso_simulator_within_oracle(self, runner):
        [report] = check(litmus(models=["tso"]), runner)
        assert report.ok
        assert not report.violations
        assert {r.test for r in report.tests} == set(LITMUS_TESTS)

    def test_relaxed_within_oracle_and_demonstrates(self, runner):
        [report] = check(litmus(models=["relaxed"]), runner)
        assert report.ok
        for tr in report.tests:
            if LITMUS_TESTS[tr.test].relaxed_only:
                assert tr.demonstrated, tr.test
                assert not tr.missing_demos, tr.test

    def test_check_all_covers_both_models(self, runner):
        reports = check(LITMUS, runner)
        assert [r.model for r in reports] == ["tso", "relaxed"]
        assert all(r.ok for r in reports)

    def test_unknown_program_raises(self):
        with pytest.raises(ValueError, match="unknown litmus program"):
            check(litmus(programs=["nosuch"]))

    def test_single_test_outcomes_are_oracle_allowed(self, runner):
        [report] = check(litmus(["tso"], ["sb"]), runner)
        [tr] = report.tests
        assert tr.ok
        assert set(tr.outcomes) <= tr.allowed

    def test_format_report_mentions_every_test(self, runner):
        [report] = check(litmus(["tso"], ["mp", "sb"]), runner)
        text = format_report(report)
        assert "mp" in text and "sb" in text
        assert "ok" in text

    @pytest.mark.parametrize("name", ["mp", "mp+fences", "mp+swap"])
    def test_mp_family_sees_more_than_one_interleaving(self, runner, name):
        """The writer-late and reader-late pad sets let the reader overlap
        the writer, so soundness is checked on more than one outcome."""
        for report in check(litmus(programs=[name]), runner):
            [tr] = report.tests
            assert len(tr.outcomes) >= 2, (name, report.model, tr.outcomes)

    def test_outcome_rides_in_the_cell_metrics(self, runner):
        from repro.service.planner import iter_cells

        cell = next(iter_cells(litmus(["tso"], ["sb"])))
        metrics = runner.run(cell.spec)
        assert metrics.outcome in allowed_outcomes(LITMUS_TESTS["sb"], "tso")
        assert '"outcome"' in metrics.to_json()
        assert RunMetrics.from_json(metrics.to_json()) == metrics


class TestSweep:
    """One sweep loop serves every door, with one exit rule."""

    @pytest.fixture
    def undemonstrated(self, monkeypatch):
        # mp's first pad set never reaches (1, 0) under RELAXED.
        mp = LITMUS_TESTS["mp"]
        short = dataclasses.replace(mp, pad_sets=mp.pad_sets[:1])
        monkeypatch.setitem(LITMUS_TESTS, "mp", short)

    def test_missing_demo_fails(self, undemonstrated, capsys):
        assert sweep(litmus(["relaxed"], ["mp"])) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_doors_keep_their_exit_rules(self, undemonstrated, tmp_path, capsys):
        spec = litmus_spec(tmp_path / "l.yaml", ["mp"], ["relaxed"])
        assert main(["campaign", "run", spec]) == 1
        assert main(["campaign", "run", spec, "--no-cache"]) == 1
        assert "MISSING" in capsys.readouterr().out
        assert _check_litmus() == 1
        assert "litmus gate failed" in capsys.readouterr().out


class TestNoDiskCache:
    """Until the cache keys on engine identity, a stale entry must not be
    able to vouch for memory ordering: the gate runs memory-only."""

    def test_gate_leaves_an_empty_cache_dir_empty(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert _check_litmus() == 0
        assert list(cache.iterdir()) == []

    def test_forged_entry_is_not_read(self, tmp_path, monkeypatch, capsys):
        from repro.analysis.parallel import default_cache_dir
        from repro.service.planner import iter_cells

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        cell = next(iter_cells(litmus(["tso"], ["mp"])))
        disk = Runner(cache_dir=default_cache_dir())
        forged = dataclasses.replace(disk.run(cell.spec), outcome=(1, 0))
        disk._cache_store(cell.spec, forged)  # forbidden under TSO
        assert _check_litmus() == 0
        spec = litmus_spec(tmp_path / "l.yaml", ["mp"], ["tso"])
        assert main(["campaign", "run", spec, "--no-cache"]) == 0
        assert "VIOLATION" not in capsys.readouterr().out
        # The planted entry is live: a disk-cached run does read it.
        assert main(["campaign", "run", spec]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestLitmusCLI:
    def test_default_invocation_passes(self, capsys):
        assert main(["campaign", "run", LITMUS_SPEC, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "litmus [tso]" in out and "litmus [relaxed]" in out
        assert "VIOLATION" not in out

    def test_single_model_single_program(self, tmp_path, capsys):
        spec = litmus_spec(tmp_path / "l.yaml", ["mp"], ["tso"])
        assert main(["campaign", "run", spec, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "litmus [tso]\n  mp " in out
        assert "relaxed" not in out
        assert "at scale" not in out  # a litmus cell reads no scale

    def test_check_mode_requires_demonstrations(self, capsys):
        assert main(["campaign", "run", LITMUS_SPEC, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "demonstrated" in out
        assert "MISSING" not in out

    def test_unknown_program_is_a_usage_error(self, tmp_path, capsys):
        spec = litmus_spec(tmp_path / "l.yaml", ["nosuch"], ["tso"])
        assert main(["campaign", "run", spec]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err

    def test_list_names_litmus_programs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "litmus:" in out
        assert "iriw" in out
