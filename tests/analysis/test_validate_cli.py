"""CLI validate command tests (stubbed table readers: no simulation cost)."""

import pytest

from repro.analysis.report import FigureData
from repro.cli import main
from repro.workloads.profiles import FIGURE_ORDER


def fake_fig1(good: bool) -> FigureData:
    fig = FigureData("Fig.1", "stub", ["workload", "lazy/eager"])
    ratios = {
        "canneal": 1.5 if good else 0.9,
        "freqmine": 1.3,
        "tpcc": 0.8,
        "sps": 0.7,
        "pc": 0.5,
    }
    for wl in FIGURE_ORDER:
        fig.add_row(wl, ratios.get(wl, 1.0))
    return fig


@pytest.fixture
def stub_figures(monkeypatch):
    def install(good: bool):
        from repro.analysis.figures import TABLES

        monkeypatch.setitem(
            TABLES, "fig1", lambda campaign, scale, runner: fake_fig1(good)
        )

    return install


class TestValidateCommand:
    def test_passing_checks_exit_zero(self, stub_figures, capsys):
        stub_figures(good=True)
        rc = main(["validate", "--scale", "smoke", "--figures", "fig1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 checks, 0 failing" in out
        assert "[PASS]" in out

    def test_failing_checks_exit_nonzero(self, stub_figures, capsys):
        stub_figures(good=False)
        rc = main(["validate", "--scale", "smoke", "--figures", "fig1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out
        assert "5 checks, 1 failing" in out

    def test_unknown_table_exits_2_listing_the_valid_ids(self, capsys):
        """At the parent this was a KeyError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--figures", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "fig13" in err and "ext_scaling" in err

    def test_no_table_passes_with_zero_checks(self, monkeypatch, capsys):
        """At the parent, ``--figures fig4`` regenerated the figure, ran
        no check and printed "all checks passed"."""
        from repro.analysis.figures import TABLES
        from repro.analysis.report import FigureData as Fig

        empty = Fig("Fig.4", "stub", ["workload"])
        monkeypatch.setitem(TABLES, "fig4", lambda campaign, scale, runner: empty)
        rc = main(["validate", "--scale", "smoke", "--figures", "fig4"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "3 checks, 3 failing" in out
