"""Claim tests: hand-built tables, then the committed quick-scale ones."""

import json
import pathlib

import repro
from repro.analysis.export import golden_digest, load_figures
from repro.analysis.figures import TABLES
from repro.analysis.report import FigureData
from repro.analysis.validate import CLAIMS, validate_all, validate_figure
from repro.workloads.profiles import FIGURE_ORDER


def fig1_like(ratios: dict[str, float]) -> FigureData:
    fig = FigureData("Fig.1", "t", ["workload", "lazy/eager"])
    for wl in FIGURE_ORDER:
        fig.add_row(wl, ratios.get(wl, 1.0))
    return fig


GOOD_FIG1 = {
    "canneal": 1.5,
    "freqmine": 1.3,
    "tpcc": 0.8,
    "sps": 0.7,
    "pc": 0.45,
}


class TestFig1Validator:
    def test_paper_shape_passes(self):
        results = validate_figure("fig1", fig1_like(GOOD_FIG1))
        assert all(r.passed for r in results)

    def test_flipped_canneal_fails(self):
        bad = dict(GOOD_FIG1, canneal=0.9)
        results = validate_figure("fig1", fig1_like(bad))
        failed = [r for r in results if not r.passed]
        assert any("canneal" in r.name for r in failed)

    def test_eager_favoring_pc_fails(self):
        bad = dict(GOOD_FIG1, pc=1.2)
        results = validate_figure("fig1", fig1_like(bad))
        assert any(not r.passed for r in results)

    def test_result_rendering(self):
        results = validate_figure("fig1", fig1_like(GOOD_FIG1))
        text = str(results[0])
        assert "PASS" in text and "Fig.1" in text


class TestFig2Validator:
    def make(self, old_lock=2.0, new_mfence=4.0):
        fig = FigureData(
            "Fig.2", "t", ["machine", "op", "variant", "cycles_per_iter"]
        )
        base = 50.0
        for op in ("faa", "cas", "swap"):
            locked_cost = base * old_lock if op != "swap" else base * old_lock
            plain_old = base if op != "swap" else base * old_lock
            fig.add_row("old-x86", op, "plain", plain_old)
            fig.add_row("old-x86", op, "plain+mfence", base * old_lock)
            fig.add_row("old-x86", op, "lock", locked_cost)
            fig.add_row("old-x86", op, "lock+mfence", base * old_lock)
            plain_new = 25.0 if op != "swap" else 25.0
            fig.add_row("new-x86", op, "plain", plain_new)
            fig.add_row("new-x86", op, "plain+mfence", 25.0 * new_mfence)
            fig.add_row("new-x86", op, "lock", plain_new)
            fig.add_row("new-x86", op, "lock+mfence", 25.0 * new_mfence)
        return fig

    def test_paper_shape_passes(self):
        assert all(r.passed for r in validate_figure("fig2", self.make()))

    def test_fenced_modern_machine_fails(self):
        # If the "new" machine paid for the lock like the old one, the
        # lock-free check must fail: rebuild with lock == 2x plain.
        fig = self.make()
        for row in fig.rows:
            if row[0] == "new-x86" and row[2] == "lock":
                row[3] = 50.0
        results = validate_figure("fig2", fig)
        assert any(not r.passed for r in results)


class TestRegistry:
    def test_known_validators(self):
        """Every table has at least one claim, and every claim a table:
        no registered table can validate vacuously."""
        claimed = {claim.table for claim in CLAIMS}
        assert claimed == set(TABLES)
        names = [(claim.table, claim.name) for claim in CLAIMS]
        assert len(names) == len(set(names))

    def test_unknown_figure_returns_empty(self):
        assert validate_figure("fig3", FigureData("x", "t", ["a"])) == []

    def test_unreadable_table_fails_the_claim(self):
        """A table that lacks the cells a claim reads (a slice, a
        doctored file) fails the claim instead of raising."""
        results = validate_figure("fig4", FigureData("x", "t", ["a"]))
        assert results and not any(r.passed for r in results)
        assert "cannot be read" in results[0].detail


RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results" / "quick"


class TestCommittedTables:
    """``results/quick/`` is what ``repro figure all --output`` wrote: the
    claims are checked against it here, without simulating."""

    def load(self):
        return {
            path.stem: load_figures(path)[0] for path in sorted(RESULTS.glob("*.json"))
        }

    def failed(self, figures):
        return {
            (table_id, result.name)
            for table_id, fig in figures.items()
            for result in validate_figure(table_id, fig)
            if not result.passed
        }

    def test_one_txt_and_one_json_per_table(self):
        assert sorted(p.name for p in RESULTS.iterdir()) == sorted(
            f"{table_id}.{ext}" for table_id in TABLES for ext in ("json", "txt")
        )
        for table_id, fig in self.load().items():
            assert (RESULTS / f"{table_id}.txt").read_text() == fig.render()

    def test_every_claim_holds_on_the_committed_tables(self):
        figures = self.load()
        assert len(validate_all(figures)) == len(CLAIMS)
        assert self.failed(figures) == set()

    def test_a_doctored_table_fails_the_named_claim(self):
        figures = self.load()
        figures["fig1"].row_map()["canneal"][1] = 0.9
        sat = figures["fig9"].columns.index("RW+Dir_Sat")
        figures["fig9"].row_map()["GEOMEAN"][sat] = 1.1
        assert self.failed(figures) == {
            ("fig1", "canneal strongly eager-favoring"),
            ("fig9", "RW+Dir at least matches lazy overall"),
        }

    def test_tables_were_generated_under_the_committed_golden_snapshot(self):
        """Re-baselining golden without regenerating the tables (``repro
        figure all --output results/quick``) is caught here."""
        for path in sorted(RESULTS.glob("*.json")):
            payload = json.loads(path.read_text())
            assert payload["scale"]["name"] == "quick", path.name
            assert payload["engine"] == repro.__version__, path.name
            assert payload["golden_sha256"] == golden_digest(), path.name
