"""Shape validation: the paper's qualitative claims as checkable predicates.

Absolute numbers differ between the paper's testbed and this scaled model,
but each table's *shape* — orderings, winners, crossovers — is a concrete,
testable claim.  :data:`CLAIMS` is the one list of them, keyed by the
table id of :data:`repro.analysis.figures.TABLES`; the CLI (``python -m
repro validate``) regenerates tables and checks it, and tier-1 checks it
against the committed ``results/quick/*.json`` without simulating.  The
bounds are calibrated at the quick scale; smoke-scale runs are too short
for the contended-regime claims.

Every claim yields a :class:`CheckResult`; a table validates if all its
claims hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.report import FigureData


@dataclass(frozen=True)
class CheckResult:
    figure_id: str
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.figure_id} :: {self.name} — {self.detail}"


class _Cells:
    """A table read cell by cell.  It remembers what a claim read, so the
    report shows the numbers the verdict rests on."""

    def __init__(self, fig: FigureData) -> None:
        self.fig = fig
        self.read: list[str] = []

    def _note(self, what: str, *values: object) -> None:
        shown = (f"{v:.3f}" if isinstance(v, float) else str(v) for v in values)
        self.read.append(f"{what}={' '.join(shown)}")

    def __call__(self, row, column: str):
        """The cell under ``column`` in the row whose leading cell(s)
        equal ``row`` (a tuple for tables keyed by several columns)."""
        key = list(row) if isinstance(row, tuple) else [row]
        index = self.fig.columns.index(column)
        for cells in self.fig.rows:
            if cells[: len(key)] == key:
                self._note(f"{'/'.join(map(str, key))} {column}", cells[index])
                return cells[index]
        raise KeyError(f"no row {row!r}")

    def column(self, name: str, skip: tuple[str, ...] = ("GEOMEAN", "MEAN")) -> list:
        """Every workload row's value under ``name`` (aggregates skipped)."""
        index = self.fig.columns.index(name)
        values = [cells[index] for cells in self.fig.rows if cells[0] not in skip]
        self._note(name, *values)
        return values


@dataclass(frozen=True)
class Claim:
    table: str  # id in repro.analysis.figures.TABLES
    name: str
    holds: Callable[[_Cells], bool]

    def check(self, fig: FigureData) -> CheckResult:
        cells = _Cells(fig)
        try:
            passed = bool(self.holds(cells))
        except (LookupError, ValueError) as exc:
            # A sliced or doctored table that lacks the cells fails the
            # claim; it does not crash the report.
            return CheckResult(
                fig.figure_id, self.name, False, f"cannot be read: {exc!r}"
            )
        read = dict.fromkeys(cells.read)  # each cell once, in reading order
        return CheckResult(fig.figure_id, self.name, passed, ", ".join(read))


_CONTENDED = ("tpcc", "sps", "pc")
_R = "lazy/eager"
_SAT, _UD = "RW+Dir_Sat", "RW+Dir_U/D"


def _per_iter(t: _Cells, machine: str, op: str, variant: str) -> float:
    return t((machine, op, variant), "cycles_per_iter")


def _fig2_ratio(t: _Cells, machine: str, a: str, b: str, op: str = "faa") -> float:
    return _per_iter(t, machine, op, a) / _per_iter(t, machine, op, b)


def _percent(t: _Cells, metric: str) -> float:
    return float(t(metric, "reproduced").rstrip("%"))


def _best(t: _Cells, *columns: str) -> float:
    return min(t("GEOMEAN", column) for column in columns)


CLAIMS: tuple[Claim, ...] = (
    # -- Fig. 1: lazy vs eager -------------------------------------------
    Claim("fig1", "canneal strongly eager-favoring", lambda t: t("canneal", _R) > 1.25),
    Claim("fig1", "freqmine eager-favoring", lambda t: t("freqmine", _R) > 1.05),
    Claim("fig1", "pc strongly lazy-favoring", lambda t: t("pc", _R) < 0.8),
    Claim(
        "fig1", "contended trio all lazy-favoring",
        lambda t: all(t(wl, _R) < 1.0 for wl in _CONTENDED),
    ),
    Claim(
        "fig1", "middle apps near-neutral",
        lambda t: all(0.85 < t(wl, _R) < 1.2 for wl in ("fmm", "volrend", "radiosity")),
    ),
    # -- Fig. 2: fence microbenchmark -------------------------------------
    Claim(
        "fig2", "old x86: lock prefix ~doubles cycles",
        lambda t: 1.6 < _fig2_ratio(t, "old-x86", "lock", "plain") < 3.0,
    ),
    Claim(
        "fig2", "old x86: mfence free on top of lock",
        lambda t: _fig2_ratio(t, "old-x86", "lock+mfence", "lock") < 1.1,
    ),
    Claim(
        "fig2", "new x86: lock prefix free",
        lambda t: _fig2_ratio(t, "new-x86", "lock", "plain") < 1.1,
    ),
    Claim(
        "fig2", "new x86: mfence costs ~4x",
        lambda t: _fig2_ratio(t, "new-x86", "plain+mfence", "plain") > 2.5,
    ),
    Claim(
        "fig2", "xchg always locks",
        lambda t: _fig2_ratio(t, "old-x86", "plain", "lock", op="swap") > 0.85,
    ),
    Claim(
        "fig2", "plain xchg costs what a fence does (footnote 1)",
        lambda t: _per_iter(t, "old-x86", "swap", "plain")
        > 1.6 * _per_iter(t, "old-x86", "faa", "plain"),
    ),
    # -- Fig. 4: independent instructions ---------------------------------
    Claim(
        "fig4", "older instructions still pending at eager issue",
        lambda t: sum(older := t.column("older_not_executed_at_eager_issue"))
        / len(older) > 1,
    ),
    Claim(
        "fig4", "dependency-laden streamcluster starts fewer younger than pc",
        lambda t: t("streamcluster", "younger_started_at_lazy_issue")
        < t("pc", "younger_started_at_lazy_issue"),
    ),
    Claim(
        "fig4", "dependency-laden raytrace starts fewer younger than tpcc",
        lambda t: t("raytrace", "younger_started_at_lazy_issue")
        < t("tpcc", "younger_started_at_lazy_issue"),
    ),
    # -- Fig. 5: intensity and contention ---------------------------------
    Claim(
        "fig5", "every app atomic-intensive (>= 1 per 10k)",
        lambda t: min(t.column("atomics_per_10k")) >= 1,
    ),
    Claim(
        "fig5", "contended trio far more contended than canneal/freqmine",
        lambda t: all(
            t(hot, "contended_pct") > t(clean, "contended_pct") + 20
            for hot in _CONTENDED
            for clean in ("canneal", "freqmine")
        ),
    ),
    # -- Fig. 6: latency breakdown ----------------------------------------
    Claim(
        "fig6", "lazy waits in dispatch->issue on contended apps",
        lambda t: all(
            t((wl, "lazy"), "dispatch_to_issue") > t((wl, "eager"), "dispatch_to_issue")
            for wl in _CONTENDED
        ),
    ),
    Claim(
        "fig6", "lazy lock window minimal on contended apps",
        lambda t: all(t((wl, "lazy"), "lock_to_unlock") < 6 for wl in _CONTENDED),
    ),
    Claim(
        "fig6", "eager holds locks longer on contended apps",
        lambda t: all(
            t((wl, "eager"), "lock_to_unlock") > t((wl, "lazy"), "lock_to_unlock")
            for wl in _CONTENDED
        ),
    ),
    # -- Fig. 9: RoW variants ---------------------------------------------
    Claim("fig9", "RW+Dir beats always-eager on average", lambda t: _best(t, _UD, _SAT) < 1.0),
    Claim(
        "fig9", "RW+Dir at least matches lazy overall",
        lambda t: _best(t, _UD, _SAT) <= t("GEOMEAN", "lazy") + 0.02,
    ),
    Claim(
        "fig9", "EW insufficient (clearly worse than RW+Dir)",
        lambda t: _best(t, "EW_U/D", "EW_Sat") > _best(t, _UD, _SAT) + 0.03,
    ),
    Claim("fig9", "RoW preserves eager's win on canneal", lambda t: t("canneal", _SAT) < 1.05),
    Claim("fig9", "cq pathology without forwarding", lambda t: t("cq", _SAT) > 1.0),
    Claim("fig9", "RW+Dir_Sat tracks lazy on pc", lambda t: t("pc", _SAT) < 0.95),
    # -- Fig. 10: latency-threshold sensitivity ---------------------------
    Claim(
        "fig10", "scaled threshold at/near the optimum",
        lambda t: t("GEOMEAN", "thr_40")
        <= _best(t, *(c for c in t.fig.columns if c != "workload")) + 0.02,
    ),
    Claim(
        "fig10", "inf degenerates toward RW",
        lambda t: t("GEOMEAN", "thr_inf") > t("GEOMEAN", "thr_40"),
    ),
    Claim(
        "fig10", "gigantic thresholds converge to inf",
        lambda t: abs(t("GEOMEAN", "thr_2000") - t("GEOMEAN", "thr_inf")) < 0.1,
    ),
    # -- Fig. 11: miss latency --------------------------------------------
    Claim(
        "fig11", "eager inflates miss latency on contended apps",
        lambda t: all(t(wl, "eager") > 1.2 * t(wl, "lazy") for wl in ("pc", "sps", "tpcc")),
    ),
    Claim(
        "fig11", "policy-insensitive on canneal",
        lambda t: abs(t("canneal", "eager") - t("canneal", "lazy"))
        < 0.25 * t("canneal", "lazy"),
    ),
    # -- Fig. 12: predictor accuracy --------------------------------------
    Claim(
        "fig12", "both predictors mostly right on average",
        lambda t: t("MEAN", "U/D") > 0.5 and t("MEAN", "Sat") > 0.4,
    ),
    Claim("fig12", "canneal trivially predictable for U/D", lambda t: t("canneal", "U/D") > 0.9),
    Claim("fig12", "canneal trivially predictable for Sat", lambda t: t("canneal", "Sat") > 0.9),
    # -- Fig. 13: forwarding ----------------------------------------------
    Claim(
        "fig13", "forwarding recovers cq",
        lambda t: t("cq", _UD + "+fwd") <= t("cq", _UD) + 0.02,
    ),
    Claim(
        "fig13", "forwarding never hurts on average",
        lambda t: t("GEOMEAN", _SAT + "+fwd") <= t("GEOMEAN", _SAT) + 0.02,
    ),
    Claim(
        "fig13", "forwarding never hurts U/D on average",
        lambda t: t("GEOMEAN", _UD + "+fwd") <= t("GEOMEAN", _UD) + 0.02,
    ),
    Claim(
        "fig13", "best RoW+fwd beats eager by a solid margin",
        lambda t: _best(t, _UD + "+fwd", _SAT + "+fwd") < 0.95,
    ),
    # -- Table I and the headline numbers ---------------------------------
    Claim("table1", "32 cores", lambda t: t("cores", "value") == 32),
    Claim(
        "table1", "ROB/LQ/SB sized as in the paper",
        lambda t: t("ROB/LQ/SB entries", "value") == "512/192/128",
    ),
    Claim(
        "table1", "RoW fits the 64-byte budget (Sec. IV-F)",
        lambda t: t("RoW storage", "value") == "64 bytes",
    ),
    Claim(
        "headline", "RoW+fwd beats the eager baseline on average",
        lambda t: _percent(t, "RW+Dir_Sat+fwd vs eager (atomic-intensive, avg)") > 0,
    ),
    Claim(
        "headline", "the best case is a large reduction",
        lambda t: _percent(t, "RW+Dir_Sat+fwd vs eager (max)") > 15,
    ),
    # -- Ablations (Sec. IV-D/IV-F sizing) --------------------------------
    Claim(
        "ablation_predictor_entries", "a single shared entry mis-schedules mixed sites",
        lambda t: t("mixed-alias", "entries_64") <= t("mixed-alias", "entries_1") + 0.01,
    ),
    Claim(
        "ablation_predictor_entries", "64 entries suffice (256 buys nothing)",
        lambda t: abs(t("GEOMEAN", "entries_256") - t("GEOMEAN", "entries_64")) < 0.05,
    ),
    Claim(
        "ablation_counter_width", "4-bit counters at least match 1-bit",
        lambda t: t("GEOMEAN", "bits_4") <= t("GEOMEAN", "bits_1") + 0.02,
    ),
    Claim(
        "ablation_predictor_policy", "the kept policies beat always-eager",
        lambda t: _best(t, "u/d", "sat") < 1.0,
    ),
    Claim(
        "ablation_predictor_policy", "+2/-1 is no disaster either",
        lambda t: t("GEOMEAN", "+2/-1") < 1.05,
    ),
    Claim(
        "ablation_aq_depth", "a 1-entry AQ costs canneal real performance",
        lambda t: t("canneal", "aq_1") > 1.1,
    ),
    Claim(
        "ablation_aq_depth", "16 entries is the baseline",
        lambda t: t("canneal", "aq_16") == 1.0,
    ),
    Claim(
        "ablation_sb_depth", "every depth is a working system within sane bounds",
        lambda t: all(
            0.5 < t(wl, column) < 2.0
            for wl in ("canneal", "pc")
            for column in ("sb_4", "sb_8", "sb_16", "sb_32")
        ),
    ),
    Claim(
        "ablation_oracle_schedule", "the oracle bounds both realizable policies",
        lambda t: t("GEOMEAN", "oracle") <= _best(t, "lazy", "row") + 0.01,
    ),
    Claim(
        "ablation_oracle_schedule", "no contended PC, no laziness: canneal stays eager",
        lambda t: t("canneal", "oracle_pcs") == 0 and t("canneal", "oracle") < 1.05,
    ),
    Claim(
        "ablation_consistency", "the eager/lazy trade-off survives under RELAXED",
        lambda t: t("canneal", "lazy_relaxed") > 1.25 and t("pc", "lazy_relaxed") < 0.8,
    ),
    Claim(
        "ablation_consistency", "RoW beats always-eager under both models",
        lambda t: t("GEOMEAN", "row_tso") < 1.0 and t("GEOMEAN", "row_relaxed") < 1.0,
    ),
    # -- Extensions -------------------------------------------------------
    Claim("ext_far", "far beats eager where lazy does", lambda t: t("pc", "far") < 0.8),
    Claim(
        "ext_far", "far loses where latency hiding matters",
        lambda t: t("canneal", "far") > 1.2,
    ),
    Claim(
        "ext_scaling", "the largest machine favors lazy the most",
        lambda t: (ratios := t.column("lazy_over_eager"))[-1] == min(ratios),
    ),
    Claim(
        "ext_scaling", "eager collapses at the largest machine",
        lambda t: t.column("lazy_over_eager")[-1] < 0.85,
    ),
)


def validate_figure(table_id: str, fig: FigureData) -> list[CheckResult]:
    """Every claim registered for ``table_id``, checked against ``fig``."""
    return [claim.check(fig) for claim in CLAIMS if claim.table == table_id]


def validate_all(figures: dict[str, FigureData]) -> list[CheckResult]:
    results: list[CheckResult] = []
    for table_id, fig in figures.items():
        results.extend(validate_figure(table_id, fig))
    return results


def run_validation(names=None, scale=None, runner=None) -> list[CheckResult]:
    """Regenerate the named tables (default: all) from their committed
    campaigns through one Runner and check their claims.

    Sharing a :class:`~repro.analysis.parallel.Runner` lets a
    parallel/cached validation reuse the eager/lazy baselines that most
    tables have in common.
    """
    from repro.analysis.figures import TABLES, load_table_campaign, render

    return validate_all(
        {
            table_id: render(load_table_campaign(table_id), scale, runner)
            for table_id in (TABLES if names is None else names)
        }
    )
