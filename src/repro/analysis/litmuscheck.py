"""Cross-validate the timing simulator against the litmus oracle.

A ``kind: litmus`` campaign expands (:func:`repro.service.planner.
iter_cells`) into one cell per shape × consistency model × padding set of
the registered litmus shapes (:data:`repro.workloads.litmus_oracle.
LITMUS_TESTS`).  Each cell runs through the :class:`~repro.analysis.
parallel.Runner` like any other campaign cell — with the runtime
sanitizers on — and its :class:`~repro.analysis.runner.RunMetrics` carry
the observation tuple the committed load values formed.  This module is
the verdict over those outcomes, against the exhaustive interleaving
enumeration for each model:

* **Soundness** — every outcome the simulator produces must be in the
  oracle's allowed set.  A violation means the pipeline manufactured an
  ordering the model forbids (e.g. TSO showing MP's ``flag=1, data=0``).
* **Demonstration** — under RELAXED, the sweep must actually *reach* the
  tagged relaxed-only outcomes (e.g. MP ``(1, 0)``, IRIW ``(1, 0, 1, 0)``),
  proving the model plug changes machine behaviour rather than merely
  renaming TSO.

The simulator is expected to be a *subset* of the oracle (timing prunes
interleavings the axioms admit — e.g. LB's ``(1, 1)`` needs speculative
store visibility this machine never performs), so missing allowed
outcomes are not errors; only forbidden outcomes and missing
demonstrations are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.parallel import Runner
from repro.common.params import ConsistencyKind
from repro.workloads.litmus_oracle import LITMUS_TESTS, allowed_outcomes


@dataclass(frozen=True)
class LitmusViolation:
    """One simulator outcome outside the oracle's allowed set."""

    test: str
    model: str
    pads: tuple[int, ...]
    outcome: tuple[int, ...]


@dataclass
class TestReport:
    """One litmus shape under one model: sweep outcomes vs the oracle."""

    test: str
    model: str
    allowed: frozenset
    outcomes: dict = field(default_factory=dict)  # outcome -> first pads
    violations: list = field(default_factory=list)
    demonstrated: frozenset = frozenset()  # relaxed-only outcomes reached
    missing_demos: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.missing_demos


@dataclass
class LitmusReport:
    """All shapes under one model."""

    model: str
    tests: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tests)

    @property
    def violations(self) -> list:
        return [v for t in self.tests for v in t.violations]


def check(campaign, runner: Runner | None = None) -> list[LitmusReport]:
    """Run a litmus campaign's cells and judge them: one report per model,
    its shapes in the campaign's order.  No ``runner`` means a fresh
    memory-only one, so no disk cache can vouch for memory ordering."""
    from repro.service.planner import iter_cells

    cells = list(iter_cells(campaign))
    runner = runner if runner is not None else Runner()
    outcomes: dict[tuple[str, str], list] = {}
    for cell, metrics in zip(cells, runner.run_many([c.spec for c in cells])):
        key = (cell["program"], cell["model"])
        outcomes.setdefault(key, []).append((cell["pads"], metrics.outcome))
    reports = []
    for model in campaign.models:
        kind = ConsistencyKind.from_name(model)
        report = LitmusReport(model=kind.value)
        for name in campaign.programs:
            test = LITMUS_TESTS[name]
            allowed = allowed_outcomes(test, kind)
            tr = TestReport(test=name, model=kind.value, allowed=allowed)
            for pads, outcome in outcomes[name, model]:
                tr.outcomes.setdefault(outcome, pads)
                if outcome not in allowed:
                    tr.violations.append(
                        LitmusViolation(name, kind.value, pads, outcome)
                    )
            if kind is ConsistencyKind.RELAXED and test.relaxed_only:
                seen = frozenset(test.relaxed_only & set(tr.outcomes))
                tr.demonstrated = seen
                tr.missing_demos = frozenset(test.relaxed_only - seen)
            report.tests.append(tr)
        reports.append(report)
    return reports


def sweep(campaign, runner: Runner | None = None) -> int:
    """Check and print every model's report; the exit code of each
    litmus door: 1 on an oracle violation or on a relaxed-only outcome
    the sweep never reached; else 0."""
    rc = 0
    for report in check(campaign, runner):
        print(format_report(report))
        if not report.ok:
            rc = 1
    return rc


def format_report(report: LitmusReport) -> str:
    lines = [f"litmus [{report.model}]"]
    for t in report.tests:
        status = "ok" if t.ok else "FAIL"
        seen = ", ".join(str(o) for o in sorted(t.outcomes))
        lines.append(f"  {t.test:<10} {status:<4} seen: {seen}")
        for v in t.violations:
            lines.append(
                f"    VIOLATION pads={v.pads}: outcome {v.outcome} "
                f"is forbidden under {v.model}"
            )
        for o in sorted(t.demonstrated):
            lines.append(f"    demonstrated relaxed-only outcome {o}")
        for o in sorted(t.missing_demos):
            lines.append(
                f"    MISSING: relaxed-only outcome {o} never reached"
            )
    return "\n".join(lines)
