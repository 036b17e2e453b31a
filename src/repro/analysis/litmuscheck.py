"""Cross-validate the timing simulator against the litmus oracle.

For every registered litmus shape (:data:`repro.workloads.litmus_oracle.
LITMUS_TESTS`) this module runs the full timing model over the shape's
padding sweep under a consistency model, extracts the observation tuple
from the committed load values, and checks it against the exhaustive
interleaving enumeration for that model:

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

from repro.common.params import ConsistencyKind, SystemParams
from repro.sim.multicore import simulate
from repro.workloads.litmus_oracle import (
    LITMUS_TESTS,
    LitmusTest,
    allowed_outcomes,
    observed_outcome,
)


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


def check_test(
    test: LitmusTest,
    model: "ConsistencyKind | str",
    params: SystemParams | None = None,
    sanitize: bool = True,
) -> TestReport:
    """Sweep one shape's padding sets under ``model`` and compare every
    simulator outcome with the oracle's allowed set."""
    kind = ConsistencyKind.from_name(model)
    base = params if params is not None else SystemParams.quick()
    run_params = base.with_consistency_model(kind)
    allowed = allowed_outcomes(test, kind)
    report = TestReport(test=test.name, model=kind.value, allowed=allowed)
    for pads in test.pad_sets:
        program = test.program(*pads)
        result = simulate(run_params, program, sanitize=sanitize)
        outcome = observed_outcome(program, result.load_values)
        report.outcomes.setdefault(outcome, pads)
        if outcome not in allowed:
            report.violations.append(
                LitmusViolation(test.name, kind.value, pads, outcome)
            )
    if kind is ConsistencyKind.RELAXED and test.relaxed_only:
        seen = frozenset(test.relaxed_only & set(report.outcomes))
        report.demonstrated = seen
        report.missing_demos = frozenset(test.relaxed_only - seen)
    return report


def check_model(
    model: "ConsistencyKind | str",
    tests: "list[str] | None" = None,
    params: SystemParams | None = None,
    sanitize: bool = True,
) -> LitmusReport:
    """Run every (or the named) litmus shapes under one model."""
    kind = ConsistencyKind.from_name(model)
    names = list(LITMUS_TESTS) if tests is None else list(tests)
    report = LitmusReport(model=kind.value)
    for name in names:
        try:
            test = LITMUS_TESTS[name]
        except KeyError:
            raise ValueError(
                f"unknown litmus program {name!r}; valid programs are "
                + ", ".join(sorted(LITMUS_TESTS))
            ) from None
        report.tests.append(check_test(test, kind, params, sanitize))
    return report


def check_all(
    models: tuple = (ConsistencyKind.TSO, ConsistencyKind.RELAXED),
    tests: "list[str] | None" = None,
    params: SystemParams | None = None,
    sanitize: bool = True,
) -> list:
    """Cross-validate every model; the ``repro check`` litmus gate."""
    return [check_model(m, tests, params, sanitize) for m in models]


def sweep(
    models: tuple = (ConsistencyKind.TSO, ConsistencyKind.RELAXED),
    tests: "list[str] | None" = None,
    require_demos: bool = True,
) -> int:
    """Check and print every model's report; the exit code of each
    litmus door: 1 on an oracle violation or, with ``require_demos``, on
    a relaxed-only outcome the sweep never reached; else 0."""
    rc = 0
    for report in check_all(models, tests):
        print(format_report(report))
        if report.violations or (require_demos and not report.ok):
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
