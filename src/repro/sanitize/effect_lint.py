"""Effect rules: statically prove the observer/mutator split.

Three rule families over :mod:`repro.sanitize.effects` summaries, each
enforcing one leg of the repo's timing-transparency contract:

``observer-purity``
    A statement dominated by an ``if tracer is not None`` /
    ``if sanitizer is not None`` guard runs only when observation is
    enabled — if it (or anything it calls) mutates simulation state, the
    observed run diverges from the unobserved one.  Guarded statements
    must stay ≤ ``READS_SIM``.

``quiescence-purity``
    The fast-forward spine trusts ``quiescent()``,
    ``next_wake_cycle()``, ``quiescence_reason()`` and
    ``wake_is_stale()`` to be pure
    queries: they are called speculatively, sometimes repeatedly, and a
    hidden state write would make cycle counts depend on *how often the
    harness asks*.  Every function they reach must stay ≤ ``READS_SIM``.

``determinism``
    Nothing reachable from ``MulticoreSimulator.run`` may be
    ``NONDET`` — no host clock, no unseeded randomness, no unordered
    ``set`` iteration feeding event or wake scheduling.  This is the
    static form of the golden 15-cell bit-identity check.

``consistency-purity``
    The :class:`~repro.core.consistency.ConsistencyModel` query methods
    (``load_load_ordered``, ``drain_candidates``, ``atomic_lazy_ready``,
    ``atomic_commit_ready``, ``fence_satisfied``) are decision oracles:
    the LSQ/pipeline/policy units ask them what the memory model
    *permits* and perform every mutation themselves.  A model method
    that wrote simulation state would smuggle ordering side effects
    behind the seam, so everything they reach must stay ≤
    ``READS_SIM``.

Each rule reports the *source* function whose own body offends, with an
example call path from the rule's root — not every intermediate caller
the effect propagated through.  ``effect-root-missing`` fires if a rule's
anchor function cannot be found (so a rename cannot silently disarm the
rule), and ``unused-effect-pragma`` reports escape-hatch pragmas that no
longer change or suppress anything.
"""

from __future__ import annotations

from pathlib import Path

from repro.sanitize.effects import (
    Contribution,
    Effect,
    EffectAnalysis,
    analyze,
)
from repro.sanitize.lint import LintFinding

#: Function names forming the quiescence-query purity surface.
#: ``wake_is_stale`` joined in PR 8: the event pump calls it speculatively
#: while lazily discarding stale wake-heap entries, so it carries the same
#: ask-as-often-as-you-like contract as the original three.
QUIESCENCE_QUERIES = (
    "quiescent",
    "next_wake_cycle",
    "quiescence_reason",
    "wake_is_stale",
)
#: ConsistencyModel decision-oracle methods (see module docstring):
#: pure queries over LQ/SB/DynInstr state; callers own all mutation.
CONSISTENCY_QUERIES = (
    "load_load_ordered",
    "drain_candidates",
    "atomic_lazy_ready",
    "atomic_commit_ready",
    "fence_satisfied",
)
#: (class, method) anchoring the determinism rule.
DETERMINISM_ROOT = ("MulticoreSimulator", "run")


def _accepted(
    analysis: EffectAnalysis, relpath: str, effect: Effect, *lines: int
) -> bool:
    """Is this effect accepted by an ``effect[...]`` pragma on any of
    the candidate lines?  Marks the pragma used."""
    for line in lines:
        pragma = analysis.pragmas.get((relpath, line))
        if pragma is not None and pragma.effect >= effect:
            analysis.mark_pragma_used(relpath, line)
            return True
    return False


def _path_str(path: tuple[str, ...]) -> str:
    return " -> ".join(path)


def _check_observer_purity(analysis: EffectAnalysis) -> list[LintFinding]:
    findings = []
    seen: set[tuple[str, int, str]] = set()
    for site in analysis.guard_sites:
        fn = analysis.fns[site.fn_key]
        contribs: list[Contribution] = analysis.statement_contributions(
            fn, site.stmt
        )
        for c in contribs:
            if c.effect <= Effect.READS_SIM:
                continue
            if _accepted(
                analysis, fn.relpath, c.effect, c.line, site.stmt.lineno
            ):
                continue
            dedupe = (fn.relpath, c.line, c.desc)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            findings.append(LintFinding(
                fn.relpath, c.line, "observer-purity",
                f"statement under `if {site.guard_name} is not None` "
                f"(line {site.guard_line}, in {fn.qualname}) must stay "
                f"<= reads_sim but {c.desc}",
            ))
    return findings


def _reach_findings(
    analysis: EffectAnalysis,
    root_key: str,
    threshold: Effect,
    rule: str,
    why: str,
) -> list[LintFinding]:
    findings = []
    seen: set[tuple[str, int, str]] = set()
    root_qual = analysis.fns[root_key].qualname
    for v in analysis.reach_report(root_key, threshold):
        if _accepted(analysis, v.relpath, v.effect, v.line):
            continue
        dedupe = (v.relpath, v.line, v.fn_key)
        if dedupe in seen:
            continue
        seen.add(dedupe)
        findings.append(LintFinding(
            v.relpath, v.line, rule,
            f"{v.qualname} is {v.effect.label} but is reachable from "
            f"{root_qual} ({why}): {v.desc} "
            f"[path: {_path_str(v.path)}]",
        ))
    return findings


def _check_quiescence_purity(analysis: EffectAnalysis) -> list[LintFinding]:
    findings = []
    roots = [
        key
        for name in QUIESCENCE_QUERIES
        for key in analysis.functions_named(name)
    ]
    if not roots:
        return [LintFinding(
            "", 1, "effect-root-missing",
            f"quiescence queries ({', '.join(QUIESCENCE_QUERIES)}) not found "
            f"anywhere in the universe — the quiescence-purity rule has "
            f"nothing to anchor to",
        )]
    for root in roots:
        findings.extend(_reach_findings(
            analysis, root, Effect.READS_SIM, "quiescence-purity",
            "quiescence queries must be repeatable pure reads",
        ))
    # One finding per source even when several queries reach it.
    unique: dict[tuple[str, int], LintFinding] = {}
    for f in findings:
        unique.setdefault((f.path, f.line), f)
    return list(unique.values())


def _check_consistency_purity(analysis: EffectAnalysis) -> list[LintFinding]:
    findings = []
    roots = [
        key
        for name in CONSISTENCY_QUERIES
        for key in analysis.functions_named(name)
    ]
    if not roots:
        return [LintFinding(
            "", 1, "effect-root-missing",
            f"no consistency query ({', '.join(CONSISTENCY_QUERIES)}) "
            f"found anywhere in the universe — the consistency-purity "
            f"rule has nothing to anchor to",
        )]
    for root in roots:
        findings.extend(_reach_findings(
            analysis, root, Effect.READS_SIM, "consistency-purity",
            "consistency-model queries decide, callers mutate",
        ))
    unique: dict[tuple[str, int], LintFinding] = {}
    for f in findings:
        unique.setdefault((f.path, f.line), f)
    return list(unique.values())


def _check_determinism(analysis: EffectAnalysis) -> list[LintFinding]:
    cls, method = DETERMINISM_ROOT
    roots = [
        key for key in analysis.functions_named(method)
        if analysis.fns[key].class_name == cls
    ]
    if not roots:
        return [LintFinding(
            "", 1, "effect-root-missing",
            f"{cls}.{method} not found — the determinism rule has nothing "
            f"to anchor to",
        )]
    findings = []
    for root in roots:
        findings.extend(_reach_findings(
            analysis, root, Effect.MUTATES_SIM, "determinism",
            "the simulation loop must be bit-reproducible",
        ))
    return findings


def _check_unused_pragmas(analysis: EffectAnalysis) -> list[LintFinding]:
    return [
        LintFinding(
            p.relpath, p.line, "unused-effect-pragma",
            f"effect[{p.effect.label}] pragma neither overrides inference "
            f"nor suppresses a finding; remove the stale escape",
        )
        for p in analysis.unused_pragmas()
    ]


def run(
    base: Path, analysis: EffectAnalysis | None = None
) -> list[LintFinding]:
    """Run all effect rule families; rules before the unused-pragma
    sweep, since rules are what mark pragmas used."""
    if analysis is None:
        analysis = analyze(base)
    findings: list[LintFinding] = []
    findings.extend(_check_observer_purity(analysis))
    findings.extend(_check_quiescence_purity(analysis))
    findings.extend(_check_consistency_purity(analysis))
    findings.extend(_check_determinism(analysis))
    findings.extend(_check_unused_pragmas(analysis))
    return findings
