"""The effect analysis proves timing transparency — and catches defects.

First half: on the clean tree the three effect rule families report
nothing, and the inferred summaries confirm the contracts the rest of
the repo relies on (quiescence queries <= READS_SIM, tracer hooks pure,
the simulation loop deterministic).  Second half: seeded defects — a
mutation inside a tracer guard, a state write inside ``quiescent()``, a
set-order iteration in the wake loop — each make exactly the right rule
fire, so the analysis is demonstrably load-bearing rather than
vacuously green.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import repro
from repro.cli import main
from repro.sanitize import run_lint
from repro.sanitize.effect_lint import run as run_effect_lint
from repro.sanitize.effects import Effect, analyze

SRC = Path(repro.__file__).resolve().parent

EFFECT_RULES = (
    "observer-purity", "quiescence-purity", "consistency-purity",
    "determinism", "effect-root-missing", "unused-effect-pragma",
)


def mutate(tmp_path: Path, filename: str, old: str, new: str) -> Path:
    root = tmp_path / "repro"
    if not root.exists():
        shutil.copytree(SRC, root)
    path = root / filename
    text = path.read_text()
    assert old in text, f"seed-defect anchor missing from {filename}"
    path.write_text(text.replace(old, new))
    return root


def effect_findings(root: Path | None = None):
    return [f for f in run_lint(root) if f.rule in EFFECT_RULES]


class TestOwnTreeClean:
    def test_no_effect_findings(self):
        assert effect_findings() == []

    def test_analysis_is_fast(self):
        start = time.monotonic()
        analysis = analyze()
        run_effect_lint(analysis.base, analysis)
        assert time.monotonic() - start < 10.0

    def test_quiescence_queries_are_reads_sim(self):
        analysis = analyze()
        for name in ("quiescent", "next_wake_cycle", "quiescence_reason"):
            keys = analysis.functions_named(name)
            assert keys, f"{name} not found in the universe"
            for key in keys:
                assert analysis.summary(key) <= Effect.READS_SIM, (
                    f"{key} inferred {analysis.summary(key).label}"
                )

    def test_tracer_hooks_are_pure(self):
        analysis = analyze()
        for name in ("instr", "coh", "atomic_decision", "atomic_span",
                     "dir_transition"):
            for key in analysis.functions_named(name):
                fn = analysis.fns[key]
                if fn.relpath == "obs/tracer.py":
                    assert analysis.summary(key) <= Effect.READS_SIM

    def test_run_mutates_but_is_deterministic(self):
        analysis = analyze()
        keys = [
            k for k in analysis.functions_named("run")
            if analysis.fns[k].class_name == "MulticoreSimulator"
        ]
        assert keys
        assert analysis.summary(keys[0]) is Effect.MUTATES_SIM

    def test_guard_sites_were_found(self):
        analysis = analyze()
        # The repo has tracer guards in core, memory, row and sim plus
        # the sanitizer final_check guard; a traversal bug that found
        # none would make observer-purity vacuous.
        assert len(analysis.guard_sites) >= 5
        guarded_files = {
            analysis.fns[s.fn_key].relpath for s in analysis.guard_sites
        }
        assert "core/pipeline.py" in guarded_files
        assert "sim/engine.py" in guarded_files

    def test_surface_excludes_observer_state(self):
        analysis = analyze()
        assert "rob" in analysis.surface
        assert "mshrs" in analysis.surface
        assert "sharers" in analysis.set_attrs


class TestSeededDefects:
    def test_mutation_inside_tracer_guard(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            '        if self.tracer is not None:\n'
            '            self.emit_instr(dyn, now, "issue")',
            '        if self.tracer is not None:\n'
            '            self.stats.counter("traced").add(1)\n'
            '            self.emit_instr(dyn, now, "issue")',
        )
        findings = [f for f in run_lint(root) if f.rule == "observer-purity"]
        assert findings, "planted tracer-guard mutation not caught"
        assert any(
            "issue_bookkeeping" in f.message and "stats" in f.message
            for f in findings
        )

    def test_state_write_inside_quiescent(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            "        return self.done or not self.awake",
            "        self.awake = True\n"
            "        return self.done or not self.awake",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "quiescence-purity"
        ]
        assert findings, "planted quiescent() state write not caught"
        assert any("'awake'" in f.message for f in findings)

    def test_set_iteration_in_wake_loop(self, tmp_path):
        root = mutate(
            tmp_path,
            "sim/multicore.py",
            "        for core in cores:\n"
            "            if core.awake and not core.done:",
            "        for core in set(cores):\n"
            "            if core.awake and not core.done:",
        )
        findings = [f for f in run_lint(root) if f.rule == "determinism"]
        assert findings, "planted set-order iteration not caught"
        assert any(
            "MulticoreSimulator.run" in f.message
            and "sorted()" in f.message
            for f in findings
        )

    def test_state_write_inside_drain_candidates(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/consistency.py",
            "            at_head = False\n"
            "            line = entry.line",
            "            at_head = False\n"
            "            entry.committed = True\n"
            "            line = entry.line",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "consistency-purity"
        ]
        assert findings, "planted model-method state write not caught"
        assert any(
            "'committed'" in f.message and "drain_candidates" in f.message
            for f in findings
        )

    def test_nondet_helper_reached_only_through_partial(self, tmp_path):
        # Callbacks are scheduled as partial objects, not lambdas: the
        # call graph must follow partial(f, ...) to f, or everything the
        # engine fires later drops out of the determinism rule's reach.
        mutate(
            tmp_path,
            "core/pipeline.py",
            "class Core:",
            "def _host_jitter(dyn):\n"
            "    return time.perf_counter()\n"
            "\n\n"
            "class Core:",
        )
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            "    def schedule_complete(self, dyn: DynInstr, delay: int) -> None:\n",
            "    def schedule_complete(self, dyn: DynInstr, delay: int) -> None:\n"
            "        self.engine.schedule(self.engine.now, partial(_host_jitter, dyn))\n",
        )
        findings = [f for f in run_lint(root) if f.rule == "determinism"]
        assert any(
            "_host_jitter" in f.message and "host clock" in f.message
            for f in findings
        ), findings

    def test_renamed_root_is_reported(self, tmp_path):
        root = mutate(
            tmp_path,
            "sim/multicore.py",
            "class MulticoreSimulator:",
            "class MulticoreSimulatorX:",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "effect-root-missing"
        ]
        assert any("MulticoreSimulator.run" in f.message for f in findings)


class TestPragmas:
    def test_statement_pragma_accepts_finding(self, tmp_path):
        root = mutate(
            tmp_path,
            "sim/multicore.py",
            "        for core in cores:\n"
            "            if core.awake and not core.done:",
            "        for core in set(cores):"
            "  # repro: effect[nondet] -- deliberate, order-insensitive\n"
            "            if core.awake and not core.done:",
        )
        findings = run_lint(root)
        assert not [f for f in findings if f.rule == "determinism"]
        assert not [f for f in findings if f.rule == "unused-effect-pragma"]

    def test_def_pragma_vouches_for_subtree(self, tmp_path):
        root = mutate(
            tmp_path,
            "sim/multicore.py",
            "        for core in cores:\n"
            "            if core.awake and not core.done:",
            "        for core in set(cores):\n"
            "            if core.awake and not core.done:",
        )
        mutate(
            tmp_path,
            "sim/multicore.py",
            "    def _run_quiesced(self, max_cycles: int) -> None:",
            "    def _run_quiesced(self, max_cycles: int) -> None:"
            "  # repro: effect[mutates_sim] -- set order vetted",
        )
        findings = run_lint(root)
        assert not [f for f in findings if f.rule == "determinism"]
        assert not [f for f in findings if f.rule == "unused-effect-pragma"]

    def test_pointless_pragma_is_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            "        return self.done or not self.awake",
            "        return self.done or not self.awake"
            "  # repro: effect[reads_sim] -- pointless",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "unused-effect-pragma"
        ]
        assert findings and "stale escape" in findings[0].message


class TestEffectsCli:
    def test_clean_exit_zero(self, capsys):
        assert main(["effects"]) == 0
        out = capsys.readouterr().out
        assert "effect analysis clean" in out
        assert "inferred effects" in out

    def test_json_shape_and_effect_values(self, capsys):
        assert main(["effects", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        functions = {row["function"]: row for row in payload["functions"]}
        assert functions["Core.quiescent"]["effect"] == "reads_sim"
        assert functions["MulticoreSimulator.run"]["effect"] == "mutates_sim"

    def test_only_filter(self, capsys):
        assert main(["effects", "--json", "--only", "nondet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["functions"] == []

    def test_unknown_only_value_is_usage_error(self, capsys):
        assert main(["effects", "--only", "bogus"]) == 2
        assert "unknown effect" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            "        return self.done or not self.awake",
            "        self.awake = True\n"
            "        return self.done or not self.awake",
        )
        assert main(["effects", "--root", str(root)]) == 1
        assert "quiescence-purity" in capsys.readouterr().out
