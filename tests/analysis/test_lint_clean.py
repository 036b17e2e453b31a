"""The repo's own tree is lint-clean — and the lint catches seeded defects.

The second half mutates a copy of the package the way real protocol bugs
would (deleting a dispatch arm, deleting a defensive else, scheduling a
float delay) and asserts the corresponding rule fires, so the lint is
demonstrably load-bearing rather than vacuously green.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro
from repro.cli import main
from repro.sanitize import run_lint

SRC = Path(repro.__file__).resolve().parent


class TestOwnTreeClean:
    def test_run_lint_reports_nothing(self):
        assert run_lint() == []

    def test_cli_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_cli_json_output(self, capsys):
        assert main(["lint", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []


def mutate(tmp_path: Path, filename: str, old: str, new: str) -> Path:
    root = tmp_path / "repro"
    if not root.exists():
        shutil.copytree(SRC, root)
    path = root / filename
    text = path.read_text()
    assert old in text, f"seed-defect anchor missing from {filename}"
    path.write_text(text.replace(old, new))
    return root


class TestSeededDefects:
    def test_deleted_dispatch_arm_is_unrouted(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/directory.py",
            "        elif msg.kind is MsgKind.PUTM:\n"
            "            self._handle_putm(msg)\n",
            "",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "unrouted-msgkind" in rules
        findings = [f for f in run_lint(root) if f.rule == "unrouted-msgkind"]
        assert any("PUTM" in f.message for f in findings)

    def test_deleted_defensive_else_is_unhandled_state(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/directory.py",
            '        else:  # pragma: no cover - defensive\n'
            '            raise RuntimeError(f"GETS in unexpected state '
            '{e.state}")\n',
            "",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "unhandled-state-event"
        ]
        assert findings, "deleting the else must leave state B unhandled"
        assert any("_do_gets" in f.message and "B" in f.message
                   for f in findings)

    def test_float_delay_is_float_cycles(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "self.engine.schedule_in(1, replay)",
            "self.engine.schedule_in(1.5, replay)",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "float-cycles" in rules

    def test_receive_without_reject_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            '        else:  # pragma: no cover - defensive\n'
            '            raise ValueError(f"core {self.core_id} cannot '
            'handle {msg!r}")\n',
            "",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "receive-reject" in rules

    def test_wallclock_import_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "sim/engine.py",
            "import heapq",
            "import heapq\nimport time",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "wallclock" in rules

    def test_rogue_permission_grant_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "row/mechanism.py",
            "from __future__ import annotations",
            "from __future__ import annotations\n\n"
            "def _backdoor(ctrl, line):\n"
            "    ctrl.state[line] = 'M'\n",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "permission-mutation" in rules

    def test_core_runtime_import_of_memory_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/lsq.py",
            "from collections import deque",
            "from collections import deque\n"
            "from repro.memory.messages import Message",
        )
        findings = [f for f in run_lint(root) if f.rule == "arch-import"]
        assert any(
            "core/ must not import repro.memory.messages" in f.message
            for f in findings
        )

    def test_core_type_checking_import_allowed(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/lsq.py",
            "if TYPE_CHECKING:  # pragma: no cover - typing only\n",
            "if TYPE_CHECKING:  # pragma: no cover - typing only\n"
            "    from repro.memory.messages import Message\n",
        )
        assert not [f for f in run_lint(root) if f.rule == "arch-import"]

    def test_memory_import_of_core_flagged_even_type_checking(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "from __future__ import annotations",
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.dyninstr import DynInstr\n",
        )
        findings = [f for f in run_lint(root) if f.rule == "arch-import"]
        assert any(
            "even under TYPE_CHECKING" in f.message for f in findings
        )

    def test_cli_exit_one_on_findings(self, tmp_path, capsys):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "self.engine.schedule_in(1, replay)",
            "self.engine.schedule_in(1.5, replay)",
        )
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "float-cycles" in out and "finding" in out


FLOAT_DEFECT = (
    "memory/controller.py",
    "self.engine.schedule_in(1, replay)",
    "self.engine.schedule_in(1.5, replay)",
)


class TestConsistencySeamDefects:
    """The two-sided consistency-seam contract catches seeded breaches."""

    def test_oracle_side_forbidden_runtime_import(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/consistency.py",
            "from repro.isa.instructions import InstrClass",
            "from repro.isa.instructions import InstrClass\n"
            "from repro.workloads.litmus import atomic_counter",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "consistency-seam"
        ]
        assert findings, "planted runtime import into the oracle not caught"
        assert any("repro.workloads.litmus" in f.message for f in findings)
        # workloads is legal for core/ generally — only the seam objects.
        assert "arch-import" not in {f.rule for f in run_lint(root)}

    def test_consumer_imports_concrete_model(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/pipeline.py",
            "from repro.core.consistency import make_model",
            "from repro.core.consistency import TSOModel, make_model",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "consistency-seam"
        ]
        assert findings, "planted concrete-model import not caught"
        assert any(
            "TSOModel" in f.message and "core/pipeline.py" in f.path
            for f in findings
        )

    def test_consumer_names_concrete_model(self, tmp_path):
        root = mutate(
            tmp_path,
            "core/lsq.py",
            "self.model = core.consistency",
            "self.model = TSOModel()",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "consistency-seam"
        ]
        assert findings, "planted concrete-model reference not caught"
        assert any("TSOModel" in f.message for f in findings)

    def test_deleted_seam_module_is_reported(self, tmp_path):
        import shutil as _shutil

        root = tmp_path / "repro"
        _shutil.copytree(SRC, root)
        (root / "core" / "consistency.py").unlink()
        findings = [
            f for f in run_lint(root) if f.rule == "consistency-seam"
        ]
        assert any("not found" in f.message for f in findings)


class TestRuleFiltering:
    def test_select_keeps_only_named_family(self, tmp_path):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        mutate(
            tmp_path,
            "sim/engine.py",
            "import heapq",
            "import heapq\nimport time",
        )
        rules = {f.rule for f in run_lint(root)}
        assert {"float-cycles", "wallclock"} <= rules
        assert {f.rule for f in run_lint(root, select=["float-cycles"])} == {
            "float-cycles"
        }

    def test_ignore_drops_named_family(self, tmp_path):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        assert not [
            f for f in run_lint(root, ignore=["float-cycles"])
            if f.rule == "float-cycles"
        ]

    def test_comma_separated_and_repeated(self, tmp_path):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        selected = run_lint(root, select=["float-cycles,wallclock"])
        assert {f.rule for f in selected} == {"float-cycles"}

    def test_unknown_rule_raises(self):
        import pytest

        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(select=["no-such-rule"])

    def test_cli_unknown_rule_exit_two(self, capsys):
        assert main(["lint", "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_select_on_defect_tree(self, tmp_path, capsys):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        assert main(
            ["lint", "--root", str(root), "--select", "arch-import"]
        ) == 0
        assert main(
            ["lint", "--root", str(root), "--select", "float-cycles"]
        ) == 1


class TestNoqaSuppression:
    def test_noqa_silences_finding(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "self.engine.schedule_in(1, replay)",
            "self.engine.schedule_in(1.5, replay)"
            "  # repro: noqa[float-cycles]",
        )
        findings = run_lint(root)
        assert not [f for f in findings if f.rule == "float-cycles"]
        assert not [f for f in findings if f.rule == "unused-suppression"]

    def test_unused_noqa_is_flagged(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "self.engine.schedule_in(1, replay)",
            "self.engine.schedule_in(1, replay)"
            "  # repro: noqa[float-cycles]",
        )
        findings = [
            f for f in run_lint(root) if f.rule == "unused-suppression"
        ]
        assert findings and "float-cycles" in findings[0].message

    def test_noqa_for_other_rule_does_not_silence(self, tmp_path):
        root = mutate(
            tmp_path,
            "memory/controller.py",
            "self.engine.schedule_in(1, replay)",
            "self.engine.schedule_in(1.5, replay)"
            "  # repro: noqa[wallclock]",
        )
        rules = {f.rule for f in run_lint(root)}
        assert "float-cycles" in rules
        assert "unused-suppression" in rules


class TestFindingEffects:
    def test_json_findings_carry_enclosing_effect(self, tmp_path, capsys):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        assert main(["lint", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        hits = [f for f in payload if f["rule"] == "float-cycles"]
        assert hits
        # schedule_in(1.5, ...) sits inside a controller method that
        # mutates simulation state.
        assert hits[0]["effect"] == "mutates_sim"


class TestCheckLintOnly:
    def test_clean_exit_zero_and_budget_line(self, capsys):
        assert main(["check", "--lint-only"]) == 0
        out = capsys.readouterr().out
        assert "lint clean" in out
        assert "lint wall-clock" in out and "budget" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = mutate(tmp_path, *FLOAT_DEFECT)
        assert main(["check", "--lint-only", "--root", str(root)]) == 1
