"""Golden-stats regression harness: bit-identity across refactors.

The core-model refactors this repo undergoes (e.g. splitting the pipeline
into LSQ / atomic-policy / recovery units) must be *behaviour preserving*:
for every tier-1 workload × :class:`~repro.common.params.AtomicMode` the
:class:`~repro.analysis.runner.RunMetrics` JSON must not change by a single
byte.  This module pins that contract:

* :func:`golden_grid` names the reference (workload × mode) matrix and the
  exact parameters each cell runs with — deterministic, seeded, small
  enough for CI.
* :func:`compute_golden` simulates the grid and returns
  ``{label: canonical RunMetrics JSON}``.
* :func:`verify_golden` re-simulates and diffs against a stored snapshot
  (``tests/golden/golden_runmetrics.json``), returning a list of
  human-readable mismatches; empty means bit-identical.

* :func:`wide_grid` / :func:`verify_wide` pin a second, *digest-only*
  snapshot (``tests/golden/wide_digests.json``): the sha256 of the
  RunMetrics JSON of every workload profile × {eager, lazy, row} × both
  consistency models at a tiny scale.  It was generated through the plain
  per-stage pipeline, the commit before that second implementation was
  deleted; the one remaining pipeline must reproduce it forever.

``repro check`` runs :func:`verify_golden` and :func:`verify_wide` as a
dedicated gate stage, and ``tests/integration/test_golden_stats.py`` runs
them under pytest.  To re-baseline both files after an *intentional*
behaviour change::

    PYTHONPATH=src python -m repro.analysis.golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.analysis.parallel import RunSpec, execute_spec
from repro.common.params import AtomicMode, SystemParams
from repro.workloads.profiles import WORKLOADS, get_profile

#: Workloads in the reference grid: one contended atomic-intensive profile
#: (pc), one locality-heavy profile exercising the forwarding/promotion
#: paths (cq), and one low-intensity profile where atomics are rare (barnes).
GOLDEN_WORKLOADS: tuple[str, ...] = ("pc", "cq", "barnes")

#: Every execution policy is pinned, including the extensions.
GOLDEN_MODES: tuple[AtomicMode, ...] = (
    AtomicMode.EAGER,
    AtomicMode.LAZY,
    AtomicMode.ROW,
    AtomicMode.FENCED,
    AtomicMode.FAR,
)

GOLDEN_THREADS = 4
GOLDEN_INSTRUCTIONS = 1200
GOLDEN_SEED = 0

#: Default snapshot location (repo checkout layout).
DEFAULT_SNAPSHOT = (
    pathlib.Path(__file__).resolve().parents[3]
    / "tests"
    / "golden"
    / "golden_runmetrics.json"
)


#: The wide digest grid: every profile, the paper's three policies, both
#: consistency models, at a scale where all 108 cells take a few seconds.
WIDE_MODES = (AtomicMode.EAGER, AtomicMode.LAZY, AtomicMode.ROW)
WIDE_MODELS = ("tso", "relaxed")
WIDE_THREADS = 2
WIDE_INSTRUCTIONS = 500
WIDE_SEED = 1
WIDE_SNAPSHOT = DEFAULT_SNAPSHOT.with_name("wide_digests.json")


def golden_params(mode: AtomicMode) -> SystemParams:
    """The pinned system configuration for one grid cell."""
    base = SystemParams.quick()
    if mode is AtomicMode.ROW:
        # Exercise the forwarding/promotion machinery too, not just the
        # predictor: it is the part most entangled with the LSQ.
        return base.with_atomic_mode(mode, forward_to_atomics=True)
    return base.with_atomic_mode(mode)


def golden_grid() -> list[tuple[str, AtomicMode, str]]:
    """``(label, mode, workload)`` rows of the reference matrix."""
    return [
        (f"{workload}/{mode.value}", mode, workload)
        for workload in GOLDEN_WORKLOADS
        for mode in GOLDEN_MODES
    ]


def wide_grid() -> list[tuple[str, AtomicMode, str, str]]:
    """``(label, mode, workload, consistency model)`` rows of the digest
    matrix."""
    return [
        (f"{workload}/{mode.value}/{model}", mode, workload, model)
        for workload in WORKLOADS
        for mode in WIDE_MODES
        for model in WIDE_MODELS
    ]


def _run_cell(mode: AtomicMode, workload: str) -> str:
    spec = RunSpec(
        get_profile(workload),
        golden_params(mode),
        GOLDEN_THREADS,
        GOLDEN_INSTRUCTIONS,
        GOLDEN_SEED,
    )
    return execute_spec(spec).to_json()


def compute_golden() -> dict[str, str]:
    """Simulate the whole grid; ``{label: canonical RunMetrics JSON}``."""
    return {label: _run_cell(mode, workload)
            for label, mode, workload in golden_grid()}


def _wide_digest(mode: AtomicMode, workload: str, model: str) -> str:
    spec = RunSpec(
        get_profile(workload),
        golden_params(mode).with_consistency_model(model),
        WIDE_THREADS,
        WIDE_INSTRUCTIONS,
        WIDE_SEED,
    )
    text = execute_spec(spec).to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_wide() -> dict[str, str]:
    """Simulate the digest grid; ``{label: sha256 of the RunMetrics JSON}``."""
    return {label: _wide_digest(mode, workload, model)
            for label, mode, workload, model in wide_grid()}


def load_snapshot(path: str | pathlib.Path | None = None) -> dict[str, str]:
    snapshot_path = pathlib.Path(path) if path is not None else DEFAULT_SNAPSHOT
    with open(snapshot_path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(snapshot_path: pathlib.Path, payload: dict[str, str]) -> None:
    snapshot_path.parent.mkdir(parents=True, exist_ok=True)
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_snapshot(path: str | pathlib.Path | None = None) -> pathlib.Path:
    """Re-baseline: simulate both grids and write the snapshot file and,
    beside it, the digest file."""
    snapshot_path = pathlib.Path(path) if path is not None else DEFAULT_SNAPSHOT
    _write_json(snapshot_path, compute_golden())
    _write_json(snapshot_path.with_name(WIDE_SNAPSHOT.name), compute_wide())
    return snapshot_path


def _diff_cell(label: str, expected: str, actual: str) -> str:
    want = json.loads(expected)
    got = json.loads(actual)
    drifted = sorted(
        key for key in set(want) | set(got) if want.get(key) != got.get(key)
    )
    details = ", ".join(
        f"{key}: {want.get(key)!r} -> {got.get(key)!r}" for key in drifted[:4]
    )
    return f"{label}: metrics drifted ({details})"


def verify_golden(
    path: str | pathlib.Path | None = None,
    labels: list[str] | None = None,
) -> list[str]:
    """Diff freshly simulated metrics against the stored snapshot.

    Returns human-readable mismatch descriptions (empty == bit-identical).
    ``labels`` restricts the check to a subset of grid cells.
    """
    snapshot = load_snapshot(path)
    mismatches: list[str] = []
    for label, mode, workload in golden_grid():
        if labels is not None and label not in labels:
            continue
        expected = snapshot.get(label)
        if expected is None:
            mismatches.append(f"{label}: missing from snapshot (re-baseline?)")
            continue
        actual = _run_cell(mode, workload)
        if actual != expected:
            mismatches.append(_diff_cell(label, expected, actual))
    return mismatches


def verify_wide(path: str | pathlib.Path | None = None) -> list[str]:
    """Diff freshly simulated digests against ``wide_digests.json``
    (empty == every cell bit-identical)."""
    snapshot = load_snapshot(path if path is not None else WIDE_SNAPSHOT)
    return [
        f"{label}: RunMetrics digest drifted"
        f" ({snapshot.get(label, 'missing')[:12]} -> {digest[:12]})"
        for label, digest in compute_wide().items()
        if snapshot.get(label) != digest
    ]


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - tool
    import argparse

    parser = argparse.ArgumentParser(
        description="(Re-)baseline the golden RunMetrics snapshot and the"
        " wide digest snapshot beside it."
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help=f"snapshot file (default {DEFAULT_SNAPSHOT})",
    )
    args = parser.parse_args(argv)
    path = write_snapshot(args.path)
    print(f"wrote golden snapshot {path} and {WIDE_SNAPSHOT.name} beside it")
    return 0


if __name__ == "__main__":  # pragma: no cover - tool entry
    raise SystemExit(main())
