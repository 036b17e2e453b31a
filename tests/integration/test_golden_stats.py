"""Golden-stats bit-identity: the core refactor may not move a single bit.

The snapshot in ``tests/golden/golden_runmetrics.json`` was captured from
the reference simulator (post PR-4 deadlock fix, pre core split) and pins
the canonical :class:`~repro.analysis.runner.RunMetrics` JSON for every
tier-1 golden workload × :class:`~repro.common.params.AtomicMode`.  Any
drift here is semantic drift in the timing model, not a tolerable noise
source — re-baseline only for *intentional* behaviour changes, via
``python -m repro.analysis.golden``.
"""

import json

import pytest

from repro.analysis.golden import (
    DEFAULT_SNAPSHOT,
    WIDE_SNAPSHOT,
    golden_grid,
    golden_params,
    load_snapshot,
    verify_golden,
    verify_wide,
    wide_grid,
)
from repro.analysis.runner import RunMetrics
from repro.sim.multicore import simulate
from repro.workloads.synthetic import (
    build_program,
)
from repro.analysis import golden as golden_mod


def test_snapshot_exists_and_covers_grid():
    snapshot = load_snapshot()
    labels = {label for label, _, _ in golden_grid()}
    assert labels <= set(snapshot), sorted(labels - set(snapshot))
    # Every stored cell is valid, strict JSON for the RunMetrics schema.
    for label in labels:
        metrics = RunMetrics.from_json(snapshot[label])
        assert metrics.cycles > 0, label


@pytest.mark.parametrize("label,mode,workload", golden_grid())
def test_runmetrics_bit_identical(label, mode, workload):
    mismatches = verify_golden(labels=[label])
    assert not mismatches, "\n".join(mismatches)


def test_wide_digests_bit_identical():
    """Every workload profile × {eager, lazy, row} × {tso, relaxed}
    reproduces the digest recorded through the plain per-stage pipeline
    before it was deleted (``tests/golden/wide_digests.json``)."""
    labels = {label for label, _, _, _ in wide_grid()}
    assert labels == set(load_snapshot(WIDE_SNAPSHOT))
    mismatches = verify_wide()
    assert not mismatches, "\n".join(mismatches)


def test_traced_run_matches_golden_snapshot():
    """Tracing stays a pure observer through the refactor: a *traced* run
    of a golden cell reproduces the stored untraced JSON bit for bit."""
    snapshot = load_snapshot()
    label, mode, workload = golden_grid()[0]
    program = build_program(
        workload,
        golden_mod.GOLDEN_THREADS,
        golden_mod.GOLDEN_INSTRUCTIONS,
        seed=golden_mod.GOLDEN_SEED,
    )
    result = simulate(golden_params(mode), program, trace=True)
    assert RunMetrics.from_result(result).to_json() == snapshot[label]


def test_snapshot_is_strict_json():
    text = DEFAULT_SNAPSHOT.read_text(encoding="utf-8")
    payload = json.loads(text)
    for label, cell in payload.items():
        assert "Infinity" not in cell and "NaN" not in cell, label
