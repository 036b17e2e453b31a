"""Experiment scales, run configurations and the RunMetrics schema.

The execution machinery lives in :mod:`repro.analysis.parallel`: a frozen
:class:`~repro.analysis.parallel.RunSpec` names one simulation and a
:class:`~repro.analysis.parallel.Runner` executes batches of them with
memoization, a persistent on-disk cache and optional multiprocessing
fan-out.  This module keeps what is common to every experiment: the named
scales, the configuration builder for the paper's variants, and the
:class:`RunMetrics` record (with its stable JSON schema — the same schema
the cache files use).

The historical per-process API (``run_one``/``run_seeds``/``clear_cache``)
has been removed; see the migration table in docs/api.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from repro.common.params import (
    AtomicMode,
    DetectionMode,
    PredictorKind,
    SystemParams,
)
from repro.sim.multicore import RunResult
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class ExperimentScale:
    """How big each experiment run is."""

    name: str
    num_threads: int
    instructions_per_thread: int
    seeds: tuple[int, ...]


SMOKE = ExperimentScale("smoke", 4, 1200, (0,))
QUICK = ExperimentScale("quick", 8, 4000, (0, 1))
FULL = ExperimentScale("full", 8, 8000, (0, 1, 2))
PAPER = ExperimentScale("paper", 32, 20000, (0, 1, 2))

_SCALES = {s.name: s for s in (SMOKE, QUICK, FULL, PAPER)}


def scale_by_name(name: str) -> ExperimentScale:
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment scale {name!r}; valid scales are "
            + ", ".join(sorted(_SCALES))
        ) from None


def default_scale(name: str | None = None) -> ExperimentScale:
    """Resolve an explicit scale name (e.g. from a CLI ``--scale`` flag),
    defaulting to ``quick``.  No environment variable is consulted."""
    return scale_by_name(name) if name is not None else QUICK


def base_params(scale: ExperimentScale) -> SystemParams:
    """System parameters matching an experiment scale."""
    if scale.name == "paper":
        return SystemParams.paper()
    if scale.name == "smoke":
        return SystemParams.quick()
    return SystemParams.small()


# ---------------------------------------------------------------------------
# Named configurations (the bars of Figs. 9 and 13)
# ---------------------------------------------------------------------------


def config(
    base: SystemParams,
    mode: AtomicMode | str,
    detection: DetectionMode | None = None,
    predictor: PredictorKind | None = None,
    forwarding: bool = False,
    latency_threshold: int | None | str = "default",
) -> SystemParams:
    """Build a run configuration from a base parameter set.

    ``mode`` accepts either an :class:`AtomicMode` or its value name
    (``"eager"``, ``"row"``, ...) so CLI flags and notebook strings feed
    straight through without an enum import.
    """
    mode = AtomicMode.from_name(mode)
    row_overrides: dict[str, object] = {"forward_to_atomics": forwarding}
    if detection is not None:
        row_overrides["detection"] = detection
    if predictor is not None:
        row_overrides["predictor"] = predictor
    if latency_threshold != "default":
        row_overrides["latency_threshold"] = latency_threshold
    return base.with_atomic_mode(mode, **row_overrides)


ROW_VARIANTS: tuple[tuple[str, DetectionMode, PredictorKind], ...] = (
    ("EW_U/D", DetectionMode.EW, PredictorKind.UPDOWN),
    ("EW_Sat", DetectionMode.EW, PredictorKind.SATURATE),
    ("RW_U/D", DetectionMode.RW, PredictorKind.UPDOWN),
    ("RW_Sat", DetectionMode.RW, PredictorKind.SATURATE),
    ("RW+Dir_U/D", DetectionMode.RW_DIR, PredictorKind.UPDOWN),
    ("RW+Dir_Sat", DetectionMode.RW_DIR, PredictorKind.SATURATE),
)


# ---------------------------------------------------------------------------
# Metric extraction
# ---------------------------------------------------------------------------


@dataclass
class RunMetrics:
    """The per-run numbers the figures consume (small, cacheable)."""

    workload: str
    cycles: int
    instructions: int
    atomics: int
    atomics_per_10k: float
    contended_truth_frac: float
    contended_detected: int
    miss_latency: float
    breakdown: dict[str, float]
    accuracy: float
    older_unexecuted_mean: float
    younger_started_mean: float
    counters: dict[str, int] = field(default_factory=dict)
    # Per-phase total/count/min/max (schema v2).  Empty accumulators carry
    # null min/max — never Infinity, so strict (allow_nan=False) dumps work.
    breakdown_detail: dict[str, dict] = field(default_factory=dict)
    #: A litmus cell's observed outcome; ``None`` (and absent from the
    #: dict form) for every other program.
    outcome: tuple[int, ...] | None = None

    @staticmethod
    def from_result(result: RunResult) -> "RunMetrics":
        cs = result.merged_core_stats()
        counters = {
            name: cs.counter(name).value
            for name in (
                "atomics_issued_eager",
                "atomics_issued_lazy",
                "atomics_promoted_eager",
                "atomics_forwarded",
                "lock_revocations",
                "externals_blocked_on_lock",
                "order_violations",
                "inv_squashes",
                "branch_mispredicts",
                "loads_forwarded",
            )
        }
        return RunMetrics(
            workload=result.program_name,
            cycles=result.cycles,
            instructions=result.instructions,
            atomics=result.atomics_committed(),
            atomics_per_10k=result.atomics_per_10k(),
            contended_truth_frac=result.contended_fraction(),
            contended_detected=cs.counter("atomics_contended_detected").value,
            miss_latency=result.avg_miss_latency(),
            breakdown=result.breakdown.means(),
            accuracy=result.predictor_accuracy(),
            older_unexecuted_mean=cs.histogram(
                "older_unexecuted_at_eager_issue"
            ).mean,
            younger_started_mean=cs.histogram(
                "younger_started_at_lazy_issue"
            ).mean,
            counters=counters,
            breakdown_detail=result.breakdown.to_dict(),
        )

    # -- stable serialization (the cache-file schema) ------------------

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "atomics": self.atomics,
            "atomics_per_10k": self.atomics_per_10k,
            "contended_truth_frac": self.contended_truth_frac,
            "contended_detected": self.contended_detected,
            "miss_latency": self.miss_latency,
            "breakdown": dict(self.breakdown),
            "accuracy": self.accuracy,
            "older_unexecuted_mean": self.older_unexecuted_mean,
            "younger_started_mean": self.younger_started_mean,
            "counters": dict(self.counters),
            "breakdown_detail": {
                phase: dict(detail)
                for phase, detail in self.breakdown_detail.items()
            },
        }
        if self.outcome is not None:
            out["outcome"] = list(self.outcome)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RunMetrics":
        if not isinstance(payload, dict):
            raise ValueError(f"RunMetrics payload must be a dict, got {payload!r}")
        missing = [n for n in _REQUIRED_FIELDS if n not in payload]
        if missing:
            raise ValueError(f"RunMetrics payload missing fields: {missing}")
        outcome = payload.get("outcome")
        return cls(
            **{n: payload[n] for n in _REQUIRED_FIELDS},
            outcome=None if outcome is None else tuple(outcome),
        )

    def to_json(self) -> str:
        # allow_nan=False: a non-finite metric is a bug upstream (see the
        # Accumulator.to_dict contract); fail here rather than emit
        # ``Infinity``, which is not JSON.
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RunMetrics":
        return cls.from_dict(json.loads(text))


#: Every field a payload must carry (``outcome`` is litmus-only), listed
#: once rather than on every cache hit.
_REQUIRED_FIELDS = [f.name for f in fields(RunMetrics) if f.name != "outcome"]


def mean_over_seeds(metrics: list[RunMetrics], attr: str) -> float:
    values = [getattr(m, attr) for m in metrics]
    return sum(values) / len(values) if values else 0.0


def normalized_time(
    workload: str | WorkloadProfile,
    params: SystemParams,
    baseline: SystemParams,
    scale: ExperimentScale,
) -> float:
    """Geomean over seeds of cycles(params)/cycles(baseline).

    Convenience wrapper over the shared default Runner; prefer
    ``Runner.normalized_time`` to control jobs/caching.
    """
    from repro.analysis.parallel import get_default_runner

    return get_default_runner().normalized_time(workload, params, baseline, scale)
