"""Campaign expansion: from declarative spec to deduplicated RunSpec grid.

This is the *one* grid-expansion helper in the tree — figures, ablations,
``repro sweep``, ``repro campaign run``, ``repro serve`` and the check
gate all turn campaign axes into concrete
:class:`~repro.analysis.parallel.RunSpec` jobs here, so "the committed
spec file and the figure function expand to the same grid" is true by
construction, not by parallel maintenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.parallel import RunSpec
from repro.analysis.runner import (
    ExperimentScale,
    base_params,
    config,
    default_scale,
    scale_by_name,
)
from repro.common.params import (
    DetectionMode,
    PredictorKind,
    SystemParams,
)
from repro.common.schema import CAMPAIGN_SCHEMA_VERSION
from repro.isa.instructions import AtomicOp
from repro.service.schema import (
    UNSET,
    Campaign,
    CampaignError,
    ConfigSpec,
    GridSpec,
    WorkloadSpec,
    campaign_payload,
)
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass(frozen=True)
class CampaignCell:
    """One fully resolved grid point, with its axis labels kept around."""

    grid_index: int
    workload_index: int
    workload: str | WorkloadProfile  # what runner.run_seeds/... accept
    config_name: str
    seed: int
    spec: RunSpec


@dataclass(frozen=True)
class MicrobenchJob:
    """One resolved Fig. 2 microbenchmark point."""

    machine: str
    op: AtomicOp
    variant: str
    iterations: int


@dataclass(frozen=True)
class LitmusJob:
    """One resolved litmus sweep point: program × model × padding args."""

    program: str
    model: str
    pads: tuple[int, ...]


# ---------------------------------------------------------------------------
# Axis resolution
# ---------------------------------------------------------------------------


def campaign_scale(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> ExperimentScale:
    """An explicit scale wins; else the spec's ``scale:``; else the default."""
    if isinstance(scale, ExperimentScale):
        return scale
    if scale is not None:
        return scale_by_name(scale)
    if campaign.scale is not None:
        return scale_by_name(campaign.scale)
    return default_scale()


def campaign_base_params(
    campaign: Campaign, scale: ExperimentScale
) -> SystemParams:
    if campaign.base == "scale":
        return base_params(scale)
    factory = {
        "quick": SystemParams.quick,
        "small": SystemParams.small,
        "paper": SystemParams.paper,
    }[campaign.base]
    return factory()


def resolve_workload(spec: WorkloadSpec) -> str | WorkloadProfile:
    """A plain name stays a name (so RunSpec identity matches figure code);
    renamed/overridden entries become concrete profiles."""
    if spec.profile is not None:
        return spec.profile
    if spec.name is None and not spec.overrides:
        return spec.base
    overrides = dict(spec.overrides)
    if spec.name is not None:
        overrides["name"] = spec.name
    try:
        return get_profile(spec.base).with_overrides(**overrides)
    except (TypeError, ValueError) as exc:
        raise CampaignError(
            f"workload {spec.label!r}: bad override: {exc}"
        ) from None


def resolve_config(spec: ConfigSpec, base: SystemParams) -> SystemParams:
    """Build the SystemParams a ConfigSpec names, via the shared builder."""
    detection = (
        DetectionMode(spec.detection) if spec.detection is not None else None
    )
    predictor = (
        PredictorKind(spec.predictor) if spec.predictor is not None else None
    )
    if spec.params:
        try:
            base = dataclasses.replace(base, **spec.params)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"config {spec.name!r}: bad params override: {exc}"
            ) from None
    if spec.consistency is not None:
        try:
            base = base.with_consistency_model(spec.consistency)
        except ValueError as exc:
            raise CampaignError(f"config {spec.name!r}: {exc}") from None
    params = config(
        base,
        spec.mode,
        detection,
        predictor,
        forwarding=spec.forwarding,
        latency_threshold=spec.latency_threshold
        if spec.latency_threshold != UNSET
        else "default",
    )
    if spec.row:
        try:
            params = dataclasses.replace(
                params, row=dataclasses.replace(params.row, **spec.row)
            )
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"config {spec.name!r}: bad row override: {exc}"
            ) from None
    try:
        params.validate()
    except ValueError as exc:
        raise CampaignError(f"config {spec.name!r}: {exc}") from None
    return params


def _grid_seeds(grid: GridSpec, scale: ExperimentScale) -> tuple[int, ...]:
    return grid.seeds if grid.seeds is not None else scale.seeds


def _grid_threads(grid: GridSpec, scale: ExperimentScale) -> int:
    return grid.num_threads if grid.num_threads is not None else scale.num_threads


def _grid_instructions(grid: GridSpec, scale: ExperimentScale) -> int:
    if grid.instructions_per_thread is not None:
        return grid.instructions_per_thread
    return scale.instructions_per_thread


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def iter_cells(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> Iterator[CampaignCell]:
    """Every grid point (duplicates included), in deterministic
    workload-major, config-minor, seed-innermost order — the same order
    ``RunSpec.grid`` used."""
    if campaign.kind != "grid":
        raise CampaignError(
            f"campaign {campaign.name!r} is kind={campaign.kind!r},"
            " not a RunSpec grid"
        )
    resolved_scale = campaign_scale(campaign, scale)
    base = campaign_base_params(campaign, resolved_scale)
    for grid_index, grid in enumerate(campaign.grids):
        seeds = _grid_seeds(grid, resolved_scale)
        threads = _grid_threads(grid, resolved_scale)
        instructions = _grid_instructions(grid, resolved_scale)
        configs = [(c.name, resolve_config(c, base)) for c in grid.configs]
        for workload_index, wspec in enumerate(grid.workloads):
            workload = resolve_workload(wspec)
            profile = (
                get_profile(workload) if isinstance(workload, str) else workload
            )
            for config_name, params in configs:
                for seed in seeds:
                    yield CampaignCell(
                        grid_index=grid_index,
                        workload_index=workload_index,
                        workload=workload,
                        config_name=config_name,
                        seed=seed,
                        spec=RunSpec(
                            workload=profile,
                            params=params,
                            num_threads=min(threads, params.num_cores),
                            instructions_per_thread=instructions,
                            seed=seed,
                        ),
                    )


def expand_campaign(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> list[RunSpec]:
    """The campaign's unique job list, input order preserved."""
    seen: set[RunSpec] = set()
    specs: list[RunSpec] = []
    for cell in iter_cells(campaign, scale):
        if cell.spec not in seen:
            seen.add(cell.spec)
            specs.append(cell.spec)
    return specs


def campaign_config_map(
    campaign: Campaign,
    scale: ExperimentScale | str | None = None,
    grid: int = 0,
) -> dict[str, SystemParams]:
    """``{config name -> resolved SystemParams}`` for one grid, in spec
    order — what figure readers use to label columns."""
    resolved_scale = campaign_scale(campaign, scale)
    base = campaign_base_params(campaign, resolved_scale)
    return {
        c.name: resolve_config(c, base) for c in campaign.grids[grid].configs
    }


def campaign_workloads(
    campaign: Campaign, grid: int = 0
) -> list[str | WorkloadProfile]:
    """The resolved workload axis of one grid (names or profiles)."""
    return [resolve_workload(w) for w in campaign.grids[grid].workloads]


def expand_microbench(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> list[MicrobenchJob]:
    """The (machine × op × variant) jobs of a ``kind: microbench`` campaign."""
    if campaign.kind != "microbench":
        raise CampaignError(
            f"campaign {campaign.name!r} is kind={campaign.kind!r},"
            " not a microbenchmark"
        )
    resolved_scale = campaign_scale(campaign, scale)
    iterations = campaign.iterations
    if isinstance(iterations, dict):
        try:
            iterations = iterations[resolved_scale.name]
        except KeyError:
            raise CampaignError(
                f"campaign {campaign.name!r}: no iterations entry for scale"
                f" {resolved_scale.name!r}"
            ) from None
    if iterations is None:
        iterations = resolved_scale.instructions_per_thread
    return [
        MicrobenchJob(
            machine=machine,
            op=AtomicOp(op),
            variant=variant,
            iterations=int(iterations),
        )
        for machine in campaign.machines
        for op in campaign.ops
        for variant in campaign.variants
    ]


def expand_litmus(campaign: Campaign) -> list[LitmusJob]:
    """The (program × model × pad-set) jobs of a ``kind: litmus``
    campaign — what :mod:`repro.analysis.litmuscheck` sweeps."""
    from repro.workloads.litmus_oracle import LITMUS_TESTS

    if campaign.kind != "litmus":
        raise CampaignError(
            f"campaign {campaign.name!r} is kind={campaign.kind!r},"
            " not a litmus sweep"
        )
    jobs = []
    for program in campaign.programs:
        try:
            test = LITMUS_TESTS[program]
        except KeyError:
            raise CampaignError(
                f"campaign {campaign.name!r}: unknown litmus program"
                f" {program!r}"
            ) from None
        for model in campaign.models:
            for pads in test.pad_sets:
                jobs.append(
                    LitmusJob(program=program, model=model, pads=tuple(pads))
                )
    return jobs


def campaign_jobs(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> list:
    """The unique jobs of a campaign of any kind: its ``RunSpec`` grid,
    its microbenchmark points or its litmus points."""
    if campaign.kind == "microbench":
        return expand_microbench(campaign, scale)
    if campaign.kind == "litmus":
        return expand_litmus(campaign)
    return expand_campaign(campaign, scale)


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


def campaign_id(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> str:
    """Content address of (campaign, resolved scale) — the service's
    dedup/resume key.  Same spec + same scale => same id, so resubmitting
    a campaign is idempotent and a restarted server recognizes its
    half-done work."""
    resolved_scale = campaign_scale(campaign, scale)
    payload = json.dumps(
        {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "scale": resolved_scale.name,
            "campaign": campaign_payload(campaign),
        },
        sort_keys=True,
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode()).hexdigest()
