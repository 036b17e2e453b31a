"""Campaign expansion: from declarative spec to deduplicated RunSpec cells.

This is the *one* expansion helper in the tree — figures, ablations,
knob sweeps, the litmus check, ``repro campaign run``, ``repro serve``
and the check gate all turn campaign axes into concrete
:class:`~repro.analysis.parallel.RunSpec` jobs here, whatever the
campaign's kind, so "the committed spec file and the figure function
expand to the same cells" is true by construction, not by parallel
maintenance.
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
    PRESETS,
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
    WorkloadSpec,
    campaign_payload,
)
from repro.workloads.litmus_oracle import LITMUS_TESTS
from repro.workloads.microbench import MACHINE_PARAMS, Microbench
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass(frozen=True)
class CampaignCell:
    """One resolved campaign point: the RunSpec that runs it and its place
    on the campaign's axes, as ``(key, value)`` pairs in axis order.

    A grid cell's axes are ``grid``, ``workload``, ``config`` and
    ``seed`` — the workload by its index in the grid, since two entries
    may share a label; a microbenchmark cell's are ``machine``, ``op`` and
    ``variant``; a litmus cell's are ``program``, ``model`` and ``pads``.
    """

    axes: tuple[tuple[str, object], ...]
    spec: RunSpec

    def __getitem__(self, axis: str) -> object:
        return dict(self.axes)[axis]


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
    return PRESETS[campaign.base]()


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


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def iter_cells(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> Iterator[CampaignCell]:
    """Every point of the campaign (duplicates included), in deterministic
    order: a grid workload-major, config-minor, seed-innermost — the same
    order ``RunSpec.grid`` used; a microbenchmark machine × op × variant;
    a litmus sweep program × model × pad set."""
    resolved_scale = campaign_scale(campaign, scale)
    if campaign.kind == "microbench":
        yield from _microbench_cells(campaign, resolved_scale)
    elif campaign.kind == "litmus":
        yield from _litmus_cells(campaign)
    else:
        yield from _grid_cells(campaign, resolved_scale)


def _grid_cells(
    campaign: Campaign, scale: ExperimentScale
) -> Iterator[CampaignCell]:
    base = campaign_base_params(campaign, scale)
    for grid_index, grid in enumerate(campaign.grids):
        # A grid's own seeds/threads/length win over the scale's.
        seeds = scale.seeds if grid.seeds is None else grid.seeds
        threads = scale.num_threads if grid.num_threads is None else grid.num_threads
        instructions = grid.instructions_per_thread
        if instructions is None:
            instructions = scale.instructions_per_thread
        configs = [(c.name, resolve_config(c, base)) for c in grid.configs]
        for workload_index, wspec in enumerate(grid.workloads):
            workload = resolve_workload(wspec)
            profile = (
                get_profile(workload) if isinstance(workload, str) else workload
            )
            for config_name, params in configs:
                for seed in seeds:
                    yield CampaignCell(
                        axes=(
                            ("grid", grid_index),
                            ("workload", workload_index),
                            ("config", config_name),
                            ("seed", seed),
                        ),
                        spec=RunSpec(
                            workload=profile,
                            params=params,
                            num_threads=min(threads, params.num_cores),
                            instructions_per_thread=instructions,
                            seed=seed,
                        ),
                    )


def _microbench_cells(
    campaign: Campaign, scale: ExperimentScale
) -> Iterator[CampaignCell]:
    """Each machine model of :data:`MACHINE_PARAMS` × op × variant."""
    iterations = campaign.iterations
    if isinstance(iterations, dict):
        try:
            iterations = iterations[scale.name]
        except KeyError:
            raise CampaignError(
                f"campaign {campaign.name!r}: no iterations entry for scale"
                f" {scale.name!r}"
            ) from None
    if iterations is None:
        iterations = scale.instructions_per_thread
    iterations = int(iterations)
    for machine in campaign.machines:
        params = MACHINE_PARAMS[machine]()
        for op in campaign.ops:
            for variant in campaign.variants:
                yield CampaignCell(
                    axes=(("machine", machine), ("op", op), ("variant", variant)),
                    spec=RunSpec(
                        workload=Microbench(AtomicOp(op), variant, iterations),
                        params=params,
                        num_threads=1,
                        instructions_per_thread=iterations,
                        seed=0,
                    ),
                )


def _litmus_cells(campaign: Campaign) -> Iterator[CampaignCell]:
    """Each shape's pad sets under each model, on the ``quick`` machine
    whatever the campaign's base or scale."""
    base = SystemParams.quick()
    for program in campaign.programs:
        try:
            test = LITMUS_TESTS[program]
        except KeyError:
            raise CampaignError(
                f"campaign {campaign.name!r}: unknown litmus program"
                f" {program!r}; valid: {', '.join(sorted(LITMUS_TESTS))}"
            ) from None
        for model in campaign.models:
            params = base.with_consistency_model(model)
            for pads in test.pad_sets:
                yield CampaignCell(
                    axes=(("program", program), ("model", model), ("pads", pads)),
                    spec=RunSpec(
                        workload=test.case(*pads),
                        params=params,
                        num_threads=len(test.threads),
                        instructions_per_thread=0,
                        seed=0,
                    ),
                )


def expand_campaign(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> list[RunSpec]:
    """The campaign's unique job list, input order preserved — for any
    kind of campaign."""
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


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


def scale_read(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> ExperimentScale | None:
    """The resolved scale, if the campaign's cells depend on it: a litmus
    sweep's do not (every cell runs on ``SystemParams.quick()``)."""
    resolved = campaign_scale(campaign, scale)
    return None if campaign.kind == "litmus" else resolved


def campaign_id(
    campaign: Campaign, scale: ExperimentScale | str | None = None
) -> str:
    """Content address of (campaign, the scale it reads) — the service's
    dedup/resume key.  Same spec + same scale read => same id, so
    resubmitting a campaign is idempotent and a restarted server
    recognizes its half-done work."""
    identity = {
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "campaign": campaign_payload(campaign),
    }
    read = scale_read(campaign, scale)
    if read is not None:
        identity["scale"] = read.name
    payload = json.dumps(identity, sort_keys=True, allow_nan=False)
    return hashlib.sha256(payload.encode()).hexdigest()
