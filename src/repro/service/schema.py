"""The declarative campaign format: versioned YAML/JSON experiment specs.

A *campaign* names a whole experiment — the (workload × config × seed)
grid behind one figure family, ablation or sweep — plus an output
directive saying what to render from it.  The same spec file drives the
offline ``repro campaign run`` path, the ``repro serve`` HTTP service and
the figure functions themselves (each ``figureN`` loads its committed
spec from ``campaigns/``), so CI, notebooks and the service all expand
exactly the same grid.

Grammar (YAML or JSON; YAML requires the optional ``pyyaml``)::

    campaign: 1                # required: CAMPAIGN_SCHEMA_VERSION
    name: fig1
    description: ...
    scale: quick               # default scale; CLI --scale overrides
    base: scale                # base params: scale|quick|small|paper
    workloads: [canneal, ...]  # sugar for a single grid, or:
    configs:
      - {name: eager, mode: eager}
      - {name: lazy, mode: lazy}
    grids:                     # explicit multi-grid form
      - workloads: [...]
        configs: [...]
        seeds: [0, 1]          # optional, non-empty; default: the scale's
        num_threads: 8         # optional; default: the scale's
        instructions_per_thread: 4000
    output: {kind: figure, id: fig1}

A config entry accepts ``mode`` (required), ``detection``, ``predictor``,
``forwarding``, ``latency_threshold`` (``null`` = +inf), ``consistency``
(a :class:`~repro.common.params.ConsistencyKind` name — ``tso`` or
``relaxed``), plus raw ``params:`` / ``row:`` field overrides for
ablation sweeps.  A workload entry is either a profile name or
``{base, name, overrides}``.  The ``kind: microbench`` variant (Fig. 2)
swaps grids for ``machines``/``ops``/``variants``/``iterations`` axes;
``kind: litmus`` swaps them for ``programs``/``models`` axes validated
against the litmus registry and the consistency models (it runs through
the interleaving oracle, not the RunSpec grid).

Parsing is strict: unknown fields and a wrong ``campaign:`` version are
:class:`CampaignError`\\ s (the CLI maps them to exit code 2), never
silently ignored — a typo'd axis must not silently shrink a grid.

This module deliberately imports nothing from :mod:`repro.analysis` at
module level (the figure functions import the service layer, so an eager
import here would be circular); scale names are validated lazily.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.common.params import (
    AtomicMode,
    ConsistencyKind,
    DetectionMode,
    PredictorKind,
    RowParams,
    SystemParams,
)
from repro.common.schema import CAMPAIGN_SCHEMA_VERSION
from repro.isa.instructions import AtomicOp
from repro.workloads.microbench import VARIANTS as MICROBENCH_VARIANTS
from repro.workloads.profiles import WORKLOADS, WorkloadProfile

try:  # pyyaml is optional; JSON specs work without it.
    import yaml as _yaml
except ModuleNotFoundError:  # pragma: no cover - environment-dependent
    _yaml = None


class CampaignError(ValueError):
    """A malformed campaign spec (bad version, unknown field, bad value)."""


#: Sentinel for "the config builder's default" — distinct from an explicit
#: ``latency_threshold: null`` (which means +inf).
UNSET = "default"

MACHINES: tuple[str, ...] = ("old-x86", "new-x86")
BASE_PRESETS: tuple[str, ...] = ("scale", "quick", "small", "paper")
OUTPUT_KINDS: tuple[str, ...] = ("none", "figure", "ablation")

# atomic_mode/row have dedicated config keys; consistency_model has the
# ``consistency`` key (so it goes through ConsistencyKind.from_name, not
# a raw-string dataclass replace).
_PARAM_FIELDS = frozenset(
    f.name for f in dataclasses.fields(SystemParams)
) - {"atomic_mode", "row", "consistency_model"}
_ROW_FIELDS = frozenset(f.name for f in dataclasses.fields(RowParams))
_PROFILE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(WorkloadProfile)
) - {"name"}


def _freeze(value):
    """YAML lists become tuples so resolved params/profiles stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _check_keys(payload: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CampaignError(
            f"{where}: unknown field(s) {', '.join(unknown)};"
            f" allowed: {', '.join(allowed)}"
        )


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise CampaignError(f"{where}: missing required field {key!r}")
    return payload[key]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigSpec:
    """One named run configuration (a column of a figure)."""

    name: str
    mode: str
    detection: str | None = None
    predictor: str | None = None
    forwarding: bool = False
    latency_threshold: int | None | str = UNSET
    consistency: str | None = None  # ConsistencyKind name; None = base's
    params: dict = field(default_factory=dict)  # SystemParams overrides
    row: dict = field(default_factory=dict)  # RowParams overrides

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "mode": self.mode}
        if self.detection is not None:
            out["detection"] = self.detection
        if self.predictor is not None:
            out["predictor"] = self.predictor
        if self.consistency is not None:
            out["consistency"] = self.consistency
        if self.forwarding:
            out["forwarding"] = True
        if self.latency_threshold != UNSET:
            out["latency_threshold"] = self.latency_threshold
        if self.params:
            out["params"] = dict(sorted(self.params.items()))
        if self.row:
            out["row"] = dict(sorted(self.row.items()))
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload axis entry: a profile name, optionally renamed/overridden.

    ``profile`` carries an in-memory :class:`WorkloadProfile` literal for
    programmatic campaigns (e.g. ablation helpers); it never appears in a
    spec file and such a campaign cannot be dumped.
    """

    base: str
    name: str | None = None
    overrides: dict = field(default_factory=dict)
    profile: WorkloadProfile | None = None

    @property
    def label(self) -> str:
        if self.profile is not None:
            return self.profile.name
        return self.name if self.name is not None else self.base

    def to_dict(self):
        if self.profile is not None:
            raise CampaignError(
                f"workload {self.label!r} wraps an in-memory profile and"
                " cannot be serialized; use base/overrides instead"
            )
        if self.name is None and not self.overrides:
            return self.base
        out: dict = {"base": self.base}
        if self.name is not None:
            out["name"] = self.name
        if self.overrides:
            out["overrides"] = dict(sorted(self.overrides.items()))
        return out


@dataclass(frozen=True)
class GridSpec:
    """One (workloads × configs × seeds) block of a campaign."""

    workloads: tuple[WorkloadSpec, ...]
    configs: tuple[ConfigSpec, ...]
    seeds: tuple[int, ...] | None = None
    num_threads: int | None = None
    instructions_per_thread: int | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "workloads": [w.to_dict() for w in self.workloads],
            "configs": [c.to_dict() for c in self.configs],
        }
        if self.seeds is not None:
            out["seeds"] = list(self.seeds)
        if self.num_threads is not None:
            out["num_threads"] = self.num_threads
        if self.instructions_per_thread is not None:
            out["instructions_per_thread"] = self.instructions_per_thread
        return out


@dataclass(frozen=True)
class OutputSpec:
    """What to render once the grid is in the cache."""

    kind: str = "none"
    id: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.id is not None:
            out["id"] = self.id
        return out


@dataclass(frozen=True)
class Campaign:
    """A parsed, validated campaign spec."""

    name: str
    description: str = ""
    kind: str = "grid"
    scale: str | None = None
    base: str = "scale"
    grids: tuple[GridSpec, ...] = ()
    # microbench axes (kind == "microbench" only)
    machines: tuple[str, ...] = ()
    ops: tuple[str, ...] = ()
    variants: tuple[str, ...] = ()
    iterations: object = None  # int, or {scale-name: int}
    # litmus axes (kind == "litmus" only)
    programs: tuple[str, ...] = ()
    models: tuple[str, ...] = ()
    output: OutputSpec = field(default_factory=OutputSpec)

    # -- programmatic axis overrides (figure kwargs ride through these) --

    def with_workloads(self, workloads) -> "Campaign":
        """Replace every grid's workload axis (figure ``workloads=`` kwarg)."""
        specs = tuple(as_workload_spec(w) for w in workloads)
        return dataclasses.replace(
            self,
            grids=tuple(
                dataclasses.replace(g, workloads=specs) for g in self.grids
            ),
        )

    def with_configs(self, configs, grid: int = 0) -> "Campaign":
        """Replace one grid's config axis (threshold/entry-sweep kwargs)."""
        grids = list(self.grids)
        grids[grid] = dataclasses.replace(grids[grid], configs=tuple(configs))
        return dataclasses.replace(self, grids=tuple(grids))

    def to_dict(self) -> dict:
        out: dict = {
            "campaign": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
        }
        if self.description:
            out["description"] = self.description
        if self.kind != "grid":
            out["kind"] = self.kind
        if self.scale is not None:
            out["scale"] = self.scale
        if self.base != "scale":
            out["base"] = self.base
        if self.kind == "microbench":
            out["machines"] = list(self.machines)
            out["ops"] = list(self.ops)
            out["variants"] = list(self.variants)
            if self.iterations is not None:
                out["iterations"] = self.iterations
        elif self.kind == "litmus":
            out["programs"] = list(self.programs)
            out["models"] = list(self.models)
        else:
            out["grids"] = [g.to_dict() for g in self.grids]
        if self.output.kind != "none":
            out["output"] = self.output.to_dict()
        return out


def as_workload_spec(workload) -> WorkloadSpec:
    """Coerce a figure-style workload (name / profile / spec) to a spec."""
    if isinstance(workload, WorkloadSpec):
        return workload
    if isinstance(workload, WorkloadProfile):
        return WorkloadSpec(base=workload.name, profile=workload)
    return WorkloadSpec(base=str(workload))


# ---------------------------------------------------------------------------
# Parsing (strict)
# ---------------------------------------------------------------------------


def _parse_config(payload, where: str) -> ConfigSpec:
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: config entries must be mappings")
    _check_keys(
        payload,
        ("name", "mode", "detection", "predictor", "forwarding",
         "latency_threshold", "consistency", "params", "row"),
        where,
    )
    name = str(_require(payload, "name", where))
    mode = str(_require(payload, "mode", where))
    try:
        AtomicMode.from_name(mode)
    except ValueError as exc:
        raise CampaignError(f"{where}: {exc}") from None
    detection = payload.get("detection")
    if detection is not None:
        try:
            DetectionMode(detection)
        except ValueError:
            raise CampaignError(
                f"{where}: unknown detection {detection!r}; valid:"
                f" {', '.join(d.value for d in DetectionMode)}"
            ) from None
    predictor = payload.get("predictor")
    if predictor is not None:
        try:
            PredictorKind(predictor)
        except ValueError:
            raise CampaignError(
                f"{where}: unknown predictor {predictor!r}; valid:"
                f" {', '.join(p.value for p in PredictorKind)}"
            ) from None
    consistency = payload.get("consistency")
    if consistency is not None:
        consistency = str(consistency)
        try:
            ConsistencyKind.from_name(consistency)
        except ValueError as exc:
            raise CampaignError(f"{where}: {exc}") from None
    forwarding = bool(payload.get("forwarding", False))
    threshold = payload.get("latency_threshold", UNSET)
    if threshold is not UNSET and not (
        threshold is None or isinstance(threshold, int)
    ):
        raise CampaignError(
            f"{where}: latency_threshold must be an integer or null"
        )
    params = _parse_overrides(
        payload.get("params", {}), _PARAM_FIELDS, f"{where}.params"
    )
    row = _parse_overrides(payload.get("row", {}), _ROW_FIELDS, f"{where}.row")
    return ConfigSpec(
        name=name,
        mode=mode,
        detection=detection,
        predictor=predictor,
        forwarding=forwarding,
        latency_threshold=threshold,
        consistency=consistency,
        params=params,
        row=row,
    )


def _parse_overrides(payload, valid: frozenset, where: str) -> dict:
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: overrides must be a mapping")
    unknown = sorted(set(payload) - valid)
    if unknown:
        raise CampaignError(
            f"{where}: unknown override field(s) {', '.join(unknown)}"
        )
    return {key: _freeze(value) for key, value in payload.items()}


def _parse_workload(payload, where: str) -> WorkloadSpec:
    if isinstance(payload, str):
        if payload not in WORKLOADS:
            raise CampaignError(f"{where}: unknown workload {payload!r}")
        return WorkloadSpec(base=payload)
    if not isinstance(payload, dict):
        raise CampaignError(
            f"{where}: workload entries must be names or mappings"
        )
    _check_keys(payload, ("base", "name", "overrides"), where)
    base = str(_require(payload, "base", where))
    if base not in WORKLOADS:
        raise CampaignError(f"{where}: unknown workload base {base!r}")
    name = payload.get("name")
    overrides = _parse_overrides(
        payload.get("overrides", {}), _PROFILE_FIELDS, f"{where}.overrides"
    )
    return WorkloadSpec(
        base=base, name=None if name is None else str(name), overrides=overrides
    )


def _parse_grid(payload, where: str) -> GridSpec:
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: grid entries must be mappings")
    _check_keys(
        payload,
        ("workloads", "configs", "seeds", "num_threads",
         "instructions_per_thread"),
        where,
    )
    workloads = _require(payload, "workloads", where)
    configs = _require(payload, "configs", where)
    if not isinstance(workloads, list) or not workloads:
        raise CampaignError(f"{where}: workloads must be a non-empty list")
    if not isinstance(configs, list) or not configs:
        raise CampaignError(f"{where}: configs must be a non-empty list")
    seeds = payload.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            raise CampaignError(
                f"{where}: seeds must be a non-empty list of integers"
            )
        seeds = tuple(seeds)
    for key in ("num_threads", "instructions_per_thread"):
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise CampaignError(f"{where}: {key} must be a positive integer")
    names = [
        c.get("name") if isinstance(c, dict) else None for c in configs
    ]
    dupes = sorted({n for n in names if n is not None and names.count(n) > 1})
    if dupes:
        raise CampaignError(
            f"{where}: duplicate config name(s) {', '.join(dupes)}"
        )
    return GridSpec(
        workloads=tuple(
            _parse_workload(w, f"{where}.workloads[{i}]")
            for i, w in enumerate(workloads)
        ),
        configs=tuple(
            _parse_config(c, f"{where}.configs[{i}]")
            for i, c in enumerate(configs)
        ),
        seeds=seeds,
        num_threads=payload.get("num_threads"),
        instructions_per_thread=payload.get("instructions_per_thread"),
    )


def _parse_output(payload, where: str) -> OutputSpec:
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: output must be a mapping")
    _check_keys(payload, ("kind", "id"), where)
    kind = str(payload.get("kind", "none"))
    if kind not in OUTPUT_KINDS:
        raise CampaignError(
            f"{where}: unknown output kind {kind!r}; valid:"
            f" {', '.join(OUTPUT_KINDS)}"
        )
    out_id = payload.get("id")
    if kind != "none" and out_id is None:
        raise CampaignError(f"{where}: output kind {kind!r} requires an id")
    return OutputSpec(kind=kind, id=None if out_id is None else str(out_id))


def _validate_scale_name(name: str, where: str) -> None:
    # Lazy import: repro.analysis.figures imports this package, so the
    # scale registry must not be pulled in at module-import time.
    from repro.analysis.runner import scale_by_name

    try:
        scale_by_name(name)
    except ValueError as exc:
        raise CampaignError(f"{where}: {exc}") from None


def parse_campaign(payload, where: str = "<campaign>") -> Campaign:
    """Validate a decoded YAML/JSON document into a :class:`Campaign`."""
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: campaign spec must be a mapping")
    version = _require(payload, "campaign", where)
    if version != CAMPAIGN_SCHEMA_VERSION:
        raise CampaignError(
            f"{where}: unsupported campaign schema version {version!r}"
            f" (this build speaks version {CAMPAIGN_SCHEMA_VERSION})"
        )
    _check_keys(
        payload,
        ("campaign", "name", "description", "kind", "scale", "base",
         "workloads", "configs", "seeds", "num_threads",
         "instructions_per_thread", "grids", "machines", "ops", "variants",
         "iterations", "programs", "models", "output"),
        where,
    )
    name = str(_require(payload, "name", where))
    kind = str(payload.get("kind", "grid"))
    if kind not in ("grid", "microbench", "litmus"):
        raise CampaignError(
            f"{where}: unknown campaign kind {kind!r}"
            " (grid, microbench or litmus)"
        )
    scale = payload.get("scale")
    if scale is not None:
        scale = str(scale)
        _validate_scale_name(scale, where)
    base = str(payload.get("base", "scale"))
    if base not in BASE_PRESETS:
        raise CampaignError(
            f"{where}: unknown base {base!r}; valid: {', '.join(BASE_PRESETS)}"
        )
    output = _parse_output(payload.get("output", {"kind": "none"}), f"{where}.output")

    if kind == "microbench":
        return _parse_microbench(payload, where, name, scale, base, output)
    if kind == "litmus":
        return _parse_litmus(payload, where, name, scale, base, output)

    for key in ("machines", "ops", "variants", "iterations"):
        if key in payload:
            raise CampaignError(
                f"{where}: {key} is only valid for kind: microbench"
            )
    for key in ("programs", "models"):
        if key in payload:
            raise CampaignError(
                f"{where}: {key} is only valid for kind: litmus"
            )
    sugar_keys = (
        "workloads", "configs", "seeds", "num_threads",
        "instructions_per_thread",
    )
    has_sugar = any(k in payload for k in sugar_keys)
    if "grids" in payload and has_sugar:
        raise CampaignError(
            f"{where}: use either top-level workloads/configs or grids:,"
            " not both"
        )
    if "grids" in payload:
        grids_payload = payload["grids"]
        if not isinstance(grids_payload, list) or not grids_payload:
            raise CampaignError(f"{where}: grids must be a non-empty list")
        grids = tuple(
            _parse_grid(g, f"{where}.grids[{i}]")
            for i, g in enumerate(grids_payload)
        )
    elif has_sugar:
        grids = (
            _parse_grid(
                {k: payload[k] for k in sugar_keys if k in payload}, where
            ),
        )
    else:
        raise CampaignError(
            f"{where}: a grid campaign needs workloads/configs or grids:"
        )
    return Campaign(
        name=name,
        description=str(payload.get("description", "")),
        kind="grid",
        scale=scale,
        base=base,
        grids=grids,
        output=output,
    )


def _parse_litmus(
    payload: dict, where: str, name: str, scale, base: str, output: OutputSpec
) -> Campaign:
    from repro.workloads.litmus_oracle import LITMUS_TESTS

    for key in ("grids", "workloads", "configs", "seeds", "num_threads",
                "instructions_per_thread", "machines", "ops", "variants",
                "iterations"):
        if key in payload:
            raise CampaignError(
                f"{where}: {key} is not valid for kind: litmus"
            )
    programs = tuple(
        str(p) for p in payload.get("programs", sorted(LITMUS_TESTS))
    )
    for program in programs:
        if program not in LITMUS_TESTS:
            raise CampaignError(
                f"{where}: unknown litmus program {program!r}; valid:"
                f" {', '.join(sorted(LITMUS_TESTS))}"
            )
    models = tuple(
        str(m) for m in payload.get(
            "models", [k.value for k in ConsistencyKind]
        )
    )
    for model in models:
        try:
            ConsistencyKind.from_name(model)
        except ValueError as exc:
            raise CampaignError(f"{where}: {exc}") from None
    if not programs or not models:
        raise CampaignError(f"{where}: programs/models must be non-empty")
    return Campaign(
        name=name,
        description=str(payload.get("description", "")),
        kind="litmus",
        scale=scale,
        base=base,
        programs=programs,
        models=models,
        output=output,
    )


def _parse_microbench(
    payload: dict, where: str, name: str, scale, base: str, output: OutputSpec
) -> Campaign:
    for key in ("grids", "workloads", "configs", "seeds", "num_threads",
                "instructions_per_thread", "programs", "models"):
        if key in payload:
            raise CampaignError(
                f"{where}: {key} is not valid for kind: microbench"
            )
    machines = tuple(str(m) for m in _require(payload, "machines", where))
    for machine in machines:
        if machine not in MACHINES:
            raise CampaignError(
                f"{where}: unknown machine {machine!r}; valid:"
                f" {', '.join(MACHINES)}"
            )
    ops = tuple(str(op) for op in _require(payload, "ops", where))
    for op in ops:
        try:
            AtomicOp(op)
        except ValueError:
            raise CampaignError(
                f"{where}: unknown op {op!r}; valid:"
                f" {', '.join(o.value for o in AtomicOp)}"
            ) from None
    variants = tuple(str(v) for v in _require(payload, "variants", where))
    for variant in variants:
        if variant not in MICROBENCH_VARIANTS:
            raise CampaignError(
                f"{where}: unknown variant {variant!r}; valid:"
                f" {', '.join(MICROBENCH_VARIANTS)}"
            )
    iterations = payload.get("iterations")
    if isinstance(iterations, dict):
        for key, value in iterations.items():
            _validate_scale_name(str(key), f"{where}.iterations")
            if not isinstance(value, int) or isinstance(value, bool):
                raise CampaignError(
                    f"{where}.iterations: {key} must map to an integer"
                )
    elif iterations is not None and (
        not isinstance(iterations, int) or isinstance(iterations, bool)
    ):
        raise CampaignError(
            f"{where}: iterations must be an integer or a per-scale mapping"
        )
    if not machines or not ops or not variants:
        raise CampaignError(
            f"{where}: machines/ops/variants must be non-empty"
        )
    return Campaign(
        name=name,
        description=str(payload.get("description", "")),
        kind="microbench",
        scale=scale,
        base=base,
        machines=machines,
        ops=ops,
        variants=variants,
        iterations=iterations,
        output=output,
    )


# ---------------------------------------------------------------------------
# Load / dump
# ---------------------------------------------------------------------------


def _decode(text: str, where: str):
    if _yaml is not None:
        try:
            return _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise CampaignError(f"{where}: invalid YAML: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CampaignError(
            f"{where}: invalid JSON: {exc} (pyyaml not installed, so only"
            " JSON campaign specs can be read)"
        ) from None


def loads_campaign(text: str, where: str = "<campaign>") -> Campaign:
    return parse_campaign(_decode(text, where), where)


def load_campaign(path: str | os.PathLike) -> Campaign:
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}") from None
    return loads_campaign(text, where=str(path))


def dump_campaign(campaign: Campaign, path: str | os.PathLike | None = None) -> str:
    """Serialize a campaign canonically (YAML when available, else JSON)."""
    payload = campaign.to_dict()
    if _yaml is not None:
        text = _yaml.safe_dump(payload, sort_keys=False, default_flow_style=False)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text


def default_campaign_dir() -> pathlib.Path:
    """``$REPRO_CAMPAIGN_DIR``, else the repo's committed ``campaigns/``."""
    env = os.environ.get("REPRO_CAMPAIGN_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).resolve().parents[3] / "campaigns"


def load_named_campaign(name: str) -> Campaign:
    """Load a committed spec by family name (``fig1`` -> ``campaigns/fig1.yaml``)."""
    return load_campaign(default_campaign_dir() / f"{name}.yaml")
