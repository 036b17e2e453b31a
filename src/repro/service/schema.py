"""The declarative campaign format: versioned YAML/JSON experiment specs.

A *campaign* names a whole experiment — the (workload × config × seed)
grid behind one figure family, ablation or sweep — plus an output
directive saying what to render from it.  The same spec file drives the
offline ``repro campaign run`` path, the ``repro serve`` HTTP service and
the table registry (each table loads its committed spec from
``campaigns/``), so CI, notebooks and the service all expand exactly the
same grid.

The grammar is data.  Each record — :class:`Campaign`, :class:`GridSpec`,
:class:`WorkloadSpec`, :class:`ConfigSpec`, :class:`OutputSpec` — is a
frozen dataclass whose ``FIELDS`` table lists its document keys, the
checker that turns each decoded value into the attribute value, and
which keys are required or belong to one campaign ``kind`` only.  Two
walks serve every record: :func:`parse_record` (decoded document →
record, strict) and :func:`to_payload` (record → canonical plain data,
its inverse: a key is written only when it differs from the record's
default).  :func:`describe_grammar` renders the tables for
``docs/service.md``.  Two rules sit outside the tables, in
:func:`parse_campaign`: the ``campaign:`` version key, and the top-level
``workloads``/``configs``/``seeds``/``num_threads``/
``instructions_per_thread`` sugar for a single-grid campaign.

Parsing is strict: unknown fields, wrong types and a wrong ``campaign:``
version are :class:`CampaignError`\\ s naming the path of the offending
value (``<file>.grids[0].configs[2].mode: unknown atomic mode ...``; the
CLI maps them to exit code 2), never silently ignored — a typo'd axis
must not silently shrink a grid.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.analysis.runner import scale_by_name
from repro.common.params import (
    PRESETS,
    AtomicMode,
    ConsistencyKind,
    DetectionMode,
    PredictorKind,
    RowParams,
    SystemParams,
)
from repro.common.schema import CAMPAIGN_SCHEMA_VERSION
from repro.isa.instructions import AtomicOp
from repro.workloads.litmus_oracle import LITMUS_TESTS
from repro.workloads.microbench import MACHINE_PARAMS
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

BASE_PRESETS: tuple[str, ...] = ("scale", *PRESETS)
OUTPUT_KINDS: tuple[str, ...] = ("none", "figure", "ablation")
CAMPAIGN_KINDS: tuple[str, ...] = ("grid", "microbench", "litmus")

# atomic_mode/row have dedicated config keys; consistency_model has the
# ``consistency`` key (so it goes through the model registry, not a
# raw-string dataclass replace).
_PARAM_FIELDS = frozenset(
    f.name for f in dataclasses.fields(SystemParams)
) - {"atomic_mode", "row", "consistency_model"}
_ROW_FIELDS = frozenset(f.name for f in dataclasses.fields(RowParams))
_PROFILE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(WorkloadProfile)
) - {"name"}

#: ``check(value, where) -> attribute value``; raises :class:`CampaignError`.
#: Every checker carries a ``doc`` string naming what it accepts.
Check = Callable[[object, str], object]


# ---------------------------------------------------------------------------
# Value checkers
# ---------------------------------------------------------------------------


def _documented(doc: str):
    def attach(check):
        check.doc = doc
        return check

    return attach


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(noun: str, ok: Callable[[object], bool], convert=None) -> Check:
    """A scalar that ``ok`` accepts, called ``noun`` in errors and docs."""

    @_documented(noun)
    def check(value, where: str):
        if not ok(value):
            raise CampaignError(f"{where} must be {noun}")
        return value if convert is None else convert(value)

    return check


text = _typed(
    "a string",
    lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool),
    str,
)
flag = _typed("true or false", lambda v: isinstance(v, bool))
integer = _typed("an integer", _is_int)
count = _typed("a positive integer", lambda v: _is_int(v) and v > 0)
int_or_null = _typed("an integer or null (+inf)", lambda v: v is None or _is_int(v))


def one_of(what: str, choices) -> Check:
    """A string naming one of ``choices``."""
    choices = tuple(choices)

    @_documented("one of " + " \\| ".join(f"`{c}`" for c in choices))
    def check(value, where: str) -> str:
        if value not in choices:
            raise CampaignError(
                f"{where}: unknown {what} {value!r} (valid: {', '.join(choices)})"
            )
        return value

    return check


def seq(item: Check, unique: str | None = None) -> Check:
    """A non-empty list of ``item``s, as a tuple; with ``unique``, no two
    items may share that attribute."""

    @_documented(f"non-empty list, each {item.doc}")
    def check(value, where: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise CampaignError(f"{where} must be a non-empty list")
        out = tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
        if unique is not None:
            keys = [getattr(v, unique) for v in out]
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            if dupes:
                raise CampaignError(
                    f"{where}: duplicate {unique}(s) {', '.join(dupes)}"
                )
        return out

    return check


def _freeze(value):
    """YAML lists become tuples so resolved params/profiles stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CampaignError(f"{where} must be a mapping")
    return value


def _reject_unknown(payload: dict, allowed, where: str, list_allowed=True):
    unknown = sorted(str(k) for k in payload if k not in allowed)
    if unknown:
        hint = f"; allowed: {', '.join(allowed)}" if list_allowed else ""
        raise CampaignError(f"{where}: unknown field(s) {', '.join(unknown)}{hint}")


def override_map(target: str, allowed: frozenset) -> Check:
    """A mapping of ``target`` field names to raw values (frozen)."""

    @_documented(f"a mapping of {target} field → value")
    def check(value, where: str) -> dict:
        _reject_unknown(_mapping(value, where), allowed, where, list_allowed=False)
        return {key: _freeze(v) for key, v in value.items()}

    return check


@_documented("an experiment scale name")
def scale_name(value, where: str) -> str:
    try:
        return scale_by_name(text(value, where)).name
    except ValueError as exc:
        raise CampaignError(f"{where}: {exc}") from None


@_documented("an integer, or a mapping of scale name → integer")
def int_or_per_scale(value, where: str):
    if isinstance(value, dict):
        return {
            scale_name(k, where): integer(v, f"{where}.{k}")
            for k, v in value.items()
        }
    if not _is_int(value):
        raise CampaignError(
            f"{where} must be an integer or a per-scale mapping"
        )
    return value


def record(cls) -> Check:
    """A nested record, parsed by :func:`parse_record`."""
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    shorthand = f", or a bare `{cls.SHORTHAND}`" if cls.SHORTHAND else ""

    @_documented(f"{article} {cls.__name__}{shorthand}")
    def check(value, where: str):
        return parse_record(cls, value, where)

    return check


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One document key of a record.

    ``key`` is also the record attribute; ``check`` turns the decoded
    value into the attribute value.  ``kinds`` limits the key to those
    campaign kinds (and then ``required`` holds only there); ``absent``
    supplies the document value assumed when an optional key is missing
    (else the record's own default applies, unchecked).
    """

    key: str
    check: Check
    required: bool = False
    kinds: tuple[str, ...] = ()
    absent: Callable[[], object] | None = None


class Record:
    """Base of the campaign records: ``FIELDS`` is the record's grammar.

    ``SHORTHAND`` names the key a bare string stands for (so ``fmm`` in a
    workload list means ``{base: fmm}``, and dumps back that way).
    Dataclass fields not in ``FIELDS`` are in-memory only: a record that
    sets one parses from nothing and cannot be dumped.
    """

    FIELDS: ClassVar[tuple[Field, ...]] = ()
    SHORTHAND: ClassVar[str | None] = None

    def problem(self) -> str | None:
        """A cross-field rule the table cannot state; None when it holds."""
        return None


@functools.cache
def _defaults(cls) -> dict:
    """``{attribute: default}`` of a record class (read-only, shared)."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


@functools.cache
def _in_memory(cls) -> tuple[str, ...]:
    keys = {f.key for f in cls.FIELDS}
    return tuple(f.name for f in dataclasses.fields(cls) if f.name not in keys)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigSpec(Record):
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

    FIELDS = (
        Field("name", text, required=True),
        Field("mode", one_of("atomic mode", (m.value for m in AtomicMode)),
              required=True),
        Field("detection", one_of("detection", (d.value for d in DetectionMode))),
        Field("predictor", one_of("predictor", (p.value for p in PredictorKind))),
        Field("consistency",
              one_of("consistency model", (k.value for k in ConsistencyKind))),
        Field("forwarding", flag),
        Field("latency_threshold", int_or_null),
        Field("params", override_map("SystemParams", _PARAM_FIELDS)),
        Field("row", override_map("RowParams", _ROW_FIELDS)),
    )


@dataclass(frozen=True)
class WorkloadSpec(Record):
    """A workload axis entry: a profile name, optionally renamed/overridden.

    ``profile`` carries an in-memory :class:`WorkloadProfile` literal for
    programmatic campaigns (e.g. ablation helpers); it never appears in a
    spec file and such a campaign cannot be dumped.
    """

    base: str
    name: str | None = None
    overrides: dict = field(default_factory=dict)
    profile: WorkloadProfile | None = None

    FIELDS = (
        Field("base", one_of("workload", WORKLOADS), required=True),
        Field("name", text),
        Field("overrides", override_map("WorkloadProfile", _PROFILE_FIELDS)),
    )
    SHORTHAND = "base"

    @property
    def label(self) -> str:
        if self.profile is not None:
            return self.profile.name
        return self.name if self.name is not None else self.base


@dataclass(frozen=True)
class GridSpec(Record):
    """One (workloads × configs × seeds) block of a campaign."""

    workloads: tuple[WorkloadSpec, ...]
    configs: tuple[ConfigSpec, ...]
    seeds: tuple[int, ...] | None = None
    num_threads: int | None = None
    instructions_per_thread: int | None = None

    FIELDS = (
        Field("workloads", seq(record(WorkloadSpec)), required=True),
        Field("configs", seq(record(ConfigSpec), unique="name"), required=True),
        Field("seeds", seq(integer)),
        Field("num_threads", count),
        Field("instructions_per_thread", count),
    )


@dataclass(frozen=True)
class OutputSpec(Record):
    """What to render once the grid is in the cache."""

    kind: str = "none"
    id: str | None = None

    FIELDS = (
        Field("kind", one_of("output kind", OUTPUT_KINDS)),
        Field("id", text),
    )

    def problem(self) -> str | None:
        if self.kind != "none" and self.id is None:
            return f"output kind {self.kind!r} requires an id"
        return None


@dataclass(frozen=True)
class Campaign(Record):
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

    FIELDS = (
        Field("name", text, required=True),
        Field("description", text),
        Field("kind", one_of("campaign kind", CAMPAIGN_KINDS)),
        Field("scale", scale_name, kinds=("grid", "microbench")),
        Field("base", one_of("base", BASE_PRESETS), kinds=("grid",)),
        Field("grids", seq(record(GridSpec)), required=True, kinds=("grid",)),
        Field("machines", seq(one_of("machine", MACHINE_PARAMS)), required=True,
              kinds=("microbench",)),
        Field("ops", seq(one_of("op", (o.value for o in AtomicOp))),
              required=True, kinds=("microbench",)),
        Field("variants", seq(one_of("variant", MICROBENCH_VARIANTS)),
              required=True, kinds=("microbench",)),
        Field("iterations", int_or_per_scale, kinds=("microbench",)),
        Field("programs", seq(one_of("litmus program", sorted(LITMUS_TESTS))),
              kinds=("litmus",), absent=lambda: sorted(LITMUS_TESTS)),
        Field("models",
              seq(one_of("consistency model", (k.value for k in ConsistencyKind))),
              kinds=("litmus",), absent=lambda: [k.value for k in ConsistencyKind]),
        Field("output", record(OutputSpec)),
    )

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


#: The keys a single-grid campaign may write at top level instead of
#: under ``grids:``.
GRID_SUGAR = tuple(f.key for f in GridSpec.FIELDS)


def as_workload_spec(workload) -> WorkloadSpec:
    """Coerce a figure-style workload (name / profile / spec) to a spec."""
    if isinstance(workload, WorkloadSpec):
        return workload
    if isinstance(workload, WorkloadProfile):
        return WorkloadSpec(base=workload.name, profile=workload)
    return WorkloadSpec(base=str(workload))


# ---------------------------------------------------------------------------
# The two walks
# ---------------------------------------------------------------------------


def parse_record(cls, payload, where: str):
    """Validate one decoded mapping into a ``cls`` record, strictly."""
    if cls.SHORTHAND is not None and isinstance(payload, str):
        payload = {cls.SHORTHAND: payload}
    _reject_unknown(_mapping(payload, where), [f.key for f in cls.FIELDS], where)
    values: dict = {}
    for f in cls.FIELDS:
        # ``kind`` precedes every kind-limited key in its table.
        if f.kinds and values.get("kind", _defaults(cls).get("kind")) not in f.kinds:
            if f.key in payload:
                raise CampaignError(
                    f"{where}: {f.key} is only valid for kind:"
                    f" {' or '.join(f.kinds)}"
                )
            continue
        if f.key in payload:
            raw = payload[f.key]
        elif f.required:
            raise CampaignError(f"{where}: missing required field {f.key!r}")
        elif f.absent is not None:
            raw = f.absent()
        else:
            continue
        values[f.key] = f.check(raw, f"{where}.{f.key}")
    built = cls(**values)
    problem = built.problem()
    if problem is not None:
        raise CampaignError(f"{where}: {problem}")
    return built


def to_payload(value):
    """The canonical plain-data form of a record (or of a value inside
    one): the inverse of :func:`parse_record`.  A key is written when it
    is required or differs from the record's default; mappings are
    written in key order; tuples become lists."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Record):
        cls = type(value)
        defaults = _defaults(cls)
        in_memory = [
            name for name in _in_memory(cls) if getattr(value, name) != defaults[name]
        ]
        if in_memory:
            raise CampaignError(
                f"{cls.__name__} sets in-memory field(s) {', '.join(in_memory)}"
                " and cannot be serialized"
            )
        kind = getattr(value, "kind", None)
        out = {}
        for f in cls.FIELDS:
            if f.kinds and kind not in f.kinds:
                continue
            item = getattr(value, f.key)
            if f.required or item != defaults[f.key]:
                out[f.key] = to_payload(item)
        if cls.SHORTHAND is not None and list(out) == [cls.SHORTHAND]:
            return out[cls.SHORTHAND]
        return out
    if isinstance(value, (list, tuple)):
        return [to_payload(v) for v in value]
    if isinstance(value, dict):
        return {k: to_payload(value[k]) for k in sorted(value)}
    return value


def parse_campaign(payload, where: str = "<campaign>") -> Campaign:
    """Validate a decoded YAML/JSON document into a :class:`Campaign`."""
    if not isinstance(payload, dict):
        raise CampaignError(f"{where}: campaign spec must be a mapping")
    if "campaign" not in payload:
        raise CampaignError(f"{where}: missing required field 'campaign'")
    version = payload["campaign"]
    if version != CAMPAIGN_SCHEMA_VERSION:
        raise CampaignError(
            f"{where}: unsupported campaign schema version {version!r}"
            f" (this build speaks version {CAMPAIGN_SCHEMA_VERSION})"
        )
    body = {k: v for k, v in payload.items() if k != "campaign"}
    sugar = {k: body.pop(k) for k in GRID_SUGAR if k in body}
    if sugar:
        if body.get("kind", "grid") != "grid":
            raise CampaignError(
                f"{where}: {next(iter(sugar))} is only valid for kind: grid"
            )
        if "grids" in body:
            raise CampaignError(
                f"{where}: use either top-level"
                f" {'/'.join(GRID_SUGAR)} or grids:, not both"
            )
        body["grids"] = [sugar]
    return parse_record(Campaign, body, where)


def campaign_payload(campaign: Campaign) -> dict:
    """The canonical document of ``campaign``, version key first."""
    return {"campaign": CAMPAIGN_SCHEMA_VERSION, **to_payload(campaign)}


def describe_grammar() -> str:
    """The field tables as Markdown, one table per record."""
    lines = []
    for cls in (Campaign, GridSpec, WorkloadSpec, ConfigSpec, OutputSpec):
        defaults = _defaults(cls)
        lines += [f"**{cls.__name__}**", "", "| key | value | presence |",
                  "|-----|-------|----------|"]
        for f in cls.FIELDS:
            default = defaults.get(f.key)
            if f.required:
                presence = "required"
            elif f.absent is not None:
                presence = "default: all"
            elif isinstance(default, (str, bool, int)) and default != UNSET:
                presence = f"default `{json.dumps(default)}`"
            else:
                presence = "optional"
            if f.kinds:
                presence += f"; kind {' or '.join(f.kinds)} only"
            lines.append(f"| `{f.key}` | {f.check.doc} | {presence} |")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Load / dump
# ---------------------------------------------------------------------------

if _yaml is not None:  # libyaml's C loader when built, same documents
    _YAML_LOADER = getattr(_yaml, "CSafeLoader", _yaml.SafeLoader)


def _decode(text: str, where: str):
    if _yaml is not None:
        try:
            return _yaml.load(text, Loader=_YAML_LOADER)
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
    payload = campaign_payload(campaign)
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
