"""Export regenerated figures and run metrics to JSON.

Makes the reproduction's numbers consumable by external tooling (plotting
scripts, CI comparisons against recorded baselines, notebooks).
"""

from __future__ import annotations

import enum
import hashlib
import json
import pathlib
from dataclasses import asdict
from typing import Iterable

from repro import __version__
from repro.analysis.golden import DEFAULT_SNAPSHOT
from repro.analysis.report import FigureData
from repro.analysis.runner import ExperimentScale, RunMetrics


def _json_default(obj: object) -> object:
    """Explicit serialization for the non-JSON types exports contain.

    The old ``default=str`` silently stringified *anything* — a stray
    object in a row became ``"<repro.Foo object at 0x...>"`` in the bundle
    and the bug surfaced only in whatever consumed the file.  Unknown
    types now raise ``TypeError`` at export time instead.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, pathlib.PurePath):
        return str(obj)
    # numpy scalars leak out of analysis code when numpy is around; the
    # simulator itself never requires it.
    np = globals().get("_np")
    if np is None:
        try:
            import numpy as np  # type: ignore[no-redef]
        except ImportError:
            np = False
        globals()["_np"] = np
    if np:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
    raise TypeError(
        f"{type(obj).__name__} is not JSON-exportable; convert it before"
        f" export (got {obj!r})"
    )


def figure_to_dict(fig: FigureData) -> dict:
    return {
        "figure_id": fig.figure_id,
        "title": fig.title,
        "columns": fig.columns,
        "rows": fig.rows,
        "notes": fig.notes,
    }


def figure_from_dict(payload: dict) -> FigureData:
    fig = FigureData(payload["figure_id"], payload["title"], list(payload["columns"]))
    for row in payload["rows"]:
        fig.add_row(*row)
    fig.notes = list(payload.get("notes", []))
    return fig


def golden_digest() -> str | None:
    """sha256 of the committed golden snapshot (``None`` outside a repo
    checkout).  Tables record it so that re-baselining the simulator's
    behaviour without regenerating them is detectable."""
    try:
        return hashlib.sha256(DEFAULT_SNAPSHOT.read_bytes()).hexdigest()
    except OSError:
        return None


def export_figures(
    figures: Iterable[FigureData],
    path: str | pathlib.Path,
    scale: ExperimentScale | None = None,
) -> pathlib.Path:
    """Write a JSON bundle of figures plus their provenance: the scale
    they ran at, the engine version and the golden snapshot digest."""
    path = pathlib.Path(path)
    payload = {
        "engine": __version__,
        "golden_sha256": golden_digest(),
        "scale": None if scale is None else {
            "name": scale.name,
            "num_threads": scale.num_threads,
            "instructions_per_thread": scale.instructions_per_thread,
            "seeds": list(scale.seeds),
        },
        "figures": [figure_to_dict(fig) for fig in figures],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, default=_json_default, allow_nan=False)
    )
    return path


def load_figures(path: str | pathlib.Path) -> list[FigureData]:
    payload = json.loads(pathlib.Path(path).read_text())
    return [figure_from_dict(f) for f in payload["figures"]]


def metrics_to_dict(metrics: RunMetrics) -> dict:
    return asdict(metrics)


def export_metrics(
    metrics: Iterable[RunMetrics], path: str | pathlib.Path
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            [metrics_to_dict(m) for m in metrics],
            indent=2,
            default=_json_default,
            allow_nan=False,
        )
    )
    return path
