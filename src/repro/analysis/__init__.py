"""Table regeneration (one registry, one renderer), claims and reporting."""

from repro.analysis.export import (
    export_figures,
    export_metrics,
    load_figures,
)
from repro.analysis.parallel import (
    Runner,
    RunnerError,
    RunnerStats,
    RunSpec,
    default_cache_dir,
    execute_spec,
    get_default_runner,
    reset_default_runner,
)
from repro.analysis.validate import (
    CLAIMS,
    CheckResult,
    Claim,
    run_validation,
    validate_all,
    validate_figure,
)
from repro.analysis.figures import (
    TABLES,
    Table,
    load_table_campaign,
    render,
)
from repro.analysis.report import FigureData, render_table
from repro.analysis.runner import (
    FULL,
    PAPER,
    QUICK,
    SMOKE,
    ExperimentScale,
    RunMetrics,
    base_params,
    config,
    default_scale,
    normalized_time,
    scale_by_name,
)

__all__ = [
    "CLAIMS",
    "CheckResult",
    "Claim",
    "TABLES",
    "Table",
    "export_figures",
    "export_metrics",
    "load_figures",
    "run_validation",
    "validate_all",
    "validate_figure",
    "ExperimentScale",
    "FULL",
    "FigureData",
    "PAPER",
    "QUICK",
    "RunMetrics",
    "RunSpec",
    "Runner",
    "RunnerError",
    "RunnerStats",
    "SMOKE",
    "default_cache_dir",
    "execute_spec",
    "get_default_runner",
    "load_table_campaign",
    "reset_default_runner",
    "base_params",
    "config",
    "default_scale",
    "normalized_time",
    "render",
    "render_table",
    "scale_by_name",
]
