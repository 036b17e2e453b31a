"""Workload generation: benchmark profiles, synthetic traces, microbenchmarks."""

from repro.workloads.inspect import (
    TraceStats,
    analyze_program,
    analyze_trace,
    shared_line_overlap,
)
from repro.workloads.microbench import VARIANTS, build_microbench
from repro.workloads.profiles import (
    ATOMIC_INTENSIVE,
    FIGURE_ORDER,
    NON_ATOMIC_INTENSIVE,
    WORKLOADS,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.synthetic import (
    TraceGenerator,
    build_program,
    clear_program_memo,
    program_memo_stats,
)

__all__ = [
    "ATOMIC_INTENSIVE",
    "FIGURE_ORDER",
    "NON_ATOMIC_INTENSIVE",
    "VARIANTS",
    "WORKLOADS",
    "WorkloadProfile",
    "TraceGenerator",
    "TraceStats",
    "analyze_program",
    "analyze_trace",
    "build_microbench",
    "shared_line_overlap",
    "build_program",
    "clear_program_memo",
    "get_profile",
    "program_memo_stats",
]
