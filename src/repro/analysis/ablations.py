"""The profiling pass of the two-pass oracle ablation (DESIGN.md §5).

Every other ablation of RoW's design choices (predictor size, counter
width, update policy, AQ/SB depth, consistency model) is a plain
:class:`~repro.analysis.figures.Table` record over its committed
``campaigns/ablation_*.yaml``.  The oracle is the one whose grid cannot
be committed whole: its ``oracle`` config carries the set of truly
contended atomic PCs, which only exists after a profiling run.  This
module is that first pass; the reader that prints the table lives with
the others in :mod:`repro.analysis.figures`.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.runner import ExperimentScale
from repro.sim.multicore import MulticoreSimulator
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.synthetic import build_program


def collect_contended_pcs(
    workload: str | WorkloadProfile,
    params,
    scale: ExperimentScale,
    seed: int = 0,
) -> tuple[int, ...]:
    """Profiling pass for the two-pass oracle: which atomic PCs are truly
    contended?

    Runs one simulation and unions each core's
    :attr:`~repro.core.atomic_policy.AtomicPolicyBase.truth_by_pc` — the
    per-PC OR of the ground-truth contention verdict recorded at every
    atomic's unlock.  The mode of the profiling run barely matters (truth
    is recorded under every policy); we use whatever ``params`` says.

    This bypasses the Runner/cache on purpose: ``truth_by_pc`` is observer
    state on the live cores, not part of the cached ``RunMetrics`` schema.
    """
    profile = get_profile(workload) if isinstance(workload, str) else workload
    program = build_program(
        profile,
        min(scale.num_threads, params.num_cores),
        scale.instructions_per_thread,
        seed=seed,
    )
    sim = MulticoreSimulator(params, program)
    sim.run()
    pcs: set[int] = set()
    for core in sim.cores:
        pcs.update(pc for pc, hot in core.policy.truth_by_pc.items() if hot)
    return tuple(sorted(pcs))


def oracle_campaign(campaign, scale: ExperimentScale):
    """Pass 1 of the oracle ablation: profile each workload of
    ``campaign`` under its ``eager`` config (first seed) and return
    ``(per_workload, pcs)`` — a copy with one grid per workload whose
    configs gain an ``oracle`` entry carrying that workload's contended
    PCs as a ``row:`` override (so exactly those PCs execute lazy), and
    the PC sets in grid order.  The copy is programmatic (the PC sets only
    exist at runtime) but expands through the same planner as the
    committed specs."""
    # Lazy import: the service layer imports repro.analysis at module level.
    from repro.service import planner
    from repro.service.schema import ConfigSpec

    profiling_params = planner.campaign_config_map(campaign, scale)["eager"]
    base = campaign.grids[0]
    grids, pcs = [], []
    for workload in base.workloads:
        pcs.append(
            collect_contended_pcs(
                planner.resolve_workload(workload),
                profiling_params,
                scale,
                seed=scale.seeds[0],
            )
        )
        oracle = ConfigSpec(
            name="oracle", mode="oracle", row={"oracle_contended_pcs": pcs[-1]}
        )
        grids.append(
            dataclasses.replace(
                base, workloads=(workload,), configs=(*base.configs, oracle)
            )
        )
    return dataclasses.replace(campaign, grids=tuple(grids)), pcs
