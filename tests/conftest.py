"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro.common.params import AtomicMode, SystemParams


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    # Keep tests out of the user's real ~/.cache/repro result cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def narrowed_sweep(tmp_path):
    """Writes ``examples/sweep.yaml`` narrowed to one workload's
    ``hot_fraction`` values, seeds, threads and instructions per thread
    (the grid ``repro sweep`` used to build from those flags); returns
    the spec's path."""
    from repro.service.schema import WorkloadSpec, dump_campaign, load_campaign

    def write(workload, values, seeds, threads, instructions):
        campaign = load_campaign(
            pathlib.Path(__file__).resolve().parents[1] / "examples" / "sweep.yaml"
        )
        grid = dataclasses.replace(
            campaign.grids[0],
            workloads=tuple(
                WorkloadSpec(
                    base=workload,
                    name=f"{workload}-hot_fraction-{value:g}",
                    overrides={"hot_fraction": value},
                )
                for value in values
            ),
            seeds=tuple(range(seeds)),
            num_threads=threads,
            instructions_per_thread=instructions,
        )
        path = tmp_path / "sweep.yaml"
        dump_campaign(dataclasses.replace(campaign, grids=(grid,)), path)
        return path

    return write


@pytest.fixture
def quick_params() -> SystemParams:
    return SystemParams.quick()


@pytest.fixture
def small_params() -> SystemParams:
    return SystemParams.small()


@pytest.fixture(params=list(AtomicMode), ids=[m.value for m in AtomicMode])
def any_mode(request) -> AtomicMode:
    return request.param
