"""Runner/RunSpec tests: content hashing, disk cache, fan-out, retries."""

import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
import sys
import threading

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    CACHE_SCHEMA_VERSION,
    Runner,
    RunnerError,
    RunSpec,
    default_cache_dir,
    execute_spec,
    get_default_runner,
    reset_default_runner,
)
from repro.analysis.runner import (
    SMOKE,
    AtomicMode,
    ExperimentScale,
    base_params,
    config,
)
from repro.service import planner
from repro.service.fabric import ShardPool
from repro.service.schema import default_campaign_dir, load_campaign, loads_campaign
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import clear_program_memo

PARAMS = base_params(SMOKE)
EAGER = config(PARAMS, AtomicMode.EAGER)
LAZY = config(PARAMS, AtomicMode.LAZY)
#: Small enough that a test may run a whole grid of real cells.
TINY = ExperimentScale("tiny", 2, 200, (0,))


def _spec(seed: int = 0, params=PARAMS) -> RunSpec:
    return RunSpec.build("fmm", params, SMOKE, seed=seed)


def _cache_files(cache_dir) -> list[pathlib.Path]:
    return sorted(pathlib.Path(cache_dir).glob("*/*.json"))


@pytest.fixture
def template():
    """Real metrics for a stub worker to hand out."""
    return execute_spec(RunSpec.build("fmm", EAGER, TINY))


def _reference_digest(spec: RunSpec) -> str:
    payload = json.dumps(spec.canonical_dict(), sort_keys=True, allow_nan=False)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestRunSpec:
    def test_hashable_and_equal(self):
        assert _spec() == _spec()
        assert hash(_spec()) == hash(_spec())

    def test_content_hash_stable(self):
        assert _spec().content_hash() == _spec().content_hash()

    def test_content_hash_sensitive_to_seed_and_params(self):
        hashes = {
            _spec().content_hash(),
            _spec(seed=1).content_hash(),
            _spec(params=LAZY).content_hash(),
        }
        assert len(hashes) == 3

    def test_threads_clamped_to_cores(self):
        few_cores = dataclasses.replace(PARAMS, num_cores=2)
        assert RunSpec.build("fmm", few_cores, SMOKE).num_threads == 2

    def test_for_seeds_covers_scale(self):
        specs = RunSpec.for_seeds("fmm", PARAMS, SMOKE)
        assert [s.seed for s in specs] == list(SMOKE.seeds)

    def test_grid_is_workloads_times_configs_times_seeds(self):
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), SMOKE)
        assert len(specs) == 2 * 2 * len(SMOKE.seeds)
        assert len(set(specs)) == len(specs)


def _rehashing_worker(spec: RunSpec):
    """Runs a cell only if it hashes here as an equal spec built here does."""
    if hash(spec) != hash(dataclasses.replace(spec)):
        raise RuntimeError("the spec carried a hash from another process")
    return execute_spec(spec)


class TestIdentityContract:
    """A spec's digest and dict hash are computed once and kept on it;
    what is kept equals the reference formula and never leaves the
    object."""

    def test_every_committed_cell_digests_as_the_reference_formula(self):
        kinds = set()
        for path in sorted(default_campaign_dir().glob("*.yaml")):
            campaign = load_campaign(path)
            kinds.add(campaign.kind)
            for scale in ("smoke", "quick"):
                for spec in planner.expand_campaign(campaign, scale):
                    assert spec.content_hash() == _reference_digest(spec), (
                        path.stem,
                        scale,
                    )
        assert kinds == {"grid", "microbench", "litmus"}

    def test_equal_values_that_encode_differently_keep_their_own_digest(self):
        # 0 == 0.0, so the two specs are equal, but their payloads differ.
        as_int, as_float = (
            RunSpec.build(get_profile("pc").with_overrides(hot_fraction=v), PARAMS, SMOKE)
            for v in (0, 0.0)
        )
        assert as_int == as_float
        assert as_int.content_hash() == _reference_digest(as_int)
        assert as_float.content_hash() == _reference_digest(as_float)
        assert as_int.content_hash() != as_float.content_hash()

    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickles_and_copies_carry_no_memo(self, clone):
        spec = _spec()
        digest, hashed = spec.content_hash(), hash(spec)
        assert digest.encode() not in pickle.dumps(spec)
        twin = clone(spec)
        assert set(vars(twin)) == {f.name for f in dataclasses.fields(RunSpec)}
        assert twin == spec
        assert hash(twin) == hashed
        assert twin.content_hash() == digest

    def test_replace_gets_its_own_digest(self):
        spec = _spec()
        digest = spec.content_hash()
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        assert other.content_hash() != digest
        assert other.content_hash() == _reference_digest(other)
        assert dataclasses.replace(spec).content_hash() == digest

    def test_threads_sharing_the_fragment_memo_get_reference_digests(
        self, monkeypatch
    ):
        # A service hashes from its HTTP and dispatcher threads at once; a
        # small bound makes the memo empty itself under them.
        monkeypatch.setattr(parallel, "_FRAGMENT_LIMIT", 4)
        interval = sys.getswitchinterval()
        wrong = []

        def hash_fresh_specs(offset):
            for cores in range(1, 41):
                spec = _spec(params=dataclasses.replace(PARAMS, num_cores=cores))
                spec = dataclasses.replace(spec, seed=offset)
                if spec.content_hash() != _reference_digest(spec):
                    wrong.append(spec)

        threads = [
            threading.Thread(target=hash_fresh_specs, args=(i,)) for i in range(4)
        ]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_spawned_pool_matches_serial_for_hashed_specs(self, monkeypatch):
        specs = RunSpec.grid(("fmm", "pc"), (EAGER,), TINY)
        for spec in specs:
            hash(spec), spec.content_hash()
        serial = Runner(jobs=1).run_many(specs)
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", lambda method=None: spawn
        )
        # Workers hash strings with a seed other than this process's.
        seed = os.environ.get("PYTHONHASHSEED")
        monkeypatch.setenv("PYTHONHASHSEED", "2" if seed == "1" else "1")
        pooled = Runner(jobs=2, retries=0, worker=_rehashing_worker)
        assert pooled.run_many(specs) == serial


GRID_TEXT = """
campaign: 1
name: counted
scale: smoke
workloads: [fmm, pc]
configs:
  - {name: eager, mode: eager}
  - {name: lazy, mode: lazy}
seeds: [0]
num_threads: 2
instructions_per_thread: 200
"""


class TestDigestsComputed:
    """How many payloads each path encodes: exact, so a lost memo shows."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        encode = parallel._payload

        def counted(spec):
            calls.append(spec)
            return encode(spec)

        monkeypatch.setattr(parallel, "_payload", counted)
        return calls

    def test_runner_cold_then_fresh_runner(self, count, template, tmp_path):
        specs = planner.expand_campaign(loads_campaign(GRID_TEXT))
        assert len(specs) == 4
        cold = Runner(cache_dir=tmp_path, worker=lambda spec: template)
        cold.run_many(specs)
        assert (cold.stats.simulated, len(count)) == (4, 4)
        del count[:]
        warm = Runner(cache_dir=tmp_path)
        warm.run_many(specs)
        assert (warm.stats.disk_hits, len(count)) == (4, 0)

    def test_shard_pool_warm_resubmit_with_result_rows(
        self, count, template, tmp_path
    ):
        def serve(runner):
            pool = ShardPool(runner)
            pool.start()
            try:
                run = pool.submit(loads_campaign(GRID_TEXT))
                assert run.wait(timeout=60) and run.state == "done"
            finally:
                pool.stop()
            assert len(run.result_rows()) == 4
            return run

        serve(Runner(cache_dir=tmp_path, worker=lambda spec: template))
        del count[:]
        run = serve(Runner(cache_dir=tmp_path))
        assert (run.cache_hits, len(count)) == (4, 4)


#: The benchmark's smoke grid: four workloads × three atomic policies.
SMOKE_GRID_TEXT = """
campaign: 1
name: smoke-grid
scale: smoke
workloads: [pc, cq, canneal, blackscholes]
configs:
  - {name: eager, mode: eager}
  - {name: lazy, mode: lazy}
  - {name: row, mode: row, detection: rw+dir, predictor: u/d, forwarding: true}
seeds: [0]
"""

#: The list of the :func:`_opened_files` block in progress, if any.
_recording: list[list[str]] = []


def _record_open(event, args):
    if event == "open" and _recording and isinstance(args[0], (str, os.PathLike)):
        _recording[0].append(os.fspath(args[0]))


@contextlib.contextmanager
def _opened_files(root):
    """Every file the process opens under ``root`` inside the block.  An
    audit hook sees opens by any route (``open``, ``pathlib``, ``os.open``);
    it cannot be removed, so it is added once and records only here."""
    if not getattr(_record_open, "added", False):
        sys.addaudithook(_record_open)
        _record_open.added = True
    opened: list[str] = []
    _recording.append(opened)
    try:
        yield opened
    finally:
        _recording.clear()
    opened[:] = [path for path in opened if pathlib.Path(path).is_relative_to(root)]


class TestDiskCache:
    def test_warm_cache_is_bit_identical_and_simulation_free(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        warm = Runner(cache_dir=tmp_path)
        again = warm.run(_spec())
        assert again == fresh
        assert again.to_json() == fresh.to_json()
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == 1

    def test_cache_layout_and_atomic_publish(self, tmp_path):
        Runner(cache_dir=tmp_path).run(_spec())
        files = _cache_files(tmp_path)
        assert len(files) == 1
        digest = _spec().content_hash()
        assert files[0].name == f"{digest}.json"
        assert files[0].parent.name == digest[:2]
        # Atomic publish leaves no temp droppings behind.
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_corrupted_entry_discarded_and_recomputed(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        path.write_text("{ this is not json")
        r = Runner(cache_dir=tmp_path)
        assert r.run(_spec()) == fresh
        assert r.stats.corrupt_discarded == 1
        assert r.stats.simulated == 1
        # The recomputed result was re-published to disk.
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA_VERSION

    def test_truncated_entry_discarded_and_recomputed(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        r = Runner(cache_dir=tmp_path)
        assert r.run(_spec()) == fresh
        assert r.stats.corrupt_discarded == 1

    def test_schema_mismatch_discarded(self, tmp_path):
        Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        r = Runner(cache_dir=tmp_path)
        r.run(_spec())
        assert r.stats.corrupt_discarded == 1
        assert r.stats.simulated == 1

    def test_an_entry_holds_only_what_is_read_back(self, tmp_path):
        Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        assert set(json.loads(path.read_text())) == {"schema", "metrics"}

    def test_an_entry_that_also_holds_its_spec_is_a_hit(self, tmp_path):
        """Entries written while they carried a copy of the spec stay warm."""
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        older = {**_spec().canonical_dict(), "metrics": fresh.to_dict()}
        path.write_text(json.dumps(older, sort_keys=True, allow_nan=False))
        warm = Runner(cache_dir=tmp_path)
        again = warm.run(_spec())
        assert (warm.stats.disk_hits, warm.stats.simulated) == (1, 0)
        assert warm.stats.corrupt_discarded == 0
        assert again.to_json() == fresh.to_json()

    def test_cold_and_warm_passes_never_walk_the_reference_spec(
        self, template, tmp_path, monkeypatch
    ):
        specs = planner.expand_campaign(loads_campaign(GRID_TEXT))
        assert len(specs) == 4
        walks = []
        reference = RunSpec.canonical_dict

        def counted(spec):
            walks.append(spec)
            return reference(spec)

        monkeypatch.setattr(RunSpec, "canonical_dict", counted)
        Runner(cache_dir=tmp_path, worker=lambda spec: template).run_many(specs)
        warm = Runner(cache_dir=tmp_path)
        warm.run_many(specs)
        assert warm.stats.disk_hits == 4
        assert walks == []

    def test_a_warm_smoke_grid_opens_one_small_entry_per_cell(self, tmp_path):
        """Counted, not timed: a disk hit reads one file, and that file is
        the metrics alone (a spec copy would add about 2 KB)."""
        campaign = loads_campaign(SMOKE_GRID_TEXT)
        specs = planner.expand_campaign(campaign)
        assert len(specs) == 12
        Runner(cache_dir=tmp_path).run_many(specs)
        warm = Runner(cache_dir=tmp_path)
        with _opened_files(tmp_path) as opened:
            warm.run_many(specs)
        assert warm.stats.disk_hits == 12
        entries = {warm._cache_path(spec) for spec in specs}
        assert sorted(opened) == sorted(entries)
        sizes = [os.path.getsize(path) for path in opened]
        assert max(sizes) < 1200, sizes

    def test_resume_partial_sweep(self, tmp_path):
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), SMOKE)
        Runner(cache_dir=tmp_path).run_many(specs[: len(specs) // 2])
        resumed = Runner(cache_dir=tmp_path)
        resumed.run_many(specs)
        assert resumed.stats.disk_hits == len(specs) // 2
        assert resumed.stats.simulated == len(specs) - len(specs) // 2

    def test_no_cache_dir_means_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        r = Runner(cache_dir=None)
        a = r.run(_spec())
        assert r.run(_spec()) is a  # memo hit, same object
        assert not list(tmp_path.glob("**/*.json"))

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        assert default_cache_dir() == tmp_path / "cc"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestParallelExecution:
    def test_jobs4_equals_serial_on_smoke(self):
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), SMOKE)
        serial = Runner(jobs=1).run_many(specs)
        parallel = Runner(jobs=4).run_many(specs)
        assert parallel == serial
        assert [m.to_json() for m in parallel] == [m.to_json() for m in serial]

    def test_run_many_preserves_input_order_and_dedupes(self):
        specs = [_spec(0), _spec(1), _spec(0)]
        r = Runner(jobs=1)
        out = r.run_many(specs)
        assert len(out) == 3
        assert out[0] is out[2]
        assert r.stats.simulated == 2

    def test_parallel_results_reach_disk_cache(self, tmp_path):
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), SMOKE)
        Runner(jobs=4, cache_dir=tmp_path).run_many(specs)
        assert len(_cache_files(tmp_path)) == len(specs)
        warm = Runner(jobs=4, cache_dir=tmp_path)
        warm.run_many(specs)
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == len(specs)


class TestDispatchOrder:
    """Misses run grouped by program, first appearance first."""

    @pytest.fixture
    def recording(self):
        template = execute_spec(RunSpec.build("fmm", EAGER, TINY))
        executed = []

        def worker(spec):
            executed.append(spec)
            return dataclasses.replace(template, cycles=len(executed))

        return Runner(jobs=1, worker=worker), executed

    def test_cells_sharing_a_program_run_back_to_back(self, recording):
        runner, executed = recording
        two_seeds = dataclasses.replace(TINY, seeds=(0, 1))
        # Input order is workload, config, seed: fmm/E/0 fmm/E/1 fmm/L/0 ...
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), two_seeds)
        streamed = [spec for spec, _, _ in runner.run_stream(specs)]
        assert streamed == executed
        assert executed == [specs[i] for i in (0, 2, 1, 3, 4, 6, 5, 7)]
        runner.clear_memo()
        del executed[:]
        results = runner.run_many(specs)
        assert [m.cycles for m in results] == [1, 3, 2, 4, 5, 7, 6, 8]

    def test_single_seed_grid_streams_in_input_order(self, recording):
        runner, executed = recording
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), TINY)
        assert [spec for spec, _, _ in runner.run_stream(specs)] == specs
        assert executed == specs


class TestGcEpoch:
    @pytest.fixture(autouse=True)
    def _collection_enabled(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        if not was_enabled:
            gc.disable()

    def test_a_cell_leaves_no_dead_simulator_behind(self):
        gc.collect()
        execute_spec(_spec())
        assert gc.isenabled()
        assert gc.collect() < 1000

    def test_collection_restored_when_the_cell_raises(self, monkeypatch):
        def broken(params, program):
            assert not gc.isenabled()
            raise RuntimeError("synthetic simulator failure")

        monkeypatch.setattr(parallel, "simulate", broken)
        with pytest.raises(RuntimeError, match="synthetic simulator"):
            execute_spec(_spec())
        assert gc.isenabled()

    def test_disabled_collection_stays_disabled_and_unforced(self, monkeypatch):
        forced = []
        monkeypatch.setattr(gc, "collect", lambda *a: forced.append(a))
        gc.disable()
        execute_spec(RunSpec.build("fmm", EAGER, TINY))
        assert not gc.isenabled()
        assert forced == []


def _crash_once_worker(spec):
    """Fails on first invocation (per sentinel file), then succeeds."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("crashed once")
        raise RuntimeError("synthetic worker crash")
    return execute_spec(spec)


def _always_fail_worker(spec):
    raise RuntimeError("synthetic permanent failure")


def _exit_once_worker(spec):
    """Hard-kills its process on first invocation (breaks the pool)."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("died once")
        os._exit(13)
    return execute_spec(spec)


class TestRetries:
    def test_serial_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SENTINEL", str(tmp_path / "s"))
        r = Runner(jobs=1, retries=2, worker=_crash_once_worker)
        metrics = r.run(_spec())
        assert metrics == execute_spec(_spec())
        assert r.stats.retries == 1

    def test_retry_budget_exhausted_raises_runner_error(self):
        r = Runner(jobs=1, retries=1, worker=_always_fail_worker)
        with pytest.raises(RunnerError, match="after 2 attempts"):
            r.run(_spec())

    def test_pool_rebuilt_after_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SENTINEL", str(tmp_path / "s"))
        specs = [_spec(seed) for seed in (0, 1)]
        r = Runner(jobs=2, retries=2, worker=_exit_once_worker)
        out = r.run_many(specs)
        assert out == [execute_spec(s) for s in specs]
        assert r.stats.retries >= 1


class TestDefaultRunner:
    def test_shared_singleton(self):
        reset_default_runner()
        try:
            a = get_default_runner()
            assert get_default_runner() is a
            assert a.jobs == 1
            assert a.cache_dir is None
            reset_default_runner()
            assert get_default_runner() is not a
        finally:
            reset_default_runner()

    def test_summary_mentions_cache_location(self, tmp_path):
        r = Runner(cache_dir=tmp_path)
        r.run(_spec())
        assert str(tmp_path) in r.summary()
        assert "1 simulated" in r.summary()

    def test_summary_counts_generated_programs_through_the_pool_too(self):
        clear_program_memo()
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), TINY)
        serial = Runner(jobs=1)
        serial.run_many(specs)
        assert serial.summary().endswith("programs generated 2")
        # Forked workers inherit this process's memo: nothing to generate.
        pooled = Runner(jobs=2)
        pooled.run_many(specs)
        assert pooled.summary().endswith("programs generated 0")
        clear_program_memo()
        pooled = Runner(jobs=2)
        pooled.run_many(specs)
        assert 2 <= pooled.stats.programs_generated <= 4
