"""Job-based experiment executor: ``RunSpec`` + ``Runner``.

The paper's evaluation is dozens of sweeps over the same
(workload × configuration × seed) grid.  This module turns each point of
that grid into a frozen, hashable, picklable :class:`RunSpec` job and
executes batches of them through a :class:`Runner` that

* fans jobs across a ``multiprocessing`` pool (``jobs=N``),
* memoizes results in-process *and* in a persistent on-disk cache keyed by
  a content hash of the full spec plus a simulator-version salt,
* retries jobs whose worker crashed mid-flight,
* resumes partially completed sweeps (finished jobs are disk hits), and
* renders a progress/ETA line for long campaigns.

Parallel and serial execution produce identical metrics: the simulation is
deterministic per (spec, seed), and every result round-trips through the
same :meth:`RunMetrics.to_json` schema the cache files use.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro import __version__ as _ENGINE_VERSION
from repro.analysis.runner import ExperimentScale, RunMetrics
from repro.common.params import SystemParams
from repro.common.schema import CACHE_SCHEMA_VERSION
from repro.common.stats import geomean
from repro.sim.multicore import simulate
from repro.workloads.litmus_oracle import LitmusCase, observed_outcome
from repro.workloads.microbench import Microbench
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.synthetic import build_program, program_memo_stats

__all__ = [
    "CACHE_SCHEMA_VERSION",  # re-exported from repro.common.schema
    "RunSpec",
    "Runner",
    "RunnerError",
    "RunnerStats",
    "default_cache_dir",
    "execute_spec",
    "get_default_runner",
    "reset_default_runner",
]


class RunnerError(RuntimeError):
    """A job failed after exhausting its retry budget."""


# ---------------------------------------------------------------------------
# RunSpec: the frozen, content-addressable identity of one simulation
# ---------------------------------------------------------------------------


def _canonical(obj):
    """Reduce params/profiles to plain JSON-stable values for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return obj


def _encode(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False)


#: What a cache entry's identity folds besides the spec.  ``"spec"`` sorts
#: after both keys, so a payload is this object's JSON left open.
_IDENTITY = {"engine": _ENGINE_VERSION, "schema": CACHE_SCHEMA_VERSION}
_PAYLOAD_HEAD = _encode(_IDENTITY)[:-1] + ', "spec": '

#: ``_encode(_canonical(value))`` of each params/workload object a payload
#: has read, by ``id``.  Each entry holds its object, so no other object
#: can take that id while the entry lives; threads need no lock.  Not by
#: value: equal values can encode differently (``0 == 0.0``, ``1 ==
#: True``).  Emptied when full, so a long-lived service keeps it bounded.
_FRAGMENT_LIMIT = 512
_fragments: dict[int, tuple[object, str]] = {}


def _fragment(value) -> str:
    if type(value) is int:  # an int field, spelled as json spells it
        return repr(value)
    entry = _fragments.get(id(value))
    if entry is not None:
        return entry[1]
    text = _encode(_canonical(value))
    if len(_fragments) >= _FRAGMENT_LIMIT:
        _fragments.clear()
    _fragments[id(value)] = (value, text)
    return text


def _payload(spec: "RunSpec") -> str:
    """``_encode(spec.canonical_dict())`` byte for byte, composed from
    per-object fragments: keys in sorted order, json's default separators.
    The only place a payload is encoded; :meth:`RunSpec.content_hash`
    calls it once per spec object."""
    body = ", ".join(
        f'"{name}": {_fragment(getattr(spec, name))}' for name in _SPEC_KEYS
    )
    return f"{_PAYLOAD_HEAD}{{{body}}}}}"


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation's metrics.

    Replaces the old ``run_one(workload, params, scale, seed)`` positional
    soup: a spec is hashable (usable as a memo key), picklable (shippable
    to pool workers) and content-addressable (:meth:`content_hash` keys the
    on-disk cache).

    ``workload`` is the program source: a :class:`WorkloadProfile` (a grid
    cell, generated from the int fields), a :class:`Microbench` or a
    :class:`LitmusCase`.  The last two fix their own program, so their int
    fields are fixed (1 / iterations / 0, threads / 0 / 0).

    The digest and the dict hash are computed once per spec object and
    kept on it, outside its fields: equality ignores them, and pickles and
    copies drop them (:meth:`__getstate__`), so a ``spawn`` worker, which
    hashes strings with another seed, hashes afresh.
    """

    workload: WorkloadProfile | Microbench | LitmusCase
    params: SystemParams
    num_threads: int
    instructions_per_thread: int
    seed: int = 0

    # First-use memos: class defaults, not fields.
    _digest = None
    _hash = None

    def __hash__(self) -> int:
        # The value dataclass would compute on every call.
        if self._hash is None:
            fields = (
                self.workload,
                self.params,
                self.num_threads,
                self.instructions_per_thread,
                self.seed,
            )
            object.__setattr__(self, "_hash", hash(fields))
        return self._hash

    def __getstate__(self) -> dict:
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("_digest", "_hash")
        }

    @classmethod
    def build(
        cls,
        workload: str | WorkloadProfile,
        params: SystemParams,
        scale: ExperimentScale,
        seed: int = 0,
    ) -> "RunSpec":
        profile = get_profile(workload) if isinstance(workload, str) else workload
        return cls(
            workload=profile,
            params=params,
            num_threads=min(scale.num_threads, params.num_cores),
            instructions_per_thread=scale.instructions_per_thread,
            seed=seed,
        )

    @classmethod
    def for_seeds(
        cls,
        workload: str | WorkloadProfile,
        params: SystemParams,
        scale: ExperimentScale,
    ) -> list["RunSpec"]:
        return [cls.build(workload, params, scale, seed) for seed in scale.seeds]

    @classmethod
    def grid(
        cls,
        workloads,
        configs,
        scale: ExperimentScale,
    ) -> list["RunSpec"]:
        """The full (workload × config × seed) job grid of one experiment."""
        return [
            spec
            for workload in workloads
            for params in configs
            for spec in cls.for_seeds(workload, params, scale)
        ]

    @property
    def program_key(self) -> tuple[WorkloadProfile, int, int, int]:
        """The arguments of :func:`build_program`: cells with equal keys
        run the same program (the result-cache key never sees this)."""
        return (
            self.workload,
            self.num_threads,
            self.instructions_per_thread,
            self.seed,
        )

    def canonical_dict(self) -> dict:
        """The reference form of what :meth:`content_hash` digests."""
        return {**_IDENTITY, "spec": _canonical(self)}

    def content_hash(self) -> str:
        """sha256 of ``_encode(self.canonical_dict())``, the cache key."""
        if self._digest is None:
            digest = hashlib.sha256(_payload(self).encode()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return self._digest


_SPEC_KEYS = sorted(f.name for f in dataclasses.fields(RunSpec))


def execute_spec(spec: RunSpec) -> RunMetrics:
    """Run one job in the current process (also the pool worker).

    One cell is one GC epoch.  A finished ``MulticoreSimulator`` is cyclic
    garbage, and once :func:`build_program` reuses its streams a cell
    allocates too little else to trigger the collector: dead simulators
    stacked up at a few MB a cell until a full pass happened by.  So
    automatic collection is paused for the cell (nothing in it dies
    before the end anyway) and the youngest generation — by then exactly
    this cell's objects, not the retained programs — is collected on the
    way out.  A caller that runs with collection disabled keeps it
    disabled, and nothing is collected behind its back.

    A litmus cell runs with the runtime sanitizers on and records the
    outcome its observed loads committed.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        source = spec.workload
        if isinstance(source, WorkloadProfile):
            return RunMetrics.from_result(
                simulate(spec.params, build_program(*spec.program_key))
            )
        program = source.program()
        litmus = isinstance(source, LitmusCase)
        result = simulate(spec.params, program, sanitize=litmus)
        metrics = RunMetrics.from_result(result)
        if litmus:
            metrics.outcome = observed_outcome(program, result.load_values)
        return metrics
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect(0)


def _counted(worker, spec: RunSpec) -> tuple[RunMetrics, int]:
    """``worker(spec)`` and how many programs the process generated for
    it, so that pool workers' generations are counted too."""
    before = program_memo_stats().generated
    metrics = worker(spec)
    return metrics, program_memo_stats().generated - before


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class RunnerStats:
    """Where each requested job's result came from."""

    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    retries: int = 0
    corrupt_discarded: int = 0
    programs_generated: int = 0

    def reset(self) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


class Runner:
    """Executes :class:`RunSpec` jobs with memoization, disk caching and fan-out.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`run_many`; ``1`` executes in-process.
    cache_dir:
        Directory for the persistent result cache; ``None`` disables disk
        caching (the in-process memo is always active).
    retries:
        Extra attempts per job after a worker crash or exception.
    progress:
        Emit a ``\\r``-refreshed progress/ETA line on stderr during batches.
    worker:
        Job-executing callable (module-level, picklable); tests override it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        retries: int = 2,
        progress: bool = False,
        worker=execute_spec,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        self.retries = max(0, int(retries))
        self.progress = progress
        self.stats = RunnerStats()
        self._worker = worker
        self._memo: dict[RunSpec, RunMetrics] = {}

    # -- cache ---------------------------------------------------------

    def clear_memo(self) -> None:
        self._memo.clear()

    def _cache_path(self, spec: RunSpec) -> str:
        # A plain string: joining and opening through pathlib cost a disk
        # hit about as much as parsing the entry.
        digest = spec.content_hash()
        return f"{self.cache_dir}/{digest[:2]}/{digest}.json"

    def _cache_load(self, spec: RunSpec) -> RunMetrics | None:
        """The entry's metrics, or None on a miss.  Keys besides
        ``schema`` and ``metrics`` are ignored: older entries also held
        a copy of the spec."""
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec)
        try:
            with open(path, "rb") as fh:
                payload = json.loads(fh.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._cache_discard(path)
            return None
        try:
            if payload["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']}")
            return RunMetrics.from_dict(payload["metrics"])
        except (KeyError, TypeError, ValueError):
            self._cache_discard(path)
            return None

    def _cache_discard(self, path: str) -> None:
        self.stats.corrupt_discarded += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def _cache_store(self, spec: RunSpec, metrics: RunMetrics) -> None:
        if self.cache_dir is None:
            return
        path = self._cache_path(spec)
        folder = os.path.dirname(path)
        os.makedirs(folder, exist_ok=True)
        # Only what _cache_load reads back: the file name is the spec's
        # identity, so the entry needs no copy of the spec.
        payload = _encode(
            {"schema": CACHE_SCHEMA_VERSION, "metrics": metrics.to_dict()}
        )
        # Atomic publish: a reader never sees a truncated entry, and a
        # killed sweep leaves only complete files to resume from.
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- execution -----------------------------------------------------

    def run(self, spec: RunSpec) -> RunMetrics:
        """One job: memo, then disk cache, then simulate."""
        hit = self._memo.get(spec)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        cached = self._cache_load(spec)
        if cached is not None:
            self.stats.disk_hits += 1
            self._memo[spec] = cached
            return cached
        metrics = self._execute_with_retry(spec)
        self._admit(spec, metrics)
        return metrics

    def _admit(self, spec: RunSpec, metrics: RunMetrics) -> None:
        self.stats.simulated += 1
        self._memo[spec] = metrics
        self._cache_store(spec, metrics)

    def _execute_with_retry(self, spec: RunSpec) -> RunMetrics:
        for attempt in range(self.retries + 1):
            try:
                metrics, generated = _counted(self._worker, spec)
                self.stats.programs_generated += generated
                return metrics
            except Exception as exc:
                if attempt == self.retries:
                    raise RunnerError(
                        f"job {spec.workload.name}/seed={spec.seed} failed"
                        f" after {self.retries + 1} attempts: {exc!r}"
                    ) from exc
                self.stats.retries += 1
        raise AssertionError("unreachable")

    def run_stream(self, specs):
        """The job-source primitive: yield ``(spec, metrics, source)`` for
        each *unique* spec, as results become available.

        ``source`` is ``"memo"``, ``"disk"`` or ``"sim"``.  All cache hits
        are yielded first (the dedup/resume scan), then misses stream in as
        the pool finishes them.  Misses are dispatched grouped by program
        (:attr:`RunSpec.program_key`) — groups in order of first
        appearance, cells in input order within a group, never sorted — so
        the cells of a multi-seed grid that share a program run back to
        back while :func:`build_program` still holds it; a single-seed
        grid keeps exactly its input order.  Closing the generator
        mid-stream (e.g. a service shutting down) abandons the
        not-yet-finished jobs; every yielded result is already admitted to
        the memo and disk cache, so a later identical stream resumes as
        hits.
        """
        misses: list[RunSpec] = []
        seen: set[RunSpec] = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            hit = self._memo.get(spec)
            if hit is not None:
                self.stats.memo_hits += 1
                yield spec, hit, "memo"
                continue
            cached = self._cache_load(spec)
            if cached is not None:
                self.stats.disk_hits += 1
                self._memo[spec] = cached
                yield spec, cached, "disk"
            else:
                misses.append(spec)
        if not misses:
            return
        by_program: dict[tuple, list[RunSpec]] = {}
        for spec in misses:
            by_program.setdefault(spec.program_key, []).append(spec)
        misses = [spec for group in by_program.values() for spec in group]
        if self.jobs == 1 or len(misses) == 1:
            for spec in misses:
                metrics = self._execute_with_retry(spec)
                self._admit(spec, metrics)
                yield spec, metrics, "sim"
        else:
            for spec, metrics in self._run_pool(misses):
                self._admit(spec, metrics)
                yield spec, metrics, "sim"

    def run_many(self, specs, on_result=None) -> list[RunMetrics]:
        """Run a batch of jobs, fanning cache misses across the pool.

        Results come back in input order.  Jobs already present in the
        cache are not re-executed — re-invoking an interrupted sweep
        resumes where it left off.  ``on_result(spec, metrics, source)``
        is invoked once per unique spec as results arrive (the service
        layer streams these as NDJSON progress events).
        """
        specs = list(specs)
        results: dict[RunSpec, RunMetrics] = {}
        progress: _Progress | None = None
        try:
            for spec, metrics, source in self.run_stream(specs):
                results[spec] = metrics
                if on_result is not None:
                    on_result(spec, metrics, source)
                if source == "sim":
                    if progress is None:
                        # Hits all precede sims, so len(results)-1 is the
                        # number of cached cells this batch started with.
                        progress = _Progress(
                            total=len(specs),
                            done=len(results) - 1,
                            enabled=self.progress,
                        )
                        progress.render()
                    progress.tick()
        finally:
            if progress is not None:
                progress.finish()
        return [results[spec] for spec in specs]

    def _run_pool(self, misses):
        """Fan jobs across worker processes; retry crashed jobs.

        A worker that dies (e.g. OOM-killed) breaks the whole pool and
        fails every in-flight future, so the pool is rebuilt and the
        not-yet-finished jobs resubmitted, each with a bounded attempt
        budget.
        """
        ctx = None
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        attempts: dict[RunSpec, int] = {}
        remaining = list(misses)
        while remaining:
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(remaining)), mp_context=ctx
            )
            retry_round: list[RunSpec] = []
            try:
                futures = {
                    executor.submit(_counted, self._worker, spec): spec
                    for spec in remaining
                }
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        metrics, generated = future.result()
                    except Exception as exc:
                        attempts[spec] = attempts.get(spec, 0) + 1
                        if attempts[spec] > self.retries:
                            raise RunnerError(
                                f"job {spec.workload.name}/seed={spec.seed}"
                                f" failed after {attempts[spec]} attempts:"
                                f" {exc!r}"
                            ) from exc
                        self.stats.retries += 1
                        retry_round.append(spec)
                        continue
                    self.stats.programs_generated += generated
                    yield spec, metrics
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            remaining = retry_round

    # -- experiment-level conveniences ---------------------------------

    def prefetch(self, specs) -> None:
        """Populate the cache for a batch (the fan-out entry point)."""
        self.run_many(specs)

    def run_seeds(
        self,
        workload: str | WorkloadProfile,
        params: SystemParams,
        scale: ExperimentScale,
    ) -> list[RunMetrics]:
        return self.run_many(RunSpec.for_seeds(workload, params, scale))

    def normalized_time(
        self,
        workload: str | WorkloadProfile,
        params: SystemParams,
        baseline: SystemParams,
        scale: ExperimentScale,
    ) -> float:
        """Geomean over seeds of cycles(params)/cycles(baseline)."""
        runs = self.run_seeds(workload, params, scale)
        base = self.run_seeds(workload, baseline, scale)
        return geomean([a.cycles / b.cycles for a, b in zip(runs, base)])

    def summary(self) -> str:
        s = self.stats
        where = str(self.cache_dir) if self.cache_dir is not None else "memory"
        return (
            f"{s.simulated} simulated, {s.memo_hits + s.disk_hits} cache"
            f" hit(s) ({s.disk_hits} from disk), {s.retries} retr(y/ies),"
            f" {s.corrupt_discarded} corrupt entr(y/ies) discarded"
            f" [cache: {where}], programs generated {s.programs_generated}"
        )


class _Progress:
    """A single ``\\r``-refreshed ``[done/total] ... eta`` line on stderr."""

    def __init__(self, total: int, done: int, enabled: bool) -> None:
        self.total = total
        self.done = done
        self.initial = done
        self.enabled = enabled and total > 0
        self.start = time.monotonic()
        self._dirty = False

    def tick(self) -> None:
        self.done += 1
        self.render()

    def render(self) -> None:
        if not self.enabled:
            return
        elapsed = time.monotonic() - self.start
        fresh = self.done - self.initial
        pending = self.total - self.done
        eta = elapsed / fresh * pending if fresh else 0.0
        sys.stderr.write(
            f"\r[{self.done}/{self.total}] jobs"
            f" ({self.initial} cached) elapsed {elapsed:5.1f}s"
            f" eta {eta:5.1f}s "
        )
        sys.stderr.flush()
        self._dirty = True

    def finish(self) -> None:
        if self.enabled and self._dirty:
            sys.stderr.write("\n")
            sys.stderr.flush()


# ---------------------------------------------------------------------------
# Default runner (what figure functions use when no Runner is passed)
# ---------------------------------------------------------------------------

_default_runner: Runner | None = None


def get_default_runner() -> Runner:
    """Shared serial, memory-only runner — the old per-process memo."""
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner(jobs=1, cache_dir=None)
    return _default_runner


def reset_default_runner() -> None:
    global _default_runner
    _default_runner = None
