"""Spans around calls into each layer, and the cProfile module fold.

Everything here observes the repo from outside: a span is recorded by the
benchmark around a call into a public function, and the per-module host
time comes from ``cProfile`` wrapped around ``MulticoreSimulator.run()``
with ``tottime``/``ncalls`` folded by source file.  The fold needs no edit
under ``src/``, and its call counts are exact, so two commits diff exactly;
the shares are ratios, so the profiler's slowdown mostly cancels.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro") + "/"

#: The modules the fold reports by name; every other frame (builtins,
#: heapq, the rest of ``repro``) lands in ``other``.
LAYERS = (
    "core.pipeline", "core.lsq", "core.atomic_policy", "core.consistency",
    "core.dyninstr", "core.storeset", "core.recovery",
    "frontend.branch.tage", "memory.cache", "memory.controller",
    "memory.directory", "memory.interconnect", "memory.prefetcher",
    "sim.engine", "sim.multicore", "row", "isa.instructions",
    "common.stats", "obs", "other",
)
_LAYER_SET = frozenset(LAYERS)


def layer_of(filename: str) -> str:
    """The layer a profiled frame's source file belongs to."""
    if not filename.startswith(SRC):
        return "other"
    module = filename[len(SRC):-len(".py")].replace("/", ".")
    package = module.partition(".")[0]
    if package in ("row", "obs"):
        return package
    return module if module in _LAYER_SET else "other"


class Timer:
    """What a ``Trace.span`` block yields: its duration once it has
    ended, and its span id (``None`` when spans are off)."""

    __slots__ = ("seconds", "id")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.id: int | None = None


class Trace:
    """Times calls; when ``enabled`` also keeps a span for each.

    A span is ``{id, name, parent, op, start, end}``.  ``parent`` is the
    enclosing span on the same thread, or :attr:`cause` when the thread has
    none open (the service's pool thread works on behalf of the client's
    submit span).  ``op`` is the id of the timed operation in progress, so
    the spans of one operation share an identifier.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.op: int | None = None
        self.cause: int | None = None
        self.profile = cProfile.Profile()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        """Time the block; ``timer.seconds`` is valid after it."""
        timer = Timer()
        if not self.enabled:
            start = perf_counter()
            try:
                yield timer
            finally:
                timer.seconds = perf_counter() - start
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else self.cause,
            "op": self.op,
        }
        self.spans.append(span)
        stack.append(span["id"])
        timer.id = span["id"]
        span["start"] = perf_counter()
        try:
            yield timer
        finally:
            span["end"] = perf_counter()
            stack.pop()
            timer.seconds = span["end"] - span["start"]

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span: ``(result, seconds)``."""
        with self.span(name) as timer:
            result = fn(*args, **kwargs)
        return result, timer.seconds

    def run(self, sim):
        """``sim.run()`` inside a span, under cProfile when tracing."""
        with self.span("sim.multicore.run") as timer:
            if self.enabled:
                self.profile.enable()
            try:
                result = sim.run()
            finally:
                if self.enabled:
                    self.profile.disable()
        return result, timer.seconds

    def fold(self) -> dict[str, list[float]]:
        """``{layer: [self seconds, calls]}`` over every profiled ``run()``."""
        folded = {layer: [0.0, 0] for layer in LAYERS}
        self.profile.create_stats()
        for (filename, _line, name), row in self.profile.stats.items():
            if (name == "__del__" or filename.endswith("/weakref.py")
                    or "_remove_dead_weakref" in name):
                # Finalizers and weakref callbacks of other threads'
                # objects (the service's sockets) run on whichever thread
                # the interpreter picks: not calls the simulator made, and
                # the only counts that differ between two identical runs.
                continue
            _primitive, calls, tottime = row[:3]
            entry = folded[layer_of(filename)]
            entry[0] += tottime
            entry[1] += calls
        return folded

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus what its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path, workload: str) -> None:
        payload = {
            "workload": workload,
            "self_seconds": self.self_seconds(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
