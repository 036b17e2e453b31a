"""Tracer protocol, the null tracer, and the ring-buffered EventTrace.

Zero-cost-when-disabled contract
--------------------------------
Simulator components hold ``tracer: Tracer | None`` and guard every
emission with ``if tracer is not None``: with tracing off the hot paths pay
one attribute load and one branch per hook point, nothing else (measured
<2% wall-clock, see ``docs/observability.md``).  :class:`NullTracer` exists for callers that
want an always-valid object instead of ``None`` — it swallows every event.

Timing transparency
-------------------
A tracer only *observes*: it never schedules events, mutates simulator
state, or influences any decision, so a traced run and an untraced run of
the same :class:`~repro.analysis.parallel.RunSpec` produce bit-identical
:class:`~repro.analysis.runner.RunMetrics` (asserted by
``tests/obs/test_trace_identity.py``).  Trace presence therefore never
changes cached metric identity — the same discipline as the PR-1 runtime
sanitizers.  The contract is also *statically* enforced: the
``observer-purity`` effect rule (``repro.sanitize.effect_lint``) checks
every ``if tracer is not None`` body against the inferred effect
summaries, and the ``obs/`` package is deliberately outside the
simulation-state surface, so hook implementations here may mutate their
own buffers/counters freely while anything touching core/memory/sim
state is flagged.

Bounded memory
--------------
:class:`EventTrace` records into a ``deque(maxlen=capacity)`` ring buffer:
long runs keep the most recent ``capacity`` events and count what fell out
(``dropped``).  A :class:`TraceConfig` filters categories and can sample
the high-volume ``instr``/``coh`` streams to bound overhead further.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.obs.events import (
    CATEGORIES,
    CATEGORY_ATOMIC,
    CATEGORY_COH,
    CATEGORY_DIR,
    CATEGORY_INSTR,
    AtomicDecisionEvent,
    AtomicSpanEvent,
    CohEvent,
    DirTransitionEvent,
    InstrEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.common.stats import StatGroup
    from repro.memory.messages import Message


@runtime_checkable
class Tracer(Protocol):
    """What the simulator's hook points call.

    Implementations must be pure observers: recording an event may not
    change any simulator-visible state or timing.
    """

    def instr(
        self, cycle: int, core: int, uid: int, seq: int, pc: int,
        cls: str, phase: str,
    ) -> None: ...

    def atomic_decision(
        self, cycle: int, core: int, pc: int, eager: bool,
        counter: int, threshold: int,
    ) -> None: ...

    def atomic_span(
        self, cycle: int, core: int, pc: int, line: int, dispatch: int,
        issue: int, lock: int, eager: bool, predicted_contended: bool,
        contended: bool, contended_truth: bool,
    ) -> None: ...

    def coh(
        self, cycle: int, deliver: int, msg: "Message", to_directory: bool
    ) -> None: ...

    def dir_transition(
        self, cycle: int, node: int, line: int, old: str, new: str
    ) -> None: ...


class NullTracer:
    """A tracer that records nothing (every hook is a no-op)."""

    __slots__ = ()

    def instr(self, cycle, core, uid, seq, pc, cls, phase) -> None:
        pass

    def atomic_decision(self, cycle, core, pc, eager, counter, threshold) -> None:
        pass

    def atomic_span(
        self, cycle, core, pc, line, dispatch, issue, lock,
        eager, predicted_contended, contended, contended_truth,
    ) -> None:
        pass

    def coh(self, cycle, deliver, msg, to_directory) -> None:
        pass

    def dir_transition(self, cycle, node, line, old, new) -> None:
        pass


NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class TraceConfig:
    """Filtering and sampling knobs that bound tracing overhead.

    events:
        Categories to record (subset of :data:`~repro.obs.events.CATEGORIES`).
    capacity:
        Ring-buffer size; the oldest events are evicted beyond it.
    sample_every:
        Record every Nth event of the high-volume ``instr`` and ``coh``
        streams (1 = record all).  ``atomic`` and ``dir`` events are never
        sampled — they are rare and each one matters for the Fig. 6/11/12
        style analyses.
    """

    events: frozenset[str] = frozenset(CATEGORIES)
    capacity: int = 1 << 18
    sample_every: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.events) - set(CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown trace event categories {sorted(unknown)}; "
                f"valid categories are {', '.join(CATEGORIES)}"
            )
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )


@dataclass
class TraceCounts:
    """How many events each category emitted (pre-ring-buffer)."""

    instr: int = 0
    atomic: int = 0
    coh: int = 0
    dir: int = 0

    def total(self) -> int:
        return self.instr + self.atomic + self.coh + self.dir

    def as_dict(self) -> dict[str, int]:
        return {
            CATEGORY_INSTR: self.instr,
            CATEGORY_ATOMIC: self.atomic,
            CATEGORY_COH: self.coh,
            CATEGORY_DIR: self.dir,
        }


class EventTrace:
    """Structured, ring-buffered event trace (the real Tracer)."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.events: deque = deque(maxlen=self.config.capacity)
        self.counts = TraceCounts()
        # Pre-resolved category flags keep the hook-side cost at one
        # attribute load + branch per filtered-out event.
        ev = self.config.events
        self._want_instr = CATEGORY_INSTR in ev
        self._want_atomic = CATEGORY_ATOMIC in ev
        self._want_coh = CATEGORY_COH in ev
        self._want_dir = CATEGORY_DIR in ev
        self._sample = self.config.sample_every
        self._instr_tick = 0
        self._coh_tick = 0

    # -- Tracer protocol ----------------------------------------------

    def instr(self, cycle, core, uid, seq, pc, cls, phase) -> None:
        if not self._want_instr:
            return
        self._instr_tick += 1
        if self._instr_tick % self._sample:
            return
        self.counts.instr += 1
        self.events.append(InstrEvent(cycle, core, uid, seq, pc, cls, phase))

    def atomic_decision(self, cycle, core, pc, eager, counter, threshold) -> None:
        if not self._want_atomic:
            return
        self.counts.atomic += 1
        self.events.append(
            AtomicDecisionEvent(cycle, core, pc, eager, counter, threshold)
        )

    def atomic_span(
        self, cycle, core, pc, line, dispatch, issue, lock,
        eager, predicted_contended, contended, contended_truth,
    ) -> None:
        if not self._want_atomic:
            return
        self.counts.atomic += 1
        self.events.append(
            AtomicSpanEvent(
                cycle, core, pc, line, dispatch, issue, lock,
                eager, predicted_contended, contended, contended_truth,
            )
        )

    def coh(self, cycle, deliver, msg, to_directory) -> None:
        if not self._want_coh:
            return
        self._coh_tick += 1
        if self._coh_tick % self._sample:
            return
        self.counts.coh += 1
        self.events.append(
            CohEvent(
                cycle, deliver, msg.kind.value, msg.src, msg.dst,
                msg.line, msg.uid, to_directory,
            )
        )

    def dir_transition(self, cycle, node, line, old, new) -> None:
        if not self._want_dir:
            return
        self.counts.dir += 1
        self.events.append(DirTransitionEvent(cycle, node, line, old, new))

    # -- Inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable:
        return iter(self.events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (recorded minus retained)."""
        return self.counts.total() - len(self.events)

    def by_category(self, category: str) -> list:
        return [e for e in self.events if e.category == category]

    def summary(self) -> str:
        parts = ", ".join(
            f"{name}={count}" for name, count in self.counts.as_dict().items()
        )
        return (
            f"{len(self.events)} event(s) retained"
            f" ({self.dropped} dropped) [{parts}]"
        )

    # -- Derived views -------------------------------------------------

    def stat_group(self, name: str = "trace") -> "StatGroup":
        """Per-event-type latency histograms (see :mod:`repro.obs.metrics`)."""
        from repro.obs.metrics import trace_stat_group

        return trace_stat_group(self, name)

    def to_chrome(self) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto JSON payload."""
        from repro.obs.perfetto import to_chrome_trace

        return to_chrome_trace(self)


def resolve_tracer(trace: "bool | TraceConfig | Tracer | None") -> "Tracer | None":
    """Normalize the ``trace=`` knob of ``simulate(...)``.

    ``False``/``None`` → ``None`` (tracing fully off — the zero-cost path);
    ``True`` → a default :class:`EventTrace`; a :class:`TraceConfig` → an
    :class:`EventTrace` with that config; any :class:`Tracer` instance is
    returned as-is.
    """
    if trace is None or trace is False:
        return None
    if trace is True:
        return EventTrace()
    if isinstance(trace, TraceConfig):
        return EventTrace(trace)
    if isinstance(trace, Tracer):
        return trace
    raise TypeError(
        f"trace must be a bool, TraceConfig or Tracer, got {trace!r}"
    )
