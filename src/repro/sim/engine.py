"""Discrete-event spine of the simulator.

Everything with non-unit latency (coherence messages, directory lookups,
memory fetches, functional-unit completions) is an event in a single
global calendar queue: one FIFO bucket of actions per pending cycle plus
a min-heap of the distinct pending cycles, so scheduling into a cycle
that already has events is a list append and the heap only orders
cycles.  The multicore harness is a pure event pump over this queue:
it pumps only runnable cores and jumps the clock straight to the next
event or live core wake whenever nothing is runnable — clamped to the
caller's cycle budget — which is what makes a pure-Python timing model
usable at the paper's experiment scale.  An every-core-every-cycle
reference scheduler sits behind ``quiesce=False`` for differential tests.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.memory.interconnect import MeshNetwork
from repro.memory.messages import Message
from repro.sanitize.errors import UnknownEndpointError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer


class DeadlockError(RuntimeError):
    """Raised when no core can progress and no event is pending."""


class EventEngine:
    """Global clock + calendar event queue + message fabric.

    Events due in the same cycle run in the order they were scheduled
    (FIFO within the cycle's bucket); an action scheduled for the cycle
    being drained joins the end of that bucket and runs in the same
    :meth:`run_events` call.

    ``tracer`` (optional) observes every routed message: because mesh
    delivery is deterministic, both the send and the delivery cycle are
    known at :meth:`send` time, so tracing adds no events of its own to
    the queue — it is timing-transparent by construction.
    """

    def __init__(
        self, network: MeshNetwork, tracer: "Tracer | None" = None
    ) -> None:
        self.network = network
        self.tracer = tracer
        self.now = 0
        # cycle -> actions due then, in scheduling order; ``_cycles`` is a
        # min-heap holding each key of ``_buckets`` exactly once.
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        self._cycles: list[int] = []
        self._endpoints: dict[int, Callable[[Message], None]] = {}
        self._dir_endpoints: dict[int, Callable[[Message], None]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_core_endpoint(
        self, node: int, handler: Callable[[Message], None]
    ) -> None:
        self._endpoints[node] = handler

    def register_dir_endpoint(
        self, node: int, handler: Callable[[Message], None]
    ) -> None:
        self._dir_endpoints[node] = handler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, cycle: int, action: Callable[[], None]) -> None:
        if cycle < self.now:
            raise ValueError(f"cannot schedule at {cycle}, now is {self.now}")
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [action]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(action)

    def schedule_in(self, delay: int, action: Callable[[], None]) -> None:
        # A negative delay is always a latency-arithmetic bug at the call
        # site; clamping it to "now" (as this method once did) hides the
        # defect and silently reorders events.  Fail loudly instead.
        if delay < 0:
            raise ValueError(
                f"negative event delay {delay} at cycle {self.now} — "
                f"latency arithmetic at the call site went negative"
            )
        self.schedule(self.now + delay, action)

    def send(self, msg: Message, to_directory: bool) -> None:
        """Route a message through the mesh and deliver it as an event."""
        now = self.now
        arrival = self.network.delivery_cycle(msg.src, msg.dst, now)
        registry = self._dir_endpoints if to_directory else self._endpoints
        handler = registry.get(msg.dst)
        if handler is None:
            raise UnknownEndpointError(msg.dst, to_directory=to_directory, msg=msg)
        # Deliver strictly in the future so a handler never runs mid-cycle
        # for the component that sent it.
        deliver = arrival if arrival > now else now + 1
        if self.tracer is not None:
            self.tracer.coh(now, deliver, msg, to_directory)
        self.schedule(deliver, partial(handler, msg))

    # ------------------------------------------------------------------
    # Clock control
    # ------------------------------------------------------------------

    @property
    def next_event_cycle(self) -> int | None:
        return self._cycles[0] if self._cycles else None

    def run_events(self) -> bool:
        """Run every event due at the current cycle; True if any ran."""
        # Hot loop: the container identities are stable (schedule() appends
        # to the same objects), so locals are safe across action() re-entry.
        cycles = self._cycles
        now = self.now
        if not cycles or cycles[0] > now:
            return False
        buckets = self._buckets
        pop = heapq.heappop
        while cycles and cycles[0] <= now:
            cycle = cycles[0]
            # A list iterator re-reads the length each step, so actions
            # appended to this bucket while it drains run in this loop.
            for action in buckets[cycle]:
                action()
            pop(cycles)
            del buckets[cycle]
        return True

    def advance(
        self,
        idle: bool,
        wake_bound: int | None = None,
        limit: int | None = None,
    ) -> None:
        """Move the clock forward one cycle, or jump to the next event.

        ``idle`` means no core did (or can do) work this cycle: then nothing
        changes until the next scheduled event, so the clock jumps straight
        to it.  ``wake_bound`` is the earliest scheduled core wake (see
        :meth:`repro.core.pipeline.Core.next_wake_cycle`): the jump never
        overshoots a sleeping core's scheduled resume cycle, so per-core
        fast-forward can skip idle stretches without missing a wake.  If
        idle with an empty queue and no pending wake, the system is
        deadlocked.

        ``limit`` is the caller's cycle budget: an idle jump is clamped to
        ``limit + 1`` so a run that exhausts its budget stops *at* the
        budget boundary instead of fast-forwarding arbitrarily far past it
        (the harness checks ``now > max_cycles`` only after the jump).
        """
        if not idle:
            self.now += 1
            return
        nxt = self.next_event_cycle
        if wake_bound is not None and (nxt is None or wake_bound < nxt):
            nxt = wake_bound
        if nxt is None:
            raise DeadlockError(f"no pending events at cycle {self.now}")
        if limit is not None and nxt > limit:
            nxt = limit + 1
        self.now = max(nxt, self.now + 1)
