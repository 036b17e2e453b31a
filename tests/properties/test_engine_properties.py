"""The calendar event queue fires events in exactly the heap engine's order.

``HeapEngine`` below is the engine's former queue — a ``(cycle,
tiebreak, action)`` heap — kept only as this test's oracle.  Random
schedule programs run on both; every firing (event id and cycle), every
``run_events`` answer, every clock value after ``advance`` and every
deadlock must agree.  The programs schedule at ``now`` and at later
cycles from inside a drain, send messages through the mesh, and drive
``advance(idle, wake_bound, limit)`` with random arguments.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import SystemParams
from repro.memory.interconnect import MeshNetwork
from repro.memory.messages import Message, MsgKind
from repro.sim.engine import DeadlockError, EventEngine

NODES = 4
FIRE_BUDGET = 300


class HeapEngine(EventEngine):
    """The old heap queue: a global tiebreak keeps same-cycle FIFO."""

    def __init__(self, network: MeshNetwork) -> None:
        super().__init__(network)
        self._heap: list = []
        self._tiebreak = itertools.count()

    def schedule(self, cycle, action) -> None:
        if cycle < self.now:
            raise ValueError(f"cannot schedule at {cycle}, now is {self.now}")
        heapq.heappush(self._heap, (cycle, next(self._tiebreak), action))

    def send(self, msg, to_directory) -> None:
        arrival = self.network.delivery_cycle(msg.src, msg.dst, self.now)
        registry = self._dir_endpoints if to_directory else self._endpoints
        handler = registry[msg.dst]
        self.schedule(max(arrival, self.now + 1), lambda: handler(msg))

    @property
    def next_event_cycle(self):
        return self._heap[0][0] if self._heap else None

    def run_events(self) -> bool:
        heap = self._heap
        if not heap or heap[0][0] > self.now:
            return False
        while heap and heap[0][0] <= self.now:
            heapq.heappop(heap)[2]()
        return True


# An event's spawns: (kind, delay or destination node, child event id).
spawn = st.tuples(
    st.sampled_from(["schedule", "schedule_in", "send"]),
    st.integers(0, 4),
    st.integers(0, 15),
)
programs = st.fixed_dictionaries({
    "initial": st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 15)),
        min_size=1, max_size=12,
    ),
    "spawns": st.lists(
        st.lists(spawn, max_size=3), min_size=16, max_size=16
    ),
    "steps": st.lists(
        st.tuples(
            st.booleans(),  # idle
            st.none() | st.integers(-2, 20),  # wake_bound - now
            st.none() | st.integers(0, 20),  # limit - now
        ),
        min_size=1, max_size=60,
    ),
})


def execute(engine: EventEngine, program: dict) -> list:
    """Run one schedule program; the log is everything observable."""
    log: list = []
    fired = itertools.count()

    def event(ident: int) -> None:
        log.append(("fire", ident, engine.now))
        if next(fired) >= FIRE_BUDGET:
            return  # bound same-cycle spawn chains
        for kind, arg, child in program["spawns"][ident]:
            if kind == "schedule":
                engine.schedule(engine.now + arg, lambda c=child: event(c))
            elif kind == "schedule_in":
                engine.schedule_in(arg, lambda c=child: event(c))
            else:
                msg = Message(MsgKind.DATA, child, src=ident % NODES, dst=arg % NODES)
                engine.send(msg, to_directory=False)

    for node in range(NODES):
        engine.register_core_endpoint(node, lambda msg: event(msg.line))
    for cycle, ident in program["initial"]:
        engine.schedule(cycle, lambda i=ident: event(i))
    for idle, wake, limit in program["steps"]:
        log.append(("ran", engine.run_events(), engine.now))
        now = engine.now
        try:
            engine.advance(
                idle,
                wake_bound=None if wake is None else now + wake,
                limit=None if limit is None else now + limit,
            )
        except DeadlockError:
            log.append(("deadlock", engine.now))
            break
        log.append(("now", engine.now, engine.next_event_cycle))
    return log


def network() -> MeshNetwork:
    return MeshNetwork(SystemParams.quick(num_cores=NODES, link_bandwidth=1))


class TestCalendarMatchesHeap:
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_same_firing_order(self, program):
        expected = execute(HeapEngine(network()), program)
        assert execute(EventEngine(network()), program) == expected
