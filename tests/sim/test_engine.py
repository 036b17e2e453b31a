"""Event-engine tests: ordering, idle-skip, deadlock detection."""

import pytest

from repro.common.params import SystemParams
from repro.memory.interconnect import MeshNetwork
from repro.memory.messages import Message, MsgKind
from repro.sim.engine import DeadlockError, EventEngine


def make_engine(cores=4):
    return EventEngine(MeshNetwork(SystemParams.quick(num_cores=cores)))


class TestScheduling:
    def test_events_run_at_their_cycle(self):
        eng = make_engine()
        fired = []
        eng.schedule(5, lambda: fired.append(5))
        eng.schedule(3, lambda: fired.append(3))
        for _ in range(6):
            eng.run_events()
            eng.now += 1
        assert fired == [3, 5]

    def test_same_cycle_fifo_order(self):
        eng = make_engine()
        fired = []
        for i in range(5):
            eng.schedule(2, lambda i=i: fired.append(i))
        eng.now = 2
        eng.run_events()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self):
        eng = make_engine()
        eng.now = 10
        with pytest.raises(ValueError):
            eng.schedule(5, lambda: None)

    def test_schedule_in_rejects_negative_delay(self):
        # The old behavior clamped to "now", which silently hid
        # latency-arithmetic bugs at call sites and reordered events.
        eng = make_engine()
        eng.now = 10
        with pytest.raises(ValueError, match="negative event delay -5"):
            eng.schedule_in(-5, lambda: None)
        assert eng.next_event_cycle is None  # nothing was enqueued

    def test_schedule_in_zero_delay_is_legal(self):
        eng = make_engine()
        eng.now = 10
        eng.schedule_in(0, lambda: None)
        assert eng.next_event_cycle == 10

    def test_same_cycle_schedule_during_drain_runs_in_that_drain(self):
        # An action scheduled for ``now`` by an event being drained joins
        # the end of the cycle's queue: it runs in the same run_events()
        # call, after every event that was already queued for the cycle.
        eng = make_engine()
        fired = []

        def first():
            fired.append("first")
            eng.schedule(eng.now, lambda: fired.append("spawned"))

        eng.schedule(2, first)
        eng.schedule(2, lambda: fired.append("second"))
        eng.schedule(3, lambda: fired.append("next cycle"))
        eng.now = 2
        assert eng.run_events()
        assert fired == ["first", "second", "spawned"]
        assert eng.next_event_cycle == 3

    def test_run_events_returns_whether_any_ran(self):
        eng = make_engine()
        assert not eng.run_events()
        eng.schedule(0, lambda: None)
        assert eng.run_events()


class TestAdvance:
    def test_busy_advance_is_one_cycle(self):
        eng = make_engine()
        eng.schedule(100, lambda: None)
        eng.advance(idle=False)
        assert eng.now == 1

    def test_idle_advance_jumps_to_next_event(self):
        eng = make_engine()
        eng.schedule(100, lambda: None)
        eng.advance(idle=True)
        assert eng.now == 100

    def test_idle_advance_moves_at_least_one_cycle(self):
        eng = make_engine()
        eng.schedule(0, lambda: None)  # already due
        eng.advance(idle=True)
        assert eng.now == 1

    def test_idle_with_empty_heap_is_deadlock(self):
        eng = make_engine()
        with pytest.raises(DeadlockError):
            eng.advance(idle=True)

    def test_idle_jump_clamped_to_limit(self):
        # An idle jump past the caller's cycle budget stops at the budget
        # boundary (limit + 1) instead of fast-forwarding to the event.
        eng = make_engine()
        eng.schedule(1000, lambda: None)
        eng.advance(idle=True, limit=10)
        assert eng.now == 11

    def test_idle_jump_within_limit_unclamped(self):
        eng = make_engine()
        eng.schedule(8, lambda: None)
        eng.advance(idle=True, limit=10)
        assert eng.now == 8

    def test_wake_bound_caps_idle_jump(self):
        eng = make_engine()
        eng.schedule(100, lambda: None)
        eng.advance(idle=True, wake_bound=40)
        assert eng.now == 40


class TestMessaging:
    def test_send_delivers_to_registered_endpoint(self):
        eng = make_engine()
        got = []
        eng.register_core_endpoint(1, got.append)
        msg = Message(MsgKind.DATA, line=5, src=0, dst=1)
        eng.send(msg, to_directory=False)
        while eng.next_event_cycle is not None:
            eng.advance(idle=True)
            eng.run_events()
        assert got == [msg]

    def test_send_routes_directory_separately(self):
        eng = make_engine()
        core_got, dir_got = [], []
        eng.register_core_endpoint(1, core_got.append)
        eng.register_dir_endpoint(1, dir_got.append)
        eng.send(Message(MsgKind.GETS, 5, src=0, dst=1), to_directory=True)
        while eng.next_event_cycle is not None:
            eng.advance(idle=True)
            eng.run_events()
        assert not core_got
        assert len(dir_got) == 1

    def test_delivery_is_strictly_future(self):
        eng = make_engine()
        got = []
        eng.register_core_endpoint(0, lambda m: got.append(eng.now))
        eng.send(Message(MsgKind.DATA, 5, src=0, dst=0), to_directory=False)
        eng.run_events()
        assert not got  # nothing delivered at cycle 0


class TestUnknownEndpoint:
    def test_unregistered_core_endpoint(self):
        from repro.sanitize.errors import UnknownEndpointError

        eng = make_engine()
        msg = Message(MsgKind.DATA, 5, src=0, dst=2)
        with pytest.raises(UnknownEndpointError) as excinfo:
            eng.send(msg, to_directory=False)
        err = excinfo.value
        assert err.node == 2
        assert not err.to_directory
        assert "core endpoint 2" in str(err)

    def test_unregistered_dir_endpoint(self):
        from repro.sanitize.errors import UnknownEndpointError

        eng = make_engine()
        # A core endpoint at node 2 does not satisfy directory routing.
        eng.register_core_endpoint(2, lambda m: None)
        with pytest.raises(UnknownEndpointError) as excinfo:
            eng.send(Message(MsgKind.GETS, 5, src=0, dst=2), to_directory=True)
        assert excinfo.value.to_directory
        assert "directory endpoint 2" in str(excinfo.value)

    def test_still_catchable_as_keyerror(self):
        eng = make_engine()
        with pytest.raises(KeyError):
            eng.send(Message(MsgKind.DATA, 5, src=0, dst=1), to_directory=False)
