"""Property-based tests for the mesh interconnect."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import NetworkTopology, SystemParams
from repro.memory.interconnect import MeshNetwork


def mesh(cores):
    return MeshNetwork(SystemParams.quick(num_cores=cores))


cores_st = st.sampled_from([1, 2, 4, 8, 9, 16])


class TestRouting:
    @given(cores_st, st.data())
    @settings(max_examples=100, deadline=None)
    def test_route_reaches_destination(self, cores, data):
        net = mesh(cores)
        src = data.draw(st.integers(0, cores - 1))
        dst = data.draw(st.integers(0, cores - 1))
        route = net.route(src, dst)
        node = src
        for a, b in route:
            assert a == node
            node = b
        assert node == dst

    @given(cores_st, st.data())
    @settings(max_examples=100, deadline=None)
    def test_hops_symmetric(self, cores, data):
        net = mesh(cores)
        a = data.draw(st.integers(0, cores - 1))
        b = data.draw(st.integers(0, cores - 1))
        assert net.hops(a, b) == net.hops(b, a)

    @given(cores_st, st.data())
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, cores, data):
        net = mesh(cores)
        a = data.draw(st.integers(0, cores - 1))
        b = data.draw(st.integers(0, cores - 1))
        c = data.draw(st.integers(0, cores - 1))
        assert net.hops(a, c) <= net.hops(a, b) + net.hops(b, c)


class TestDelivery:
    @given(cores_st, st.data(), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_delivery_never_in_past(self, cores, data, now):
        net = mesh(cores)
        src = data.draw(st.integers(0, cores - 1))
        dst = data.draw(st.integers(0, cores - 1))
        assert net.delivery_cycle(src, dst, now) >= now

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_under_load(self, data):
        """Repeated sends on the same link never get faster."""
        net = mesh(4)
        src = data.draw(st.integers(0, 3))
        dst = data.draw(st.integers(0, 3))
        arrivals = [net.delivery_cycle(src, dst, 0) for _ in range(10)]
        assert arrivals == sorted(arrivals)

    @given(cores_st)
    @settings(max_examples=20, deadline=None)
    def test_lines_map_to_valid_banks(self, cores):
        net = mesh(cores)
        for line in range(0, 5000, 97):
            assert 0 <= net.bank_of(line) < cores


class TupleClaims:
    """The former link-contention model, kept only as an oracle: one
    ``defaultdict`` keyed by ``(link src, link dst, cycle)``, pruned by
    rebuilding it.  Routes come from the network under test."""

    def __init__(self, net: MeshNetwork) -> None:
        self.net = net
        self.claims: dict[tuple[int, int, int], int] = defaultdict(int)
        self.stalls = 0
        self.prune_before = 0

    def delivery_cycle(self, src: int, dst: int, now: int) -> int:
        if src == dst:
            return now + self.net.params.router_cycles
        t = now
        for a, b in self.net.route(src, dst):
            depart = t
            while self.claims[(a, b, depart)] >= self.net.bandwidth:
                depart += 1
                self.stalls += 1
            self.claims[(a, b, depart)] += 1
            t = depart + self.net.hop_latency
        return t

    def prune(self, before_cycle: int) -> None:
        if before_cycle <= self.prune_before:
            return
        self.claims = defaultdict(int, {
            key: count for key, count in self.claims.items()
            if key[2] >= before_cycle
        })
        self.prune_before = before_cycle


class TestLinkClaimsMatchTupleModel:
    """Per-link claim tables reproduce the 3-tuple model exactly: the
    same delivery cycles and the same ``link_stall_cycles``, with prunes
    at random points in between."""

    @given(
        st.sampled_from(list(NetworkTopology)),
        st.sampled_from([4, 6, 9]),
        st.integers(1, 2),
        st.lists(
            st.tuples(
                st.sampled_from([0, 0, 0, 1, 2]),  # cycles since the last call
                st.integers(0, 8),  # src (mod cores)
                st.integers(0, 8),  # dst (mod cores)
                st.none() | st.integers(-6, 12),  # prune this far back
            ),
            min_size=30, max_size=150,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_deliveries_and_stalls_match(self, topology, cores, bandwidth, calls):
        net = MeshNetwork(SystemParams.quick(
            num_cores=cores, topology=topology, link_bandwidth=bandwidth))
        oracle = TupleClaims(net)
        now = 0
        for gap, src, dst, back in calls:
            now += gap
            if back is not None:
                net.prune(now - back)
                oracle.prune(now - back)
            src, dst = src % cores, dst % cores
            assert net.delivery_cycle(src, dst, now) == oracle.delivery_cycle(
                src, dst, now)
        assert net.stats.counter("link_stall_cycles").value == oracle.stalls
