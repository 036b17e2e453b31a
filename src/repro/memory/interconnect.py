"""Tiled-CMP interconnect models with per-link bandwidth.

Stands in for GARNET (Sec. V).  The model is latency + bandwidth: a message
crossing ``h`` hops pays ``h * (link + router)`` cycles, and each directed
link carries at most ``link_bandwidth`` messages per cycle — additional
messages slip to the next free cycle, so bursts of coherence traffic to a
hot directory bank serialize, which is exactly the behaviour the paper's
contended workloads stress.

Three topologies (``SystemParams.topology``):

* ``MESH``     — 2-D mesh with XY routing (the paper's configuration).
* ``RING``     — bidirectional ring, shortest-direction routing.
* ``CROSSBAR`` — ideal single-hop all-to-all; contention only at the
  destination port.
"""

from __future__ import annotations

import math

from repro.common.params import NetworkTopology, SystemParams
from repro.common.stats import StatGroup


class MeshNetwork:
    """Tiled CMP network: node ``i`` hosts core ``i`` and L3/dir bank ``i``.

    (The name predates the ring/crossbar options; ``Network`` is an alias.)
    """

    def __init__(self, params: SystemParams, stats: StatGroup | None = None) -> None:
        self.params = params
        self.topology = params.topology
        self.num_nodes = params.num_cores
        self.side = max(1, math.ceil(math.sqrt(self.num_nodes)))
        self.hop_latency = params.link_cycles + params.router_cycles
        self.bandwidth = max(1, params.link_bandwidth)
        self.model_contention = params.model_link_contention
        self.stats = stats if stats is not None else StatGroup("network")
        # One claim table per directed link: cycle -> messages already
        # claiming the link in that cycle.  ``_route_claims`` memoizes,
        # per (src, dst), the tables of the route's links in hop order.
        self._link_claims: dict[tuple[int, int], dict[int, int]] = {}
        self._route_claims: dict[tuple[int, int], list[dict[int, int]]] = {}
        self._prune_before = 0
        # Topology is static, so routes / hop counts / line->bank homes are
        # pure functions of their arguments: memoized on first use (the
        # cached route lists are shared — callers must not mutate them).
        self._route_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._hops_cache: dict[tuple[int, int], int] = {}
        self._bank_table: dict[int, int] = {}
        # Stat objects are cached lazily so creation-on-first-use (and the
        # resulting snapshot contents/order) match the unmemoized model.
        self._stat_messages = None
        self._stat_latency = None
        self._stat_stalls = None

    def coords(self, node: int) -> tuple[int, int]:
        return node % self.side, node // self.side

    def route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The route as a list of directed (node, node) links (memoized)."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self._route_cache[key] = self._compute_route(src, dst)
        return cached

    def _compute_route(self, src: int, dst: int) -> list[tuple[int, int]]:
        if src == dst:
            return []
        if self.topology is NetworkTopology.CROSSBAR:
            return [(src, dst)]
        if self.topology is NetworkTopology.RING:
            return self._ring_route(src, dst)
        return self._mesh_route(src, dst)

    def _mesh_route(self, src: int, dst: int) -> list[tuple[int, int]]:
        links: list[tuple[int, int]] = []
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        node = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = y * self.side + x
            links.append((node, nxt))
            node = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = y * self.side + x
            links.append((node, nxt))
            node = nxt
        return links

    def _ring_route(self, src: int, dst: int) -> list[tuple[int, int]]:
        n = self.num_nodes
        forward = (dst - src) % n
        step = 1 if forward <= n - forward else -1
        links: list[tuple[int, int]] = []
        node = src
        while node != dst:
            nxt = (node + step) % n
            links.append((node, nxt))
            node = nxt
        return links

    def hops(self, src: int, dst: int) -> int:
        key = (src, dst)
        cached = self._hops_cache.get(key)
        if cached is None:
            cached = self._hops_cache[key] = self._compute_hops(src, dst)
        return cached

    def _compute_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        if self.topology is NetworkTopology.CROSSBAR:
            return 1
        if self.topology is NetworkTopology.RING:
            n = self.num_nodes
            forward = (dst - src) % n
            return min(forward, n - forward)
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def delivery_cycle(self, src: int, dst: int, now: int) -> int:
        """Cycle at which a message sent at ``now`` arrives at ``dst``."""
        messages = self._stat_messages
        if messages is None:
            messages = self._stat_messages = self.stats.counter("messages")
        messages.add()
        if src == dst:
            # Same tile: one router traversal.
            return now + self.params.router_cycles
        latency = self._stat_latency
        if latency is None:
            latency = self._stat_latency = self.stats.accumulator("latency")
        if not self.model_contention:
            arrival = now + self.hops(src, dst) * self.hop_latency
            latency.add(arrival - now)
            return arrival
        tables = self._route_claims.get((src, dst))
        if tables is None:
            tables = self._route_claims[(src, dst)] = [
                self._link_claims.setdefault(link, {})
                for link in self.route(src, dst)
            ]
        t = now
        bandwidth = self.bandwidth
        hop_latency = self.hop_latency
        for claims in tables:
            # Claim the earliest cycle >= t with spare bandwidth on the link.
            depart = t
            taken = claims.get(depart, 0)
            while taken >= bandwidth:
                depart += 1
                taken = claims.get(depart, 0)
                stalls = self._stat_stalls
                if stalls is None:
                    stalls = self._stat_stalls = self.stats.counter(
                        "link_stall_cycles"
                    )
                stalls.add()
            claims[depart] = taken + 1
            t = depart + hop_latency
        latency.add(t - now)
        return t

    def prune(self, before_cycle: int) -> None:
        """Drop link-claim records older than ``before_cycle`` (memory bound)."""
        if before_cycle <= self._prune_before:
            return
        # In place: the memoized route lists hold these same tables.
        for claims in self._link_claims.values():
            for cycle in [c for c in claims if c < before_cycle]:
                del claims[cycle]
        self._prune_before = before_cycle

    def bank_of(self, line: int) -> int:
        """Home directory/L3 bank of a cacheline (static interleaving,
        served from a lazily filled line->bank table)."""
        bank = self._bank_table.get(line)
        if bank is None:
            bank = self._bank_table[line] = line % self.num_nodes
        return bank


# Alias reflecting the multi-topology support.
Network = MeshNetwork
