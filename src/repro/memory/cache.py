"""Set-associative cache arrays with pluggable replacement and line pinning.

These arrays track *presence* (which lines live in L1D/L2/L3 and where).
Coherence permissions live in the per-core controller; architectural values
live in the global memory image.  Pinning supports cache locking: a line
locked by the Atomic Queue may never be chosen as a victim (Sec. II-B —
"stall ... a potential eviction of this cacheline from the L1D").

Replacement policies (``CacheParams.replacement``):

* ``LRU``    — classic least-recently-used (the paper's configuration).
* ``FIFO``   — insertion order, no touch refresh.
* ``RANDOM`` — deterministic pseudo-random victim (xorshift seeded from a
  CRC of the cache name, so every process draws the same sequence),
  useful for replacement-sensitivity studies.
* ``SRRIP``  — static re-reference interval prediction (Jaleel et al.,
  ISCA 2010) with 2-bit RRPVs.
"""

from __future__ import annotations

import zlib

from repro.common.params import CacheParams, ReplacementPolicy

_SRRIP_MAX = 3  # 2-bit RRPV
_SRRIP_INSERT = 2  # long re-reference prediction on insert


class SetAssocCache:
    """A set-associative cache keyed by cacheline index."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.policy = params.replacement
        # Per-set mapping line -> RRPV (SRRIP; 0 otherwise).  A set's
        # iteration order is its recency order: insertion order, and for
        # LRU a hit re-inserts the line, so the LRU/FIFO victim is the
        # first unpinned line of the set.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._pinned: set[int] = set()
        self._rng_state = 0x9E3779B9 ^ zlib.crc32(name.encode()) or 1

    # ------------------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def touch(self, line: int) -> bool:
        """Record a hit (refresh recency); returns False if absent."""
        s = self._sets[line % self.num_sets]
        if line not in s:
            return False
        if self.policy is ReplacementPolicy.LRU:
            del s[line]
            s[line] = 0  # move to the most-recently-used end
        elif self.policy is ReplacementPolicy.SRRIP:
            s[line] = 0  # near-immediate re-reference
        # FIFO and RANDOM ignore hits.
        return True

    def pin(self, line: int) -> None:
        self._pinned.add(line)

    def unpin(self, line: int) -> None:
        self._pinned.discard(line)

    def is_pinned(self, line: int) -> bool:
        return line in self._pinned

    def insert(self, line: int) -> int | None:
        """Insert a line, returning the evicted victim line (or None).

        Raises ``RuntimeError`` if every way of the target set is pinned and
        the set is full: callers must check :meth:`can_insert` first when the
        line being inserted could conflict with locked lines.
        """
        s = self._sets[line % self.num_sets]
        if line in s:
            self.touch(line)
            return None
        victim = None
        if len(s) >= self.ways:
            victim = self._pick_victim(s)
            if victim is None:
                raise RuntimeError(
                    f"{self.name}: all ways pinned in set {line % self.num_sets}"
                )
            del s[victim]
        s[line] = _SRRIP_INSERT if self.policy is ReplacementPolicy.SRRIP else 0
        return victim

    def can_insert(self, line: int) -> bool:
        """True if an insert would succeed (a non-pinned victim exists)."""
        s = self._sets[line % self.num_sets]
        if line in s or len(s) < self.ways:
            return True
        return any(candidate not in self._pinned for candidate in s)

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _pick_victim(self, s: dict[int, int]) -> int | None:
        pinned = self._pinned
        policy = self.policy
        if policy is ReplacementPolicy.LRU or policy is ReplacementPolicy.FIFO:
            # Set order is recency order: the oldest unpinned line.
            for line in s:
                if line not in pinned:
                    return line
            return None
        candidates = [line for line in s if line not in pinned]
        if not candidates:
            return None
        if policy is ReplacementPolicy.RANDOM:
            return candidates[self._next_random() % len(candidates)]
        return self._srrip_victim(s, candidates)

    def _srrip_victim(self, s: dict[int, int], candidates: list[int]) -> int:
        # Age every unpinned line until one reaches the distant-future RRPV.
        while True:
            for candidate in candidates:
                if s[candidate] >= _SRRIP_MAX:
                    return candidate
            for candidate in candidates:
                s[candidate] += 1

    def _next_random(self) -> int:
        # xorshift32: deterministic, seeded by a CRC of the cache name.
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x

    # ------------------------------------------------------------------

    def remove(self, line: int) -> bool:
        """Remove a line (e.g. on invalidation); returns True if present."""
        s = self._sets[line % self.num_sets]
        if line in s:
            del s[line]
            return True
        return False

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> set[int]:
        out: set[int] = set()
        for s in self._sets:
            out.update(s)
        return out
