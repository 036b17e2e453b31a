"""Property-based tests for the cache arrays."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CacheParams, ReplacementPolicy
from repro.memory.cache import SetAssocCache

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "touch", "pin", "unpin"]),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=200,
)


def apply_ops(cache, operations):
    pinned: set[int] = set()
    for op, line in operations:
        if op == "insert":
            if cache.can_insert(line):
                cache.insert(line)
        elif op == "remove":
            cache.remove(line)
            cache.unpin(line)
            pinned.discard(line)
        elif op == "touch":
            cache.touch(line)
        elif op == "pin":
            if line in cache:
                cache.pin(line)
                pinned.add(line)
        else:
            cache.unpin(line)
            pinned.discard(line)
    return pinned


class TestCacheInvariants:
    @given(ops)
    @settings(max_examples=150, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, operations):
        cache = SetAssocCache(CacheParams(4 * 2 * 64, 2, 1))
        apply_ops(cache, operations)
        assert cache.occupancy() <= cache.num_sets * cache.ways
        for s in cache._sets:
            assert len(s) <= cache.ways

    @given(ops)
    @settings(max_examples=150, deadline=None)
    def test_pinned_lines_survive_any_insert_storm(self, operations):
        cache = SetAssocCache(CacheParams(4 * 2 * 64, 2, 1))
        pinned = apply_ops(cache, operations)
        live_pinned = {line for line in pinned if line in cache}
        for line in range(200, 280):
            if cache.can_insert(line):
                cache.insert(line)
        for line in live_pinned:
            assert line in cache

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_contains_matches_lines(self, operations):
        cache = SetAssocCache(CacheParams(4 * 2 * 64, 2, 1))
        apply_ops(cache, operations)
        reported = cache.lines()
        for line in range(64):
            assert (line in cache) == (line in reported)

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_most_recent_insert_always_present(self, lines):
        cache = SetAssocCache(CacheParams(8 * 2 * 64, 2, 1))
        for line in lines:
            cache.insert(line)
            assert line in cache


class StampCache:
    """The former LRU/FIFO arrays, kept only as an oracle: every line
    carries a use (LRU) or insertion (FIFO) stamp, and the victim is the
    unpinned line with the smallest stamp, found by a scan."""

    def __init__(self, num_sets: int, ways: int, lru: bool) -> None:
        self.num_sets, self.ways, self.lru = num_sets, ways, lru
        self._sets: list[dict[int, int]] = [{} for _ in range(num_sets)]
        self._stamp = 0
        self._pinned: set[int] = set()

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def touch(self, line: int) -> bool:
        s = self._sets[line % self.num_sets]
        if line not in s:
            return False
        if self.lru:
            self._stamp += 1
            s[line] = self._stamp
        return True

    def pin(self, line: int) -> None:
        self._pinned.add(line)

    def unpin(self, line: int) -> None:
        self._pinned.discard(line)

    def remove(self, line: int) -> None:
        self._sets[line % self.num_sets].pop(line, None)

    def can_insert(self, line: int) -> bool:
        s = self._sets[line % self.num_sets]
        if line in s or len(s) < self.ways:
            return True
        return any(candidate not in self._pinned for candidate in s)

    def insert(self, line: int) -> int | None:
        s = self._sets[line % self.num_sets]
        if line in s:
            self.touch(line)
            return None
        victim = None
        if len(s) >= self.ways:
            victim = self._pick_victim(s)
            del s[victim]
        self._stamp += 1
        s[line] = self._stamp
        return victim

    def _pick_victim(self, s: dict[int, int]) -> int:
        candidates = [line for line in s if line not in self._pinned]
        victim = candidates[0]
        for candidate in candidates[1:]:
            if s[candidate] < s[victim]:
                victim = candidate
        return victim

    def lines(self) -> set[int]:
        return {line for s in self._sets for line in s}


def trace_ops(cache, operations) -> list:
    """``apply_ops`` that also logs every answer the cache gives."""
    log = []
    for op, line in operations:
        if op == "insert":
            ok = cache.can_insert(line)
            log.append((op, line, ok, cache.insert(line) if ok else None))
        elif op == "touch":
            log.append((op, line, cache.touch(line)))
        elif op == "pin":
            if line in cache:
                cache.pin(line)
        elif op == "unpin":
            cache.unpin(line)
        else:
            cache.remove(line)
            cache.unpin(line)
    return log


class TestRecencyOrderVictim:
    """LRU/FIFO take the first unpinned line in set order; that must be
    the min-stamp victim of the scan it replaced, under any mix of hits,
    pins and removals."""

    @given(ops, st.sampled_from([ReplacementPolicy.LRU, ReplacementPolicy.FIFO]),
           st.sampled_from([(1, 2), (2, 2), (1, 4), (4, 2)]))
    @settings(max_examples=200, deadline=None)
    def test_victims_match_stamp_scan(self, operations, policy, geometry):
        sets, ways = geometry
        # Start full and fold the lines onto twice the capacity, so the
        # short op lists hypothesis draws are hits and evictions in the
        # same sets rather than a stream of cold misses.
        capacity = sets * ways
        operations = [("insert", line) for line in range(capacity)] + [
            (op, line % (2 * capacity)) for op, line in operations
        ]
        cache = SetAssocCache(
            CacheParams(sets * ways * 64, ways, 1, replacement=policy)
        )
        oracle = StampCache(sets, ways, lru=policy is ReplacementPolicy.LRU)
        assert trace_ops(cache, operations) == trace_ops(oracle, operations)
        assert cache.lines() == oracle.lines()
