"""Replacement-policy tests (FIFO / RANDOM / SRRIP vs LRU)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.params import CacheParams, ReplacementPolicy
from repro.memory.cache import SetAssocCache


def make(policy, sets=1, ways=4):
    return SetAssocCache(
        CacheParams(sets * ways * 64, ways, 1, replacement=policy), name="t"
    )


class TestFifo:
    def test_evicts_oldest_insertion(self):
        c = make(ReplacementPolicy.FIFO, ways=2)
        c.insert(0)
        c.insert(1)
        c.touch(0)  # FIFO ignores hits
        assert c.insert(2) == 0

    def test_differs_from_lru_on_touch(self):
        lru = make(ReplacementPolicy.LRU, ways=2)
        fifo = make(ReplacementPolicy.FIFO, ways=2)
        for c in (lru, fifo):
            c.insert(0)
            c.insert(1)
            c.touch(0)
        assert lru.insert(2) == 1
        assert fifo.insert(2) == 0


class TestRandom:
    def test_victim_is_some_resident_line(self):
        c = make(ReplacementPolicy.RANDOM, ways=4)
        for line in range(4):
            c.insert(line)
        victim = c.insert(10)
        assert victim in {0, 1, 2, 3}

    def test_deterministic_per_cache_name(self):
        def run():
            c = make(ReplacementPolicy.RANDOM, ways=4)
            for line in range(4):
                c.insert(line)
            return [c.insert(10 + i) for i in range(4)]

        assert run() == run()

    def test_same_victims_under_any_hash_seed(self):
        # The xorshift seed must not come from hash(name), which
        # PYTHONHASHSEED salts per process: the same RunSpec would then
        # evict differently in two processes.
        script = (
            "from repro.common.params import CacheParams, ReplacementPolicy\n"
            "from repro.memory.cache import SetAssocCache\n"
            "c = SetAssocCache(CacheParams(4 * 2 * 64, 2, 1,"
            " replacement=ReplacementPolicy.RANDOM), name='l2[0]')\n"
            "print([c.insert(line) for line in range(0, 64, 4)])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1, outputs

    def test_respects_pinning(self):
        c = make(ReplacementPolicy.RANDOM, ways=2)
        c.insert(0)
        c.insert(1)
        c.pin(0)
        for i in range(8):  # any draw must avoid the pinned line
            assert c.insert(10 + i) != 0
            c.remove(10 + i)
            c.insert(1)


class TestSrrip:
    def test_untouched_lines_evicted_before_reused(self):
        c = make(ReplacementPolicy.SRRIP, ways=4)
        for line in range(4):
            c.insert(line)
        c.touch(0)  # promote to near re-reference
        victim = c.insert(10)
        assert victim != 0

    def test_scan_resistance(self):
        """A streaming scan should not wipe out the frequently reused set
        (the property SRRIP exists for, which LRU lacks)."""
        srrip = make(ReplacementPolicy.SRRIP, ways=4)
        hot = [0, 1]
        for line in hot:
            srrip.insert(line)
        for _ in range(6):
            for line in hot:
                srrip.touch(line)
        survivals = 0
        for scan_line in range(100, 112):
            srrip.insert(scan_line)
            survivals += sum(1 for line in hot if line in srrip)
        assert survivals > 12  # hot lines mostly survive the scan

    def test_eviction_still_possible_with_all_fresh(self):
        c = make(ReplacementPolicy.SRRIP, ways=2)
        c.insert(0)
        c.insert(1)
        assert c.insert(2) in (0, 1)  # aging loop must terminate


@pytest.mark.parametrize("policy", list(ReplacementPolicy))
class TestCommonInvariants:
    def test_capacity_respected(self, policy):
        c = make(policy, sets=2, ways=2)
        for line in range(20):
            c.insert(line)
        assert c.occupancy() <= 4

    def test_pinned_never_evicted(self, policy):
        c = make(policy, ways=2)
        c.insert(0)
        c.insert(1)
        c.pin(0)
        for line in range(10, 30):
            if c.can_insert(line):
                c.insert(line)
        assert 0 in c

    def test_full_pinned_set_raises(self, policy):
        c = make(policy, ways=2)
        c.insert(0)
        c.insert(1)
        c.pin(0)
        c.pin(1)
        assert not c.can_insert(5)
        with pytest.raises(RuntimeError):
            c.insert(5)

    def test_simulation_runs_with_policy(self, policy):
        """End-to-end: an L1D with this policy still executes correctly."""
        from dataclasses import replace

        from repro.common.params import AtomicMode, SystemParams
        from repro.sim.multicore import simulate
        from repro.workloads.litmus import atomic_counter

        base = SystemParams.quick(atomic_mode=AtomicMode.EAGER)
        params = replace(
            base,
            l1d=replace(base.l1d, replacement=policy),
            l2=replace(base.l2, replacement=policy),
        )
        prog = atomic_counter(4, 25)
        res = simulate(params, prog)
        assert res.memory_snapshot.get(prog.metadata["addr"]) == 100
