"""build_program's memo: caller-owned shells over shared frozen streams."""

import copy
import sys
import threading

import pytest

from repro.analysis.parallel import RunSpec, execute_spec
from repro.common.params import AtomicMode, SystemParams
from repro.workloads import synthetic
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import (
    TraceGenerator,
    build_program,
    clear_program_memo,
    program_memo_stats,
)

THREADS, LENGTH = 2, 200


def scratch_streams(name="pc", threads=THREADS, length=LENGTH, seed=0):
    """The streams straight from the (pure, unmemoized) generator."""
    profile = get_profile(name)
    return [
        TraceGenerator(profile, tid, threads, seed).generate(length).instructions
        for tid in range(threads)
    ]


def streams_of(program):
    return [trace.instructions for trace in program.traces]


def generated_by(build) -> int:
    before = program_memo_stats().generated
    build()
    return program_memo_stats().generated - before


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_program_memo()
    yield
    clear_program_memo()


class TestOwnership:
    def test_mutating_one_result_never_reaches_the_next(self):
        first = build_program("pc", THREADS, LENGTH, seed=0)
        untouched = copy.deepcopy(first)
        first.metadata.pop("warmup")
        first.metadata["hot_lines"].append(-1)
        first.initial_memory[64] = 7
        first.traces[0].instructions.append(first.traces[0].instructions[0])
        first.traces[1].instructions.pop()
        first.traces.pop()

        second = build_program("pc", THREADS, LENGTH, seed=0)
        assert second == untouched
        assert streams_of(second) == scratch_streams()
        second.validate()


class TestSharing:
    def test_distinct_shells_identical_instructions(self):
        a = build_program("pc", THREADS, LENGTH, seed=0)
        hits = program_memo_stats().hits
        b = build_program("pc", THREADS, LENGTH, seed=0)
        assert program_memo_stats().hits == hits + 1
        assert a is not b
        assert a.traces is not b.traces
        assert a.metadata is not b.metadata
        assert a.metadata["warmup"] is not b.metadata["warmup"]
        assert a.initial_memory is not b.initial_memory
        for ta, tb in zip(a.traces, b.traces):
            assert ta is not tb
            assert ta.instructions is not tb.instructions
            assert all(x is y for x, y in zip(ta.instructions, tb.instructions))

    def test_every_key_component_misses(self):
        pc = get_profile("pc")
        build_program(pc, THREADS, LENGTH, seed=0)
        for args in (
            (pc, THREADS, LENGTH, 1),
            (pc, THREADS + 1, LENGTH, 0),
            (pc, THREADS, LENGTH + 1, 0),
            (pc.with_overrides(dep_density=0.4), THREADS, LENGTH, 0),
        ):
            assert generated_by(lambda: build_program(*args)) == 1
        # The key is the profile's value, not its name or identity.
        assert generated_by(
            lambda: build_program(pc.with_overrides(), THREADS, LENGTH, 0)
        ) == 0
        assert generated_by(lambda: build_program("pc", THREADS, LENGTH)) == 0


class TestBound:
    @pytest.fixture(autouse=True)
    def _room_for_two(self, monkeypatch):
        monkeypatch.setattr(
            synthetic, "PROGRAM_MEMO_INSTRUCTIONS", 2 * THREADS * LENGTH
        )

    def build(self, seed, length=LENGTH) -> int:
        return generated_by(
            lambda: build_program("pc", THREADS, length, seed=seed)
        )

    def test_evicts_least_recently_used_first(self):
        assert self.build(0) == self.build(1) == 1
        assert self.build(0) == 0  # seed 1 is now the least recently used
        assert self.build(2) == 1
        assert program_memo_stats().instructions == 2 * THREADS * LENGTH
        assert self.build(2) == 0  # the entry just returned stayed
        assert self.build(0) == 0
        assert self.build(1) == 1

    def test_oversized_program_is_generated_into_an_empty_memo(
        self, monkeypatch
    ):
        self.build(0)
        held_while_generating = []
        generate = TraceGenerator.generate

        def watched(self, num_instructions):
            held_while_generating.append(program_memo_stats().instructions)
            return generate(self, num_instructions)

        monkeypatch.setattr(TraceGenerator, "generate", watched)
        big = 3 * LENGTH
        assert self.build(0, length=big) == 1
        assert held_while_generating == [0] * THREADS
        # It is kept, alone, until the next miss needs the room.
        assert program_memo_stats().instructions == THREADS * big
        assert self.build(0, length=big) == 0
        assert self.build(1) == 1
        assert program_memo_stats().instructions == THREADS * LENGTH


class TestResults:
    def test_hit_and_miss_give_identical_metrics(self):
        spec = RunSpec(
            get_profile("cq"),
            SystemParams.quick().with_atomic_mode(AtomicMode.ROW),
            THREADS,
            LENGTH,
            seed=3,
        )
        cold = execute_spec(spec).to_json()
        before = program_memo_stats()
        memoized = execute_spec(spec).to_json()
        after = program_memo_stats()
        assert (after.generated, after.hits) == (
            before.generated, before.hits + 1
        )
        clear_program_memo()
        assert memoized == cold == execute_spec(spec).to_json()


class TestConcurrency:
    def test_threads_missing_on_one_key_all_get_the_program(self, monkeypatch):
        workers = 4  # more than this sandbox's cores
        generating = threading.Barrier(workers)
        generate = TraceGenerator.generate

        def held_back(self, num_instructions):
            # Nobody finishes (and inserts) before everybody has missed.
            if self.thread_id == 0:
                generating.wait(timeout=10)
            return generate(self, num_instructions)

        monkeypatch.setattr(TraceGenerator, "generate", held_back)
        programs = [None] * workers

        def build(slot):
            programs[slot] = build_program("pc", THREADS, LENGTH, seed=5)

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        before = program_memo_stats()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        monkeypatch.undo()
        expected = scratch_streams(seed=5)
        for program in programs:
            program.validate()
            assert streams_of(program) == expected
        # Every thread generated; one copy is kept and accounted for.
        after = program_memo_stats()
        assert after.generated - before.generated == workers
        assert after.hits == before.hits
        assert after.instructions == THREADS * LENGTH
        assert generated_by(
            lambda: build_program("pc", THREADS, LENGTH, seed=5)
        ) == 0
