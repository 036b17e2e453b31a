"""Synthetic trace generation.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into per-thread
instruction streams with explicit register dataflow, branch behaviour,
private/shared address streams and atomic sites.  The generator is fully
deterministic given ``(seed, workload, thread)`` — see
:mod:`repro.common.rng`.

Address map (byte addresses; 64-byte lines):

* hot set        — lines ``[HOT_BASE_LINE, HOT_BASE_LINE + num_hot_lines)``,
  shared by every thread; atomics to the hot set all use offset 0 of their
  line (a shared counter), which is what creates real coherence contention.
* shared reads   — a read-mostly region all threads stream through.
* private        — a per-thread working set that drives the miss rate.

:func:`build_program` generates each program once per process: the paper
holds a program fixed and varies only the atomic policy, so a campaign
asks for the same ``(profile, threads, length, seed)`` once per
configuration.  What is kept is only the frozen :class:`Instruction`
objects; every caller gets its own mutable ``Program`` around them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.common.rng import make_rng
from repro.isa.instructions import (
    LINE_BYTES,
    AtomicOp,
    Instruction,
    InstrClass,
    Program,
    ThreadTrace,
)
from repro.workloads.profiles import ATOMIC_OPS, WorkloadProfile, get_profile

HOT_BASE_LINE = 16
SHARED_READ_BASE_LINE = 4096
ATOMIC_REGION_BASE_LINE = 1 << 18
PRIVATE_BASE_LINE = 1 << 20

ATOMIC_PC_BASE = 0x1000
LOCALITY_STORE_PC_BASE = 0x1800
BRANCH_PC_BASE = 0x2000
LOADSTORE_PC_BASE = 0x3000

_RECENT_WINDOW = 24
_YOUNG_DEP_SPAN = 8


class TraceGenerator:
    """Generates one thread's instruction stream for a workload profile."""

    def __init__(
        self,
        profile: WorkloadProfile,
        thread_id: int,
        num_threads: int,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        self.num_threads = num_threads
        self.rng = make_rng(seed, "trace", profile.name, num_threads, thread_id)
        p = profile
        self.hot_lines = [HOT_BASE_LINE + i for i in range(p.num_hot_lines)]
        self.private_base = PRIVATE_BASE_LINE + thread_id * (p.working_set_lines + 64)
        # Atomic static sites: the first chunk is "hot" (contended), the rest
        # "cold"; per-PC consistency is what the RoW predictor learns.
        n_hot_sites = max(1, round(p.atomic_sites * p.hot_fraction))
        n_hot_sites = min(n_hot_sites, p.atomic_sites)
        self.hot_sites = list(range(n_hot_sites))
        self.cold_sites = list(range(n_hot_sites, p.atomic_sites)) or [0]
        # Branch sites with per-site bias; one noisy site per four.
        self.branch_biases = [
            p.branch_bias if (i % 4) else min(0.98, p.branch_bias - 0.3 + 0.35)
            for i in range(16)
        ]
        self._stride_pos = 0
        # Pending atomic for the locality pattern: (countdown, addr, site, op)
        self._pending_atomic: tuple[int, int, int, AtomicOp] | None = None

    # ------------------------------------------------------------------

    def generate(self, num_instructions: int) -> ThreadTrace:
        p = self.profile
        rng = self.rng
        instructions: list[Instruction] = []
        recent: list[int] = []  # recent producer seqs (ALU/LOAD/ATOMIC results)
        atomic_dep_until = -1
        atomic_dep_seq = -1

        p_atomic = p.atomics_per_10k / 1e4
        t_atomic = p_atomic
        t_load = t_atomic + p.load_frac
        t_store = t_load + p.store_frac
        t_branch = t_store + p.branch_frac

        # Pre-draw the class selector stream in bulk for speed.
        draws = rng.random(num_instructions + 16)
        di = 0

        while len(instructions) < num_instructions:
            seq = len(instructions)
            r = draws[di]
            di += 1
            if di >= len(draws):
                draws = rng.random(4096)
                di = 0

            extra_dep: tuple[int, ...] = ()
            if seq <= atomic_dep_until and atomic_dep_seq >= 0:
                if rng.random() < p.young_dep_on_atomic_prob:
                    extra_dep = (atomic_dep_seq,)

            # Locality pattern: the store to the atomic's line ran a few
            # instructions ago; emit the delayed atomic when its turn comes.
            if self._pending_atomic is not None:
                countdown, addr, site, op = self._pending_atomic
                if countdown <= 0:
                    self._pending_atomic = None
                    self._emit_atomic_instr(
                        instructions, recent, rng, extra_dep, addr, site, op
                    )
                    atomic_dep_seq = instructions[-1].seq
                    atomic_dep_until = atomic_dep_seq + _YOUNG_DEP_SPAN
                    continue
                self._pending_atomic = (countdown - 1, addr, site, op)

            if r < t_atomic:
                emitted = self._emit_atomic(instructions, recent, rng, extra_dep)
                if emitted:
                    atomic_dep_seq = instructions[-1].seq
                    atomic_dep_until = atomic_dep_seq + _YOUNG_DEP_SPAN
            elif r < t_load:
                self._emit_load(instructions, recent, rng, extra_dep)
            elif r < t_store:
                self._emit_store(instructions, recent, rng, extra_dep)
            elif r < t_branch:
                self._emit_branch(instructions, recent, rng, extra_dep)
            else:
                self._emit_alu(instructions, recent, rng, extra_dep)

        trace = ThreadTrace(self.thread_id, instructions[:num_instructions])
        # Emitting an atomic can append a locality store first, so trim and
        # revalidate the tail: the last entry must not depend on a dropped one.
        return trace

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _deps(
        self, recent: list[int], rng: np.random.Generator, count: int, prob: float
    ) -> tuple[int, ...]:
        if not recent:
            return ()
        out = set()
        for _ in range(count):
            if rng.random() < prob:
                out.add(recent[int(rng.integers(0, len(recent)))])
        return tuple(out)

    @staticmethod
    def _push_recent(recent: list[int], seq: int) -> None:
        recent.append(seq)
        if len(recent) > _RECENT_WINDOW:
            del recent[0]

    def _private_addr(self, rng: np.random.Generator) -> int:
        line = self.private_base + int(rng.integers(0, self.profile.working_set_lines))
        return line * LINE_BYTES

    def _shared_read_addr(self, rng: np.random.Generator) -> int:
        line = SHARED_READ_BASE_LINE + int(
            rng.integers(0, self.profile.shared_read_lines)
        )
        return line * LINE_BYTES

    def _strided_addr(self) -> int:
        self._stride_pos = (self._stride_pos + 1) % self.profile.working_set_lines
        return (self.private_base + self._stride_pos) * LINE_BYTES

    def _emit_alu(self, out, recent, rng, extra_dep) -> None:
        seq = len(out)
        latency = 3 if rng.random() < self.profile.long_latency_frac else 1
        deps = self._deps(recent, rng, 2, self.profile.dep_density) + extra_dep
        out.append(
            Instruction(
                seq,
                InstrClass.ALU,
                pc=LOADSTORE_PC_BASE + 0x400 + (seq % 64) * 4,
                src_deps=tuple(set(deps)),
                exec_latency=latency,
            )
        )
        self._push_recent(recent, seq)

    def _emit_branch(self, out, recent, rng, extra_dep) -> None:
        seq = len(out)
        site = int(rng.integers(0, len(self.branch_biases)))
        taken = bool(rng.random() < self.branch_biases[site])
        deps = self._deps(recent, rng, 1, self.profile.dep_density) + extra_dep
        out.append(
            Instruction(
                seq,
                InstrClass.BRANCH,
                pc=BRANCH_PC_BASE + site * 4,
                src_deps=tuple(set(deps)),
                taken=taken,
            )
        )

    def _emit_load(self, out, recent, rng, extra_dep) -> None:
        seq = len(out)
        p = self.profile
        r = rng.random()
        if r < p.stride_frac:
            addr = self._strided_addr()
            pc = LOADSTORE_PC_BASE + 4  # single striding PC trains the prefetcher
        elif r < p.stride_frac + p.shared_read_frac:
            addr = self._shared_read_addr(rng)
            pc = LOADSTORE_PC_BASE + 8 + (seq % 16) * 4
        else:
            addr = self._private_addr(rng)
            pc = LOADSTORE_PC_BASE + 0x100 + (seq % 32) * 4
        deps = self._deps(recent, rng, 1, p.dep_density) + extra_dep
        out.append(
            Instruction(
                seq,
                InstrClass.LOAD,
                pc=pc,
                src_deps=tuple(set(deps)),
                addr=addr,
            )
        )
        self._push_recent(recent, seq)

    def _emit_store(self, out, recent, rng, extra_dep) -> None:
        seq = len(out)
        deps = self._deps(recent, rng, 1, self.profile.dep_density) + extra_dep
        out.append(
            Instruction(
                seq,
                InstrClass.STORE,
                pc=LOADSTORE_PC_BASE + 0x200 + (seq % 32) * 4,
                src_deps=tuple(set(deps)),
                addr=self._private_addr(rng),
                operand=int(rng.integers(0, 1 << 16)),
            )
        )

    def _emit_atomic(self, out, recent, rng, extra_dep) -> bool:
        """Emit one atomic (or schedule it after its locality store).

        Returns True if the atomic itself was emitted now.
        """
        p = self.profile
        # 5% of instances cross between hot and cold behaviour so the
        # predictor sees realistic noise rather than perfectly clean sites.
        hot = rng.random() < p.hot_fraction
        crossed = rng.random() < 0.05
        site_hot = hot != crossed
        if site_hot:
            site = self.hot_sites[int(rng.integers(0, len(self.hot_sites)))]
        else:
            site = self.cold_sites[int(rng.integers(0, len(self.cold_sites)))]
        if hot:
            line = self.hot_lines[int(rng.integers(0, len(self.hot_lines)))]
            addr = line * LINE_BYTES
        elif p.atomic_region_lines:
            # Huge shared region with negligible concurrent reuse: the
            # atomic misses (no locality) but faces no contention.
            line = ATOMIC_REGION_BASE_LINE + int(
                rng.integers(0, p.atomic_region_lines)
            )
            addr = line * LINE_BYTES
        else:
            addr = self._private_addr(rng)
        op = ATOMIC_OPS[
            int(rng.choice(len(ATOMIC_OPS), p=self._op_probs()))
        ]
        # Atomic locality (cq/tatp/barnes): a regular store to the same
        # address a handful of instructions *before* the atomic.  The gap is
        # what makes the pattern interesting: an eager atomic locks the line
        # while the store still protects it, a lazy one finds it stolen.
        if self._pending_atomic is None and rng.random() < p.store_before_atomic_prob:
            seq = len(out)
            out.append(
                Instruction(
                    seq,
                    InstrClass.STORE,
                    pc=LOCALITY_STORE_PC_BASE + site * 4,
                    src_deps=self._deps(recent, rng, 1, p.dep_density),
                    addr=addr,
                    operand=int(rng.integers(0, 1 << 16)),
                )
            )
            gap = int(rng.integers(6, 20))
            self._pending_atomic = (gap, addr, site, op)
            return False
        self._emit_atomic_instr(out, recent, rng, extra_dep, addr, site, op)
        return True

    def _emit_atomic_instr(
        self, out, recent, rng, extra_dep, addr: int, site: int, op: AtomicOp
    ) -> None:
        p = self.profile
        seq = len(out)
        deps = self._deps(recent, rng, 1, max(0.3, p.dep_density)) + extra_dep
        out.append(
            Instruction(
                seq,
                InstrClass.ATOMIC,
                pc=ATOMIC_PC_BASE + site * 4,
                src_deps=tuple(set(deps)),
                addr=addr,
                atomic_op=op,
                operand=1 if op is AtomicOp.FAA else int(rng.integers(1, 1 << 8)),
                cas_expected=int(rng.integers(0, 4)),
            )
        )
        self._push_recent(recent, seq)

    def _op_probs(self) -> list[float]:
        w = self.profile.atomic_op_weights
        total = sum(w)
        return [x / total for x in w]


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

#: Static instructions the program memo may hold: about 32 MB at the
#: measured 245 bytes per instruction.  A constant, not an option: every
#: committed campaign below ``full`` scale fits a workload's programs in
#: it, and a program larger than it is still kept, alone.
PROGRAM_MEMO_INSTRUCTIONS = 131_072

Streams = tuple[tuple[Instruction, ...], ...]


class ProgramMemoStats(NamedTuple):
    """Counters of the program memo since the process started."""

    hits: int
    generated: int
    instructions: int  # static instructions held right now


class _ProgramMemo:
    """Generated instruction streams by program key, least recently used
    first.  Only immutable values are stored (tuples of frozen
    ``Instruction``), so nothing a caller does to a built program can
    reach another caller's."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: OrderedDict[tuple, Streams] = OrderedDict()
        self._held = 0
        self._hits = 0
        self._generated = 0

    def streams(
        self,
        profile: WorkloadProfile,
        num_threads: int,
        instructions_per_thread: int,
        seed: int,
    ) -> Streams:
        key = (profile, num_threads, instructions_per_thread, seed)
        size = num_threads * instructions_per_thread
        with self._lock:
            streams = self._streams.get(key)
            if streams is not None:
                self._streams.move_to_end(key)
                self._hits += 1
                return streams
            # Room is made before generating, so the peak is never more
            # than max(bound, this one program).
            self._evict(PROGRAM_MEMO_INSTRUCTIONS - size, keep=0)
        # Outside the lock: two threads missing on one key both generate
        # (the same streams, the generator being pure) and the first to
        # finish is kept.
        traces = [
            TraceGenerator(profile, tid, num_threads, seed).generate(
                instructions_per_thread
            )
            for tid in range(num_threads)
        ]
        for trace in traces:
            trace.validate()
        streams = tuple(tuple(trace.instructions) for trace in traces)
        with self._lock:
            self._generated += 1
            kept = self._streams.setdefault(key, streams)
            if kept is streams:
                self._held += size
            self._streams.move_to_end(key)
            # Concurrent misses each made room for themselves only.
            self._evict(PROGRAM_MEMO_INSTRUCTIONS, keep=1)
            return kept

    def _evict(self, limit: int, keep: int) -> None:
        while self._held > limit and len(self._streams) > keep:
            _, evicted = self._streams.popitem(last=False)
            self._held -= sum(map(len, evicted))

    def clear(self) -> None:
        with self._lock:
            self._streams.clear()
            self._held = 0

    def stats(self) -> ProgramMemoStats:
        with self._lock:
            return ProgramMemoStats(self._hits, self._generated, self._held)


_PROGRAM_MEMO = _ProgramMemo()


def program_memo_stats() -> ProgramMemoStats:
    """How often :func:`build_program` reused streams, how often it had
    to generate, and how many instructions it holds.  The counters only
    grow; gates compare two readings."""
    return _PROGRAM_MEMO.stats()


def clear_program_memo() -> None:
    """Forget every generated stream (the counters stay).  Programs
    already handed out keep working: they hold their own references."""
    _PROGRAM_MEMO.clear()


def build_program(
    workload: str | WorkloadProfile,
    num_threads: int,
    instructions_per_thread: int,
    seed: int = 0,
) -> Program:
    """Generate a multithreaded :class:`Program` for a workload profile.

    The result is the caller's own: a fresh ``Program`` with fresh
    ``ThreadTrace`` lists, ``metadata`` and ``initial_memory``, free to
    mutate.  The ``Instruction`` objects inside are frozen and shared with
    every other build of the same ``(profile, num_threads,
    instructions_per_thread, seed)`` in this process — they are generated
    (and validated) once and kept in a memo bounded by
    :data:`PROGRAM_MEMO_INSTRUCTIONS`, because trace generation was a
    quarter to two fifths of a cold simulation cell and a campaign runs
    each program under every configuration.
    """
    profile = get_profile(workload) if isinstance(workload, str) else workload
    streams = _PROGRAM_MEMO.streams(
        profile, num_threads, instructions_per_thread, seed
    )
    return Program(
        name=profile.name,
        traces=[
            ThreadTrace(tid, list(stream)) for tid, stream in enumerate(streams)
        ],
        metadata={
            "profile": profile,
            "seed": seed,
            "hot_lines": [HOT_BASE_LINE + i for i in range(profile.num_hot_lines)],
            # Cache-warmup spec consumed by the simulator: these regions are
            # hot in the steady state the paper measures (its runs execute
            # billions of instructions; ours are short, so cold misses would
            # otherwise dominate every run).
            "warmup": {
                "private": [
                    (
                        tid,
                        PRIVATE_BASE_LINE + tid * (profile.working_set_lines + 64),
                        profile.working_set_lines,
                    )
                    for tid in range(num_threads)
                ],
                "shared": (SHARED_READ_BASE_LINE, profile.shared_read_lines),
            },
        },
    )
