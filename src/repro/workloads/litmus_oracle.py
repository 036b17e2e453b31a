"""Exhaustive-interleaving litmus oracle: per-model allowed outcome sets.

For each consistency model this module enumerates *every* admissible
execution of a small litmus skeleton under the model's axiomatic rules,
collecting the set of reachable observation outcomes.  The simulator is
then cross-validated against it (:mod:`repro.analysis.litmuscheck`):
every outcome the timing model produces must be in the oracle's allowed
set.  The oracle is deliberately *more* permissive than the machine —
it abstracts timing away entirely — so agreement means the pipeline
never manufactures an ordering the model forbids.

Operational rules (one abstract machine per model, small-step):

* A thread *executes* instructions one at a time; stores enter a
  per-thread store buffer, loads forward from the youngest older
  same-address SB entry or else read memory, fences wait for older
  memory ops and an SB empty of older stores, atomics read-modify-write
  memory directly once no older same-address store sits in the SB.
* A thread may also *flush* an SB entry to memory (making it globally
  visible).

Under **TSO** instructions execute strictly in program order and the SB
flushes FIFO — the only visible relaxation is a load executing while
older stores sit in the SB (store->load reordering); an atomic, like a
fence, waits for an SB empty of older stores (an x86 locked RMW drains
the store buffer).  Under **RELAXED**
(WMM-style) an instruction may execute once its dependencies, older
fences and older same-address memory ops are done (load-load and
load/store reordering), and the SB flushes in any order that preserves
same-address FIFO (store-store reordering).

Every state of the enumeration is finite and hashable; a DFS with
memoization visits each once.  Skeletons stay tiny (<= 4 threads of
<= 3 ops), so the state space is a few thousand states at worst.

The skeleton is the shape's only definition: :meth:`LitmusTest.program`
compiles it into the simulator program the cross-validation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.params import ConsistencyKind
from repro.isa.instructions import (
    LINE_BYTES,
    AtomicOp,
    Instruction,
    Program,
    alu,
    apply_atomic,
    atomic,
    load,
    mfence,
    store,
)
from repro.workloads import litmus

# ---------------------------------------------------------------------------
# Skeleton ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One oracle-level instruction: a load, store, fence or atomic.
    ``delayed`` puts the compiled program's ``obs_delay`` ALU chain in
    front of the op; the oracle ignores it."""

    kind: str  # "load" | "store" | "fence" | "atomic"
    addr: int | None = None
    value: int = 0  # store value / atomic operand
    op: AtomicOp | None = None  # atomic only
    deps: tuple[int, ...] = ()  # indices of same-thread producers
    delayed: bool = False

    @property
    def is_memory(self) -> bool:
        return self.kind in ("load", "store", "atomic")

    def instruction(self, seq: int, pc: int, deps: tuple[int, ...]) -> Instruction:
        if self.kind == "load":
            return load(seq, pc, self.addr, deps)
        if self.kind == "store":
            return store(seq, pc, self.addr, self.value, deps)
        if self.kind == "atomic":
            return atomic(seq, pc, self.addr, self.op, self.value, deps=deps)
        return mfence(seq, pc)


def ld(addr: int, delayed: bool = False) -> Op:
    return Op("load", addr, delayed=delayed)


def st(addr: int, value: int) -> Op:
    return Op("store", addr, value)


def fence() -> Op:
    return Op("fence")


def rmw(op: AtomicOp, addr: int, value: int = 1) -> Op:
    return Op("atomic", addr, value, op)


# ---------------------------------------------------------------------------
# Test registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LitmusCase:
    """A shape at one pad set: a litmus campaign cell's program source
    (see ``RunSpec``).  It holds all the compiled program depends on, so
    a cell's content hash moves with any edit to the skeleton."""

    name: str
    threads: tuple[tuple[Op, ...], ...]
    observed: tuple[tuple[int, int], ...]
    pc_bases: tuple[int, ...]
    pads: tuple[int, ...]

    def program(self) -> Program:
        """Compile the skeleton: an ALU-padding length per thread (missing
        ones are 0), then an optional ``obs_delay``.  Memory op *k* of
        thread *t* sits at PC ``base_t + 4k``, a fence 2 past the op
        before it; ``metadata["observed"]`` holds :attr:`observed` as
        ``(thread, seq)`` pairs."""
        n = len(self.threads)
        pads = (self.pads + (0,) * n)[:n]
        obs_delay = self.pads[n] if len(self.pads) > n else 0
        traces, seqs = [], []
        for tid, ops in enumerate(self.threads):
            base = self.pc_bases[tid] if self.pc_bases else 0x100 * (tid + 1)
            body: list[Instruction] = []
            seq_of: list[int] = []
            pc, mem = base - 4, 0
            for op in ops:
                deps = tuple(seq_of[d] for d in op.deps)
                if op.delayed and obs_delay:
                    start = len(body)
                    for i in range(obs_delay):
                        chain = (start + i - 1,) if i else ()
                        body.append(alu(start + i, pc=0x14, deps=chain))
                    deps += (len(body) - 1,)
                if op.is_memory:
                    pc, mem = base + 4 * mem, mem + 1
                else:
                    pc += 2
                seq_of.append(len(body))
                body.append(op.instruction(len(body), pc, deps))
            traces.append(litmus._padded(body, pads[tid], tid))
            seqs.append(seq_of)
        observed = tuple((t, pads[t] + seqs[t][i]) for t, i in self.observed)
        return Program(
            f"litmus-{self.name}", traces, metadata={"observed": observed}
        )


@dataclass(frozen=True)
class LitmusTest:
    """One named litmus shape: oracle skeleton + sweep + tags.

    The skeleton (``threads``) is the only definition of the shape:
    :meth:`program` compiles it into the simulator program.
    ``observed`` indexes the ops whose final register values form the
    outcome tuple, as ``(thread, op_index)`` pairs in outcome order.
    ``forbidden`` is the documentation tag: the classically forbidden
    outcome(s) per model, cross-checked against the enumeration by the
    test suite (the oracle is the ground truth; the tag is the
    human-readable claim).  ``pad_sets`` are the :meth:`program`
    arguments the simulator cross-validation sweeps; they include
    combinations empirically known to reach every ``relaxed_only``
    outcome under RELAXED.  ``pc_bases`` overrides the per-thread PC
    base ``0x100 * (thread + 1)``.
    """

    name: str
    threads: tuple[tuple[Op, ...], ...]
    observed: tuple[tuple[int, int], ...]
    forbidden: dict[ConsistencyKind, frozenset[tuple[int, ...]]]
    pad_sets: tuple[tuple[int, ...], ...]
    relaxed_only: frozenset[tuple[int, ...]] = field(default_factory=frozenset)
    pc_bases: tuple[int, ...] = ()

    def case(self, *pad_set: int) -> LitmusCase:
        """The shape at one pad set (see :meth:`LitmusCase.program`)."""
        return LitmusCase(
            self.name, self.threads, self.observed, self.pc_bases, pad_set
        )

    def program(self, *pad_set: int) -> Program:
        return self.case(*pad_set).program()


def _pads_2(*values: int) -> tuple[tuple[int, ...], ...]:
    return tuple((a, b) for a in values for b in values)


X, Y = litmus.X_ADDR, litmus.Y_ADDR
Z0, Z1 = 400 * LINE_BYTES, 500 * LINE_BYTES  # private RMW lines

#: (pad0, pad1, obs_delay).  A late writer (40, 0, 0) or reader
#: (0, 300, 0) overlaps the two threads; the last three reach MP's
#: (1, 0) under RELAXED.
_MP_PADS = (
    (0, 0, 0),
    (2, 0, 0),
    (0, 2, 0),
    (4, 4, 0),
    (16, 16, 0),
    (40, 0, 0),
    (0, 300, 0),
    (8, 0, 20),
    (16, 0, 20),
    (24, 0, 40),
)

LITMUS_TESTS: dict[str, LitmusTest] = {
    "mp": LitmusTest(
        name="mp",
        threads=((st(X, 1), st(Y, 1)), (ld(Y, delayed=True), ld(X))),
        observed=((1, 0), (1, 1)),  # (flag, data)
        forbidden={
            ConsistencyKind.TSO: frozenset({(1, 0)}),
            ConsistencyKind.RELAXED: frozenset(),
        },
        relaxed_only=frozenset({(1, 0)}),
        pad_sets=_MP_PADS,
    ),
    "mp+fences": LitmusTest(
        name="mp+fences",
        threads=(
            (st(X, 1), fence(), st(Y, 1)),
            (ld(Y, delayed=True), fence(), ld(X)),
        ),
        observed=((1, 0), (1, 2)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(1, 0)}),
            ConsistencyKind.RELAXED: frozenset({(1, 0)}),
        },
        pad_sets=(
            (0, 0, 0),
            (2, 0, 0),
            (4, 4, 0),
            (40, 0, 0),
            (0, 300, 0),
            (8, 0, 20),
            (16, 0, 20),
            (24, 0, 40),
        ),
    ),
    "sb": LitmusTest(
        name="sb",
        threads=((st(X, 1), ld(Y)), (st(Y, 1), ld(X))),
        observed=((0, 1), (1, 1)),
        forbidden={
            ConsistencyKind.TSO: frozenset(),
            ConsistencyKind.RELAXED: frozenset(),
        },
        pad_sets=_pads_2(0, 2, 6, 12),
    ),
    "sb+fences": LitmusTest(
        name="sb+fences",
        threads=(
            (st(X, 1), fence(), ld(Y)),
            (st(Y, 1), fence(), ld(X)),
        ),
        observed=((0, 2), (1, 2)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(0, 0)}),
            ConsistencyKind.RELAXED: frozenset({(0, 0)}),
        },
        pad_sets=_pads_2(0, 2, 6, 12),
    ),
    "lb": LitmusTest(
        name="lb",
        threads=((ld(X), st(Y, 1)), (ld(Y), st(X, 1))),
        observed=((0, 0), (1, 0)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(1, 1)}),
            ConsistencyKind.RELAXED: frozenset(),
        },
        pad_sets=_pads_2(0, 2, 6, 12),
    ),
    "iriw": LitmusTest(
        name="iriw",
        threads=(
            (st(X, 1),),
            (st(Y, 1),),
            (ld(X, delayed=True), ld(Y)),
            (ld(Y, delayed=True), ld(X)),
        ),
        observed=((2, 0), (2, 1), (3, 0), (3, 1)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(1, 0, 1, 0)}),
            ConsistencyKind.RELAXED: frozenset(),
        },
        relaxed_only=frozenset({(1, 0, 1, 0)}),
        pad_sets=(
            (0, 0, 0, 0, 0),
            (0, 4, 2, 6, 0),
            (4, 0, 6, 2, 0),
            (2, 2, 10, 10, 0),
            (8, 8, 0, 0, 20),
            (16, 8, 0, 0, 20),
            (16, 16, 0, 0, 20),
            (24, 24, 0, 0, 40),
        ),
        pc_bases=(0x100, 0x110, 0x200, 0x300),
    ),
    "mp+swap": LitmusTest(
        name="mp+swap",
        threads=(
            (st(X, 1), rmw(AtomicOp.SWAP, Y, 1)),
            (ld(Y, delayed=True), ld(X)),
        ),
        observed=((1, 0), (1, 1)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(1, 0)}),
            ConsistencyKind.RELAXED: frozenset(),
        },
        relaxed_only=frozenset({(1, 0)}),
        pad_sets=_MP_PADS,
    ),
    "sb+rmw": LitmusTest(
        name="sb+rmw",
        threads=(
            (st(X, 1), rmw(AtomicOp.FAA, Z0), ld(Y)),
            (st(Y, 1), rmw(AtomicOp.FAA, Z1), ld(X)),
        ),
        observed=((0, 2), (1, 2)),
        forbidden={
            ConsistencyKind.TSO: frozenset({(0, 0)}),
            ConsistencyKind.RELAXED: frozenset(),
        },
        relaxed_only=frozenset({(0, 0)}),
        pad_sets=_pads_2(0, 2, 6, 12),
    ),
}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

#: Per-thread state: (executed bitmask, SB tuple of (addr, value, idx),
#: regs tuple of (idx, value) for executed loads/atomics).
_ThreadState = tuple[int, tuple, tuple]


def _may_execute(
    ops: tuple[Op, ...], i: int, mask: int, sb: tuple, kind: ConsistencyKind
) -> bool:
    op = ops[i]
    if any(not (mask >> d) & 1 for d in op.deps):
        return False
    if kind is ConsistencyKind.TSO:
        # Strict program order for the execute step; the SB supplies the
        # only visible (store->load) relaxation.
        if mask != (1 << i) - 1:
            return False
    else:
        for j in range(i):
            done = (mask >> j) & 1
            prev = ops[j]
            if done:
                continue
            if prev.kind == "fence":
                return False  # nothing executes past an unexecuted fence
            if op.kind == "fence" and prev.is_memory:
                return False  # a fence waits for all older memory ops
            if (
                op.is_memory
                and prev.is_memory
                and prev.addr == op.addr
            ):
                return False  # same-address program order (coherence)
            if op.kind == "atomic" and prev.kind == "atomic":
                return False  # atomics stay ordered with atomics
    if op.kind == "fence" or (
        op.kind == "atomic" and kind is ConsistencyKind.TSO
    ):
        # The SB must hold no older store (all flushed to memory): a
        # fence drains it, and so does an x86 locked RMW.
        if any(idx < i for (_, _, idx) in sb):
            return False
    elif op.kind == "atomic":
        # The atomic writes memory directly: older same-address SB
        # entries must have flushed first.
        if any(addr == op.addr and idx < i for (addr, _, idx) in sb):
            return False
    return True


def _flushable(sb: tuple, kind: ConsistencyKind) -> list[int]:
    if not sb:
        return []
    if kind is ConsistencyKind.TSO:
        return [0]  # FIFO
    out = []
    for pos, (addr, _, idx) in enumerate(sb):
        if not any(
            o_addr == addr and o_idx < idx
            for (o_addr, _, o_idx) in sb[:pos]
        ):
            out.append(pos)
    return out


def allowed_outcomes(
    test: LitmusTest, model: "ConsistencyKind | str"
) -> frozenset[tuple[int, ...]]:
    """Every observation outcome reachable under the model's rules."""
    kind = ConsistencyKind.from_name(model)
    threads = test.threads
    init_mem: tuple = ()
    initial = (
        init_mem,
        tuple((0, (), ()) for _ in threads),
    )
    seen: set = set()
    outcomes: set[tuple[int, ...]] = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        mem, tstates = state
        mem_map = dict(mem)
        terminal = True
        for tid, ops in enumerate(threads):
            mask, sb, regs = tstates[tid]
            # Execute steps.
            for i, op in enumerate(ops):
                if (mask >> i) & 1:
                    continue
                terminal = False
                if not _may_execute(ops, i, mask, sb, kind):
                    continue
                new_mask = mask | (1 << i)
                new_sb, new_regs = sb, regs
                if op.kind == "store":
                    new_sb = sb + ((op.addr, op.value, i),)
                elif op.kind == "load":
                    fwd = None
                    for addr, value, idx in sb:
                        if addr == op.addr and idx < i:
                            fwd = value  # youngest older same-address
                    got = fwd if fwd is not None else mem_map.get(op.addr, 0)
                    new_regs = regs + ((i, got),)
                if op.kind == "atomic":
                    old = mem_map.get(op.addr, 0)
                    new, _result = apply_atomic(op.op, old, op.value, 0)
                    new_mem = tuple(sorted(
                        {**mem_map, op.addr: new}.items()
                    ))
                    new_regs = regs + ((i, old),)
                else:
                    new_mem = mem
                nt = list(tstates)
                nt[tid] = (new_mask, new_sb, new_regs)
                stack.append((new_mem, tuple(nt)))
            # Flush steps.
            if sb:
                terminal = False
            for pos in _flushable(sb, kind):
                addr, value, _ = sb[pos]
                new_mem = tuple(sorted({**mem_map, addr: value}.items()))
                nt = list(tstates)
                nt[tid] = (mask, sb[:pos] + sb[pos + 1 :], regs)
                stack.append((new_mem, tuple(nt)))
        if terminal:
            outcomes.add(_outcome(test, tstates))
    return frozenset(outcomes)


def _outcome(test: LitmusTest, tstates: tuple) -> tuple[int, ...]:
    out = []
    for tid, idx in test.observed:
        regs = dict(tstates[tid][2])
        out.append(regs[idx])
    return tuple(out)


def observed_outcome(program: Program, load_values: list[dict]) -> tuple[int, ...]:
    """Extract the observation tuple from a simulator run's per-core
    committed load values, using the program's ``"observed"`` metadata."""
    pairs = program.metadata["observed"]
    return tuple(load_values[tid][seq] for tid, seq in pairs)
