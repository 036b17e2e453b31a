"""The Sec. II-A fence microbenchmark.

A single thread allocates an array far larger than the caches and performs
RMW operations on randomly selected elements, in four variants per RMW
(FAA / CAS / Swap):

* non-atomic, no fences   — load / modify / store micro-ops;
* non-atomic + mfence     — mfence before and after the RMW;
* atomic (lock prefix)    — a locked RMW instruction;
* atomic + mfence         — both.

Per the paper's footnote, ``xchg`` with a memory operand always locks, so
the "non-atomic" Swap variants still emit a locked atomic.

Running these traces on a *fenced-atomics* configuration models the old
(Kentsfield-class) processor of Fig. 2; on an *unfenced* (eager) one, the
recent (Coffee Lake-class) processor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.isa.instructions import (
    LINE_BYTES,
    AtomicOp,
    Instruction,
    InstrClass,
    Program,
    ThreadTrace,
)

ARRAY_BASE_LINE = 1 << 16

_PC_INDEX_ALU = 0x100
_PC_LOAD = 0x110
_PC_MODIFY = 0x114
_PC_STORE = 0x118
_PC_ATOMIC = 0x11C
_PC_FENCE_BEFORE = 0x120
_PC_FENCE_AFTER = 0x124

VARIANTS: tuple[str, ...] = ("plain", "plain+mfence", "lock", "lock+mfence")


def build_microbench(
    op: AtomicOp,
    variant: str,
    iterations: int = 1000,
    array_lines: int = 1 << 14,
    seed: int = 0,
) -> Program:
    """Build the single-threaded microbenchmark trace for one variant."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    rng = make_rng(seed, "microbench", op.value, variant)
    use_fences = variant.endswith("+mfence")
    # xchg always locks when a memory operand is referenced (Intel SDM);
    # FAA/CAS without the lock prefix decompose into plain micro-ops.
    locked = variant.startswith("lock") or op is AtomicOp.SWAP

    instrs: list[Instruction] = []
    indices = rng.integers(0, array_lines, size=iterations)
    for i in range(iterations):
        addr = (ARRAY_BASE_LINE + int(indices[i])) * LINE_BYTES
        seq = len(instrs)
        # Index computation: one ALU op; the memory access depends on it.
        instrs.append(
            Instruction(seq, InstrClass.ALU, pc=_PC_INDEX_ALU, exec_latency=1)
        )
        idx_seq = seq
        if use_fences:
            instrs.append(
                Instruction(len(instrs), InstrClass.MFENCE, pc=_PC_FENCE_BEFORE)
            )
        if locked:
            instrs.append(
                Instruction(
                    len(instrs),
                    InstrClass.ATOMIC,
                    pc=_PC_ATOMIC,
                    src_deps=(idx_seq,),
                    addr=addr,
                    atomic_op=op,
                    operand=1,
                    cas_expected=0,
                )
            )
        else:
            load_seq = len(instrs)
            instrs.append(
                Instruction(
                    load_seq,
                    InstrClass.LOAD,
                    pc=_PC_LOAD,
                    src_deps=(idx_seq,),
                    addr=addr,
                )
            )
            alu_seq = len(instrs)
            instrs.append(
                Instruction(
                    alu_seq,
                    InstrClass.ALU,
                    pc=_PC_MODIFY,
                    src_deps=(load_seq,),
                    exec_latency=1,
                )
            )
            instrs.append(
                Instruction(
                    len(instrs),
                    InstrClass.STORE,
                    pc=_PC_STORE,
                    src_deps=(alu_seq,),
                    addr=addr,
                    operand=1,
                )
            )
        if use_fences:
            instrs.append(
                Instruction(len(instrs), InstrClass.MFENCE, pc=_PC_FENCE_AFTER)
            )

    program = Program(
        name=f"microbench-{op.value}-{variant}",
        traces=[ThreadTrace(0, instrs)],
        metadata={"op": op, "variant": variant, "iterations": iterations},
    )
    program.validate()
    return program


@dataclass(frozen=True)
class Microbench:
    """A Fig. 2 campaign cell's program source (see ``RunSpec``)."""

    op: AtomicOp
    variant: str
    iterations: int

    @property
    def name(self) -> str:
        return f"microbench-{self.op.value}-{self.variant}"

    def program(self) -> Program:
        return build_microbench(self.op, self.variant, self.iterations)
