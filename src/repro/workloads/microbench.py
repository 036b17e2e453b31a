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

from repro.common.params import AtomicMode, SystemParams
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


def modern_core_params() -> SystemParams:
    """Coffee Lake-class single core with unfenced (eager) atomics.

    Four MSHRs reproduce the paper's observed ratio: inserting explicit
    mfences drops performance "to roughly a fourth" because the memory-level
    parallelism of ~4 outstanding misses collapses to 1.
    """
    return SystemParams.small(
        num_cores=1, atomic_mode=AtomicMode.EAGER, mshr_entries=4
    )


def legacy_core_params() -> SystemParams:
    """Kentsfield-class single core: fenced atomics, narrower OoO engine.

    Two MSHRs: on the old machine the lock prefix roughly *doubles* cycles
    per iteration (Fig. 2, left), i.e. the unfenced baseline only overlapped
    about two misses.
    """
    return SystemParams.small(
        num_cores=1,
        atomic_mode=AtomicMode.FENCED,
        fetch_width=3,
        issue_width=4,
        commit_width=4,
        rob_entries=64,
        lq_entries=16,
        sb_entries=12,
        iq_entries=24,
        mshr_entries=2,
    )


#: The single-core machine models behind the fig2 campaign's machine axis.
MACHINE_PARAMS = {
    "old-x86": legacy_core_params,
    "new-x86": modern_core_params,
}
