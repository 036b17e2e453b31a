"""Hand-built litmus programs: ordering and atomicity invariants.

These tiny traces exercise the corners of the coherence protocol, store
buffer and Atomic Queue that the synthetic workloads hit statistically.
Timing variation is injected through per-thread ALU padding so a litmus
outcome set can be collected across many interleavings deterministically.

The classic multi-thread shapes (MP/SB/LB/IRIW, fenced and RMW variants)
are not built here: each is an oracle skeleton in
:mod:`repro.workloads.litmus_oracle`, whose ``LitmusTest.program``
compiles it (with :func:`_padded`) into the simulator program.  This
module keeps the addresses they share and the atomicity programs the
oracle does not model.
"""

from __future__ import annotations

from repro.isa.instructions import (
    LINE_BYTES,
    AtomicOp,
    Instruction,
    Program,
    ThreadTrace,
    alu,
    atomic,
    load,
    store,
)

X_ADDR = 100 * LINE_BYTES
Y_ADDR = 200 * LINE_BYTES
COUNTER_ADDR = 300 * LINE_BYTES


def _padded(instrs: list[Instruction], pad: int, thread_id: int) -> ThreadTrace:
    """Prefix ``pad`` dependent ALU ops (a serial delay chain), reindexing."""
    out: list[Instruction] = []
    for i in range(pad):
        deps = (i - 1,) if i else ()
        out.append(alu(i, pc=0x10, deps=deps, latency=1))
    base = len(out)
    for ins in instrs:
        shifted_deps = tuple(d + base for d in ins.src_deps)
        out.append(
            Instruction(
                len(out),
                ins.cls,
                ins.pc,
                src_deps=shifted_deps,
                addr=ins.addr,
                exec_latency=ins.exec_latency,
                atomic_op=ins.atomic_op,
                operand=ins.operand,
                cas_expected=ins.cas_expected,
                taken=ins.taken,
                locked=ins.locked,
            )
        )
    return ThreadTrace(thread_id, out)


def atomic_counter(
    num_threads: int, increments: int, pads: list[int] | None = None
) -> Program:
    """Every thread performs ``increments`` fetch-and-adds on one counter.

    Atomicity invariant: the final memory value equals
    ``num_threads * increments`` regardless of timing, execution policy or
    contention — the end-to-end check of cache locking + coherence.
    """
    pads = pads or [0] * num_threads
    traces = []
    for tid in range(num_threads):
        body = [
            atomic(i, pc=0x300, addr=COUNTER_ADDR, op=AtomicOp.FAA, operand=1)
            for i in range(increments)
        ]
        traces.append(_padded(body, pads[tid], tid))
    return Program(
        "litmus-counter",
        traces,
        metadata={"expected": num_threads * increments, "addr": COUNTER_ADDR},
    )


def atomic_exchange_ring(num_threads: int, swaps: int) -> Program:
    """Threads repeatedly SWAP distinct tokens into one slot.

    Invariant: the final slot value is one of the tokens ever written (the
    last swap in the total order), and every thread's observed old values
    are a sub-multiset of written tokens — checked loosely by tests.
    """
    traces = []
    for tid in range(num_threads):
        body = [
            atomic(
                i,
                pc=0x340,
                addr=COUNTER_ADDR,
                op=AtomicOp.SWAP,
                operand=tid * 1000 + i + 1,
            )
            for i in range(swaps)
        ]
        traces.append(_padded(body, 3 * tid, tid))
    return Program(
        "litmus-swap-ring",
        traces,
        metadata={"addr": COUNTER_ADDR},
    )


def same_core_forwarding(pad: int = 0) -> Program:
    """A store followed by a load and an atomic to the same address on one
    core: the load must observe the store (via SB forwarding), and the
    atomic must RMW the store's value."""
    t0 = [
        store(0, pc=0x100, addr=X_ADDR, value=7),
        load(1, pc=0x104, addr=X_ADDR),
        atomic(2, pc=0x108, addr=X_ADDR, op=AtomicOp.FAA, operand=1, deps=()),
        load(3, pc=0x10C, addr=X_ADDR),
    ]
    return Program(
        "litmus-fwd",
        [_padded(t0, pad, 0)],
        metadata={"load_seq": pad + 1, "faa_seq": pad + 2, "final_load_seq": pad + 3},
    )
