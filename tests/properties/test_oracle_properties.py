"""Metamorphic properties of the litmus oracle over random skeletons.

No simulator runs here: each property relates the oracle's outcome sets
for a random program and a transformed copy of it.  Programs have 2-3
threads of 1-3 ops over two addresses: loads, stores, fences, SWAP and
FAA.  The observation is every load's and atomic's value.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.params import ConsistencyKind
from repro.isa.instructions import AtomicOp
from repro.workloads import litmus_oracle as oracle
from repro.workloads.litmus_oracle import X, Y, LitmusTest, allowed_outcomes

TSO, RELAXED = ConsistencyKind.TSO, ConsistencyKind.RELAXED
addrs = st.sampled_from([X, Y])
values = st.integers(min_value=1, max_value=2)
ops = st.one_of(
    st.builds(oracle.ld, addrs),
    st.builds(oracle.st, addrs, values),
    st.just(oracle.fence()),
    st.builds(oracle.rmw, st.sampled_from([AtomicOp.SWAP, AtomicOp.FAA]), addrs, values),
)
programs = st.lists(
    st.lists(ops, min_size=1, max_size=3).map(tuple), min_size=2, max_size=3
).map(tuple)

#: MP: a SWAP publishing the flag must not let the reader see it before
#: the data (the store -> SWAP case of the third property).
MP = ((oracle.st(X, 1), oracle.st(Y, 1)), (oracle.ld(Y), oracle.ld(X)))


def skeleton(threads, observed=None) -> LitmusTest:
    if observed is None:
        observed = tuple(
            (t, i)
            for t, ops in enumerate(threads)
            for i, op in enumerate(ops)
            if op.kind in ("load", "atomic")
        )
    return LitmusTest(
        name="random", threads=threads, observed=observed,
        forbidden={}, pad_sets=(),
    )


def fenced(ops: tuple) -> tuple:
    out = []
    for op in ops:
        if out:
            out.append(oracle.fence())
        out.append(op)
    return tuple(out)


class TestOracleMetamorphic:
    @given(threads=programs)
    @settings(max_examples=100, deadline=None)
    def test_tso_is_a_subset_of_relaxed(self, threads):
        test = skeleton(threads)
        assert allowed_outcomes(test, TSO) <= allowed_outcomes(test, RELAXED)

    @given(threads=programs)
    @settings(max_examples=100, deadline=None)
    def test_fence_between_every_two_ops_makes_the_models_agree(self, threads):
        test = skeleton(tuple(fenced(ops) for ops in threads))
        assert allowed_outcomes(test, TSO) == allowed_outcomes(test, RELAXED)

    @given(threads=programs)
    @example(threads=MP)
    @settings(max_examples=150, deadline=None)
    def test_store_to_swap_never_enlarges_the_outcomes(self, threads):
        original = skeleton(threads)
        for t, ops in enumerate(threads):
            for i, op in enumerate(ops):
                if op.kind != "store":
                    continue
                swap = oracle.rmw(AtomicOp.SWAP, op.addr, op.value)
                mutant = threads[:t] + (ops[:i] + (swap,) + ops[i + 1 :],) + threads[t + 1 :]
                mutated = skeleton(mutant, original.observed)
                for model in (TSO, RELAXED):
                    assert allowed_outcomes(mutated, model) <= allowed_outcomes(
                        original, model
                    ), (t, i, model)
