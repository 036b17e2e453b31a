"""Branch predictor tests: bimodal, TAGE."""

import pytest

from repro.common.params import BranchPredictorKind
from repro.frontend.branch import (
    BimodalPredictor,
    TagePredictor,
    make_branch_predictor,
)

ALL_PREDICTORS = [BimodalPredictor, TagePredictor]


def accuracy(pred, stream):
    correct = 0
    for pc, taken in stream:
        if pred.predict(pc) == taken:
            correct += 1
        pred.update(pc, taken)
    return correct / len(stream)


def biased_stream(pc=0x40, n=500, taken=True):
    return [(pc, taken)] * n


def alternating_stream(pc=0x40, n=500):
    return [(pc, bool(i % 2)) for i in range(n)]


def history_stream(pc=0x40, n=600, period=4):
    # Taken exactly once per `period`: needs history to predict.
    return [(pc, i % period == 0) for i in range(n)]


class TestFactory:
    def test_factory_kinds(self):
        assert isinstance(
            make_branch_predictor(BranchPredictorKind.BIMODAL), BimodalPredictor
        )
        assert isinstance(
            make_branch_predictor(BranchPredictorKind.TAGE), TagePredictor
        )


@pytest.mark.parametrize("cls", ALL_PREDICTORS)
class TestCommonBehaviour:
    def test_learns_always_taken(self, cls):
        assert accuracy(cls(), biased_stream(taken=True)) > 0.95

    def test_learns_always_not_taken(self, cls):
        assert accuracy(cls(), biased_stream(taken=False)) > 0.95

    def test_distinct_pcs_independent(self, cls):
        pred = cls()
        for _ in range(50):
            pred.update(0x40, True)
            pred.update(0x80, False)
        assert pred.predict(0x40) is True
        assert pred.predict(0x80) is False


class TestBimodal:
    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)

    def test_counter_saturates(self):
        pred = BimodalPredictor(entries=16)
        for _ in range(10):
            pred.update(0, True)
        assert pred.table[pred.index(0)] == pred.max_count

    def test_hysteresis(self):
        pred = BimodalPredictor(entries=16)
        for _ in range(10):
            pred.update(0, True)
        pred.update(0, False)  # one miss does not flip a saturated counter
        assert pred.predict(0) is True


class TestTage:
    def test_periodic_pattern_learned_well(self):
        assert accuracy(TagePredictor(), history_stream()) > 0.9

    def test_beats_bimodal_on_periodic_pattern(self):
        t = accuracy(TagePredictor(), history_stream())
        b = accuracy(BimodalPredictor(), history_stream())
        assert t > b

    def test_long_period_needs_long_history(self):
        # Period 12 exceeds short-history correlation but fits TAGE's
        # longer tables.
        stream = history_stream(n=1500, period=12)
        assert accuracy(TagePredictor(), stream) > 0.8

    def test_history_lengths_geometric(self):
        pred = TagePredictor(num_tables=4, min_history=4, max_history=64)
        lengths = [t.history_len for t in pred.tables]
        assert lengths == sorted(lengths)
        assert lengths[0] == 4
        assert lengths[-1] == 64

    def test_fold_preserves_width(self):
        pred = TagePredictor()
        table = pred.tables[-1]
        folded = table.fold((1 << table.history_len) - 1, 10)
        assert 0 <= folded < 1 << 10

    def test_allocation_on_mispredict(self):
        pred = TagePredictor()
        # Train a conflicting pattern; tagged entries should get allocated.
        for i in range(200):
            pred.update(0x44, i % 3 == 0)
        # Untouched slots stay None (lazily materialized); a trained entry
        # has a nonzero tag or a bumped useful counter.
        allocated = sum(
            1
            for table in pred.tables
            for entry in table.table
            if entry is not None and (entry.tag != 0 or entry.useful > 0)
        )
        assert allocated > 0

    def test_mixed_workload_accuracy(self):
        import itertools

        stream = list(
            itertools.chain.from_iterable(
                [(0x40, True), (0x80, i % 2 == 0), (0xC0, i % 4 == 0)]
                for i in range(400)
            )
        )
        assert accuracy(TagePredictor(), stream) > 0.85
