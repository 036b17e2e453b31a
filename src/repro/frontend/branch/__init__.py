"""Branch predictors: bimodal and a simplified TAGE."""

from repro.common.params import BranchPredictorKind
from repro.frontend.branch.bimodal import BimodalPredictor
from repro.frontend.branch.tage import TagePredictor


def make_branch_predictor(kind: BranchPredictorKind):
    """Factory used by the core pipeline."""
    if kind is BranchPredictorKind.BIMODAL:
        return BimodalPredictor()
    if kind is BranchPredictorKind.TAGE:
        return TagePredictor()
    raise ValueError(f"unknown branch predictor kind {kind!r}")


__all__ = [
    "BimodalPredictor",
    "TagePredictor",
    "make_branch_predictor",
]
