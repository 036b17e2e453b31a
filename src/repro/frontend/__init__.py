"""Front-end substrate: branch prediction (fetch lives in the core pipeline)."""

from repro.frontend.branch import (
    BimodalPredictor,
    TagePredictor,
    make_branch_predictor,
)

__all__ = [
    "BimodalPredictor",
    "TagePredictor",
    "make_branch_predictor",
]
