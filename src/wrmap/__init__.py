"""Workload-resource mapping toolkit.

An allocation state machine with three-valued reports, closed-form simple
linear regression, minimum-cost assignment matching, and deterministic
trace formats, wired together by the `wrmap` CLI.

The package needs the standard library only.
"""

from .core import (
    AllocationState,
    OpOutcome,
    Report,
    add,
    available,
    find,
    init,
    map_query,
)
from .matcher import (
    AssignmentMatrix,
    CostMatrix,
    assign,
    build_cost_matrix,
    matrix_to_state,
    state_to_matrix,
)
from .regression import (
    Dataset,
    Observation,
    RegressionModel,
    fit,
    goodness_of_fit,
    predict,
    residuals,
    ssr,
)

__all__ = [
    "AllocationState",
    "OpOutcome",
    "Report",
    "add",
    "available",
    "find",
    "init",
    "map_query",
    "AssignmentMatrix",
    "CostMatrix",
    "assign",
    "build_cost_matrix",
    "matrix_to_state",
    "state_to_matrix",
    "Dataset",
    "Observation",
    "RegressionModel",
    "fit",
    "goodness_of_fit",
    "predict",
    "residuals",
    "ssr",
]

__version__ = "0.1.0"
