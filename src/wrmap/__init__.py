"""Workload-resource mapping toolkit.

An allocation state machine with three-valued reports, closed-form simple
linear regression, minimum-cost assignment matching, and deterministic
trace formats, wired together by the `wrmap` CLI.

The package needs the standard library only. The matcher names load
`wrmap.matcher` on first access, so the subcommands that never match
(`fit`, `residuals`, `replay`) do not pay for importing it.
"""

from importlib import import_module

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

_MATCHER_NAMES = (
    "AssignmentMatrix",
    "CostMatrix",
    "assign",
    "build_cost_matrix",
    "matrix_to_state",
    "state_to_matrix",
)


def __getattr__(name: str):
    if name not in _MATCHER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".matcher", __name__), name)
    globals()[name] = value
    return value
