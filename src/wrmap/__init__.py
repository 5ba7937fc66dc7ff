"""Workload-resource mapping toolkit.

An allocation state machine with three-valued reports, closed-form simple
linear regression, minimum-cost assignment matching, and deterministic
trace formats, wired together by the `wrmap` CLI.

The package needs the standard library only. `import wrmap` loads the
state machine in `core`; the matcher and regression names are served on
first use through the module `__getattr__` (PEP 562), so a `replay` run
never loads `wrmap.matcher` or `wrmap.regression`.
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

# Package-level names that live in a module loaded on first use.
_LAZY = {
    **dict.fromkeys(
        ["AssignmentMatrix", "CostMatrix", "assign", "build_cost_matrix",
         "matrix_to_state", "state_to_matrix"],
        "matcher",
    ),
    **dict.fromkeys(
        ["Dataset", "Observation", "RegressionModel", "fit", "goodness_of_fit",
         "predict", "residuals", "ssr"],
        "regression",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "AllocationState",
    "OpOutcome",
    "Report",
    "add",
    "available",
    "find",
    "init",
    "map_query",
    *_LAZY,
]

__version__ = "0.1.0"
