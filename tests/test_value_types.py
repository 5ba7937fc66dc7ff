"""The package's value types: read-only fields and validating constructors."""

import copy
import math
import pickle
import re

import pytest

from wrmap.core import AllocationState, OpOutcome, Report
from wrmap.matcher import AssignmentMatrix, CostMatrix
from wrmap.regression import Dataset, RegressionModel
from wrmap.trace_io import ReplayCommand

COSTS = CostMatrix(("R1", "R2"), ("W1",), ((1.0,), (2.0,)))

# One value of each type, with the attributes its users read.
VALUES = [
    (AllocationState([("R1", "W1")]), ["pairs", "allocation"]),
    (OpOutcome(AllocationState(), Report.OK), ["state", "report", "payload"]),
    (Dataset([1, 2], [2, 3]), ["ws", "rs"]),
    (RegressionModel(0.0, 1.0), ["mu0_hat", "mu1_hat"]),
    (ReplayCommand(1, "INIT"), ["line", "op", "args", "expect"]),
    (COSTS, ["resources", "workloads", "cost"]),
    (
        AssignmentMatrix(("R1", "R2"), ("W1",), frozenset({(0, 0)})),
        ["resources", "workloads", "marks"],
    ),
]


@pytest.mark.parametrize(
    "value, fields", VALUES, ids=[type(value).__name__ for value, _ in VALUES]
)
def test_fields_are_read_only(value, fields):
    for field in fields + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "value, fields", VALUES, ids=[type(value).__name__ for value, _ in VALUES]
)
def test_copies_equal_the_original(value, fields, round_trip):
    twin = round_trip(value)
    assert type(twin) is type(value)
    assert twin == value
    for field in fields:
        assert getattr(twin, field) == getattr(value, field)


@pytest.mark.parametrize(
    "resources, workloads, cost, message",
    [
        (("R2", "R1"), ("W1",), ((1.0,), (2.0,)), "resources must be in lexicographic"),
        (("R1",), ("W2", "W1"), ((1.0, 2.0),), "workloads must be in lexicographic"),
        (("R1", "R2"), ("W1",), ((1.0,),), "row count"),
        (("R1", "R2"), ("W1",), ((1.0,), (2.0,), (3.0,)), "row count"),
        (("R1",), ("W1", "W2"), ((1.0,),), "column count"),
        (("R1",), ("W1", "W2"), ((1.0, 2.0, 3.0),), "column count"),
        (("R1",), ("W1", "W2"), ((1.0, math.nan),), "finite"),
        (("R1",), ("W1", "W2"), ((-math.inf, 1.0),), "finite"),
        (("R1", "R1"), ("W1",), ((1.0,), (2.0,)), "resources must be in lexicographic"),
        (("R1",), ("W1", "W1"), ((1.0, 2.0),), "workloads must be in lexicographic"),
        # Every name is a token, so rendered tables and snapshots need no quoting.
        (("R 1",), ("W1",), ((1.0,),), "^token may not contain whitespace or commas: 'R 1'$"),
        (("R,1",), ("W1",), ((1.0,),), "^token may not contain whitespace or commas: 'R,1'$"),
        (("R1",), ("",), ((1.0,),), "^token must be a non-empty string$"),
        (("R1",), ("W\t1",), ((1.0,),), r"^token may not contain whitespace or commas: 'W\\t1'$"),
        # The first non-finite cell in row order is named.
        (
            ("R1", "R2"), ("W1", "W2"), ((1.0, math.nan), (math.inf, 4.0)),
            "^predicted cost for pair R1:W2 is not finite \\(nan\\)$",
        ),
    ],
)
def test_cost_matrix_rejects_malformed_input(resources, workloads, cost, message):
    with pytest.raises(ValueError, match=message):
        CostMatrix(resources, workloads, cost)


@pytest.mark.parametrize(
    "value, fields", VALUES, ids=[type(value).__name__ for value, _ in VALUES]
)
def test_equality_with_another_type_is_not_implemented(value, fields):
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


@pytest.mark.parametrize(
    "mark", [(0, 1), (1, 0), (-1, 0), (0, -1)], ids=lambda mark: "%d,%d" % mark
)
def test_assignment_matrix_rejects_a_mark_out_of_range(mark):
    with pytest.raises(ValueError, match=f"^mark out of range: {re.escape(str(mark))}$"):
        AssignmentMatrix(("R1",), ("W1",), frozenset({mark}))
