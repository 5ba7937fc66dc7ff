"""The package's value types and errors: read-only fields, validating
constructors, and copies and pickles that rebuild through them."""

import copy
import importlib
import math
import pickle
import pkgutil
import re

import pytest

import wrmap
from wrmap.core import AllocationState, OpOutcome, Report
from wrmap.matcher import AssignmentMatrix, CostMatrix
from wrmap.regression import Dataset, RegressionModel
from wrmap.trace_io import ExpectationFailed, ParseError, ReplayCommand

COSTS = CostMatrix(("R1", "R2"), ("W1",), ((1.0,), (2.0,)))
MARKS = AssignmentMatrix(("R1", "R2"), ("W1",), frozenset({(0, 0)}))
NAN_COST = r"^predicted cost for pair R2:W1 is not finite \(nan\)$"
NOT_A_TOKEN = "^token may not contain whitespace, ',', ':' or '#': "

# One value of each type, with the attributes its users read.
VALUES = [
    (AllocationState([("R1", "W1")]), ["pairs", "allocation"]),
    (OpOutcome(AllocationState(), Report.OK), ["state", "report", "payload"]),
    (Dataset([1, 2], [2, 3]), ["ws", "rs"]),
    (RegressionModel(0.0, 1.0), ["mu0_hat", "mu1_hat"]),
    (ReplayCommand(1, "INIT"), ["line", "op", "args", "expect"]),
    (COSTS, ["resources", "workloads", "cost"]),
    (MARKS, ["resources", "workloads", "marks"]),
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
        (("R 1",), ("W1",), ((1.0,),), NOT_A_TOKEN + "'R 1'$"),
        (("R,1",), ("W1",), ((1.0,),), NOT_A_TOKEN + "'R,1'$"),
        (("R1",), ("",), ((1.0,),), "^token must be a non-empty string$"),
        (("R1",), ("W\t1",), ((1.0,),), NOT_A_TOKEN + r"'W\\t1'$"),
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


# A bad value for one field of a checked value, and the error it raises.
BAD_FIELDS = [
    (COSTS, "cost", ((1.0,), (math.nan,)), NAN_COST),
    (MARKS, "marks", frozenset({(5, 5)}), r"^mark out of range: \(5, 5\)$"),
    (MARKS, "workloads", ("W1", "W1"), "^workloads must not repeat a name$"),
]


@pytest.mark.parametrize(
    "value, field, bad, message",
    BAD_FIELDS,
    ids=[f"{type(value).__name__}-{field}" for value, field, _, _ in BAD_FIELDS],
)
def test_replace_and_make_go_through_the_constructor(value, field, bad, message):
    with pytest.raises(ValueError, match=message):
        value._replace(**{field: bad})
    fields = [bad if name == field else old for name, old in zip(value._fields, value)]
    with pytest.raises(ValueError, match=message):
        type(value)._make(fields)


# A protocol-0 pickle, one of its substrings, what to put in its place, and
# the error the edited pickle raises. Protocols 0 and 1 would otherwise
# rebuild a tuple or restore a state's slots without the checks.
EDITED_PICKLES = [
    (COSTS, b"F2.0\n", b"Fnan\n", NAN_COST),
    (MARKS, b"VR2\n", b"VR1\n", "^resources must not repeat a name$"),
    (AllocationState([("R1", "W1")]), b"VR1\n", b"VR,\n", NOT_A_TOKEN + "'R,'$"),
    (AllocationState([("R1", "W1"), ("R2", "W1")]), b"VR2\n", b"VR1\n",
     "^duplicate resource in allocation: 'R1'$"),
]


@pytest.mark.parametrize(
    "value, old, new, message",
    EDITED_PICKLES,
    ids=["CostMatrix", "AssignmentMatrix", "AllocationState-token",
         "AllocationState-duplicate"],
)
def test_pickles_rebuild_through_the_constructor(value, old, new, message):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    text = pickle.dumps(value, 0)
    assert old in text
    with pytest.raises(ValueError, match=message):
        pickle.loads(text.replace(old, new))


def _error_classes():
    """Every exception class defined in a module of the package."""
    for info in pkgutil.iter_modules(wrmap.__path__):
        module = importlib.import_module(f"{wrmap.__name__}.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                yield value


ERRORS = sorted(_error_classes(), key=lambda cls: (cls.__module__, cls.__name__))
# The errors whose constructor takes more than a message.
ERROR_ARGS = {
    ParseError: (3, "invalid number"),
    ExpectationFailed: (4, Report.OK, Report.NOT_MAPPED, ["2 OK", "3 OK", "4 NotMapped"]),
}
ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy}
for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
    ROUND_TRIPS[f"pickle{protocol}"] = (
        lambda error, protocol=protocol: pickle.loads(pickle.dumps(error, protocol))
    )


def _public(error):
    return {name: value for name, value in vars(error).items() if not name.startswith("_")}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_errors_copy_and_pickle(cls, round_trip):
    error = cls(*ERROR_ARGS.get(cls, ("no fitted model for pair R1:W1",)))
    twin = round_trip(error)
    assert type(twin) is cls
    assert (str(twin), twin.args, _public(twin)) == (str(error), error.args, _public(error))
