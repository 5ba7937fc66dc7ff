"""External formats: observation CSV, state snapshots, replay scripts.

All formats are deterministic down to the byte: UTF-8, LF line endings,
lexicographically sorted keys and payload sets, shortest round-trip decimal
numbers. Parsing is fail-fast: the first malformed line aborts with its
line number.

An observations line is `resource,workload,w,r`. A token matches
`core.TOKEN`, the pattern of `check_token` (non-empty; no whitespace and
none of `core.SEPARATORS`, so every format can write it); a number is
ASCII decimal with an optional sign, fraction and exponent, and must be
finite as a float (no `_`, spaces, `nan`/`inf`, hex or CR). The parser
validates before it builds: one pass of the row pattern over every data
line, in C, then a Python loop that only splits each line at its last two
commas and appends both number strings to the list of its
`resource,workload` key, in first-appearance order. Each pair slices its
list into the `w` and `r` columns and passes them to `Dataset`, whose
constructor converts them to floats and rejects a non-finite one. When
either check fails, `_raise_first_error` rescans the lines in order and
reports the first bad one, whatever its fault.
"""

from __future__ import annotations

import json
import re
from math import isfinite
from typing import TYPE_CHECKING, Iterable, NamedTuple, NoReturn, Optional, Union

from . import core
from .core import SEPARATORS, TOKEN, AllocationState, OpOutcome, Report, check_token

if TYPE_CHECKING:
    from .regression import Dataset

OBSERVATIONS_HEADER = "resource,workload,w,r"


class TraceError(Exception):
    pass


class ParseError(TraceError):
    # The arguments go to `args` whole, so copy and pickle rebuild the error.
    def __init__(self, line: int, reason: str):
        super().__init__(line, reason)
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


class ExpectationFailed(TraceError):
    def __init__(self, line: int, expected: Report, actual: Report, lines=None):
        super().__init__(line, expected, actual, lines)
        self.line = line
        self.expected = expected
        self.actual = actual
        # report lines produced before (and including) the failing command
        self.report_lines = list(lines or [])

    def __str__(self) -> str:
        return (
            f"expectation failed at line {self.line}: expected {self.expected.value}, "
            f"got {self.actual.value}"
        )


class SnapshotError(TraceError):
    pass


def _decode(text: Union[str, bytes]) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"invalid UTF-8: {exc}") from exc
    return text


def _check_tokens(line: int, tokens: Iterable[str]) -> None:
    for token in tokens:
        try:
            check_token(token)
        except ValueError as exc:
            raise ParseError(line, str(exc)) from exc


# A number is ASCII decimal: optional sign, digits with an optional
# fraction (or a bare fraction), optional exponent. Each repetition is
# followed only by characters it cannot match, so a failed match
# backtracks in linear time. The CLI parses `allocate --at` with it too.
NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ROW = re.compile(rf"{TOKEN},{TOKEN},{NUMBER},{NUMBER}")


def _raise_first_error(rows: list[str]) -> NoReturn:
    """Raise the error of the first data row that fails a check.

    A row fails when `_ROW` does not match it or when a number it matches
    is not finite as a float (`1e999`). The reason names the first check
    the row fails: the column count, then each token, and otherwise the
    numbers.
    """
    for lineno, row in enumerate(rows, start=2):
        numbers = row.rsplit(",", 2)[1:]
        if _ROW.fullmatch(row) and all(map(isfinite, map(float, numbers))):
            continue
        fields = row.split(",")
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 columns, got {len(fields)}")
        _check_tokens(lineno, fields[:2])
        raise ParseError(lineno, "invalid number")
    raise AssertionError("no row fails a check")


def parse_observations(text: Union[str, bytes]) -> dict[tuple[str, str], Dataset]:
    """Parse the observations CSV into per-pair datasets.

    Header must be exactly `resource,workload,w,r`; records are grouped by
    (resource, workload) preserving file order within each group. The
    line grammar and the column layout are described in the module
    docstring.
    """
    from .regression import Dataset

    content = _decode(text)
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "missing header")
    if lines[0] != OBSERVATIONS_HEADER:
        raise ParseError(1, f"header must be exactly {OBSERVATIONS_HEADER!r}")
    rows = lines[1:]
    if not all(map(_ROW.fullmatch, rows)):
        _raise_first_error(rows)
    # "resource,workload" -> its number strings, w and r interleaved.
    numbers: dict[str, list[str]] = {}
    get = numbers.get
    for row in rows:
        key, w, r = row.rsplit(",", 2)
        column = get(key)
        if column is None:
            numbers[key] = column = []
        column += w, r
    datasets = {}
    try:
        for key, column in numbers.items():
            resource, workload = key.split(",")
            datasets[resource, workload] = Dataset(column[0::2], column[1::2])
    except ValueError:
        _raise_first_error(rows)
    return datasets


class ReplayCommand(NamedTuple):
    line: int
    op: str  # INIT | ADD | FIND | MAP
    args: tuple[str, ...] = ()
    expect: Optional[Report] = None


_ARITY = {"INIT": 0, "ADD": 2, "FIND": 1, "MAP": 1}


# A comment starts at a `#` that begins a word: at the start of a line or
# after whitespace.
_COMMENT = re.compile(r"(?<!\S)#")
# Whether a text holds a character that no name may hold, besides the
# whitespace at which `str.split()` cuts words.
_has_separator = re.compile(f"[{re.escape(SEPARATORS)}]").search


def parse_replay(text: Union[str, bytes]) -> list[ReplayCommand]:
    """Parse a replay script: one command per line.

    A `#` that begins a word starts a comment, which runs to the end of
    the line; a `#` inside a word belongs to it, so `FIND R#1` fails the
    token rule. A command takes exactly its arity's worth of arguments; an
    `EXPECT <REPORT>` clause is recognised only right after them, so an
    argument may itself be spelled `EXPECT`. `str.split()` already yields
    non-empty words free of whitespace, so the arguments are checked with
    `check_token` only on a line whose code holds one of
    `core.SEPARATORS`. A line that holds a CR is an error, so a CRLF
    script fails at its first line.
    """
    commands = []
    for lineno, raw in enumerate(_decode(text).split("\n"), start=1):
        if "\r" in raw:
            raise ParseError(lineno, "carriage return: lines end with LF alone")
        code = _COMMENT.split(raw, 1)[0] if "#" in raw else raw
        tokens = code.split()
        if not tokens:
            continue
        op, *rest = tokens
        arity = _ARITY.get(op)
        if arity is None:
            raise ParseError(lineno, f"unknown command {op!r}")
        args, clause = rest[:arity], rest[arity:]
        expect = None
        if len(clause) == 2 and clause[0] == "EXPECT":
            try:
                expect = Report(clause[1])
            except ValueError:
                raise ParseError(lineno, f"unknown report {clause[1]!r}") from None
            if op == "INIT":
                raise ParseError(lineno, "INIT takes no EXPECT clause")
        elif len(rest) != arity:
            raise ParseError(lineno, f"{op} takes {arity} argument(s), got {len(rest)}")
        if _has_separator(code):
            _check_tokens(lineno, args)
        commands.append(ReplayCommand(lineno, op, tuple(args), expect))
    return commands


def run_replay(commands: list[ReplayCommand]) -> tuple[AllocationState, list[str]]:
    """Execute replay commands in order, starting from the initial state.

    Each command yields one report line `<lineNo> <REPORT> [payload]`; a
    MAP payload, already sorted, is joined with commas. An EXPECT mismatch
    stops the run. The core operations are bound when the run starts, so
    wrappers placed on `core` before the call see every command.
    """
    ops = {"INIT": lambda _: OpOutcome(core.init(), Report.OK), "ADD": core.add,
           "FIND": core.find, "MAP": core.map_query}
    state = core.init()
    lines: list[str] = []
    for cmd in commands:
        state, report, payload = ops[cmd.op](state, *cmd.args)
        if isinstance(payload, tuple):
            payload = ",".join(payload)
        text = f"{cmd.line} {report.value}"
        lines.append(f"{text} {payload}" if payload else text)
        if cmd.expect is not None and report != cmd.expect:
            raise ExpectationFailed(cmd.line, cmd.expect, report, lines)
    return state, lines


def write_state(s: AllocationState) -> str:
    """Canonical snapshot: sorted-key JSON object, LF-terminated."""
    payload = {"allocation": s.allocation}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent overwrite."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise SnapshotError(f"repeated key {json.dumps(key)} in snapshot")
        data[key] = value
    return data


def read_state(text: Union[str, bytes]) -> AllocationState:
    """Inverse of write_state; the available set is rebuilt from the keys."""
    try:
        data = json.loads(_decode(text), object_pairs_hook=_object_without_repeats)
    except ParseError as exc:
        raise SnapshotError(exc.reason) from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"allocation"}:
        raise SnapshotError("snapshot must be an object with key 'allocation'")
    allocation = data["allocation"]
    if not isinstance(allocation, dict):
        raise SnapshotError("'allocation' must be an object")
    try:
        return AllocationState(allocation.items())
    except (ValueError, TypeError) as exc:
        raise SnapshotError(str(exc)) from exc
