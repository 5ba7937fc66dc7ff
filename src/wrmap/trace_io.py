"""External formats: observation CSV, state snapshots, replay scripts.

All formats are deterministic down to the byte: UTF-8, LF line endings,
lexicographically sorted keys and payload sets, shortest round-trip decimal
numbers. Parsing is fail-fast: the first malformed line aborts with its
line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Optional, Union

from . import core
from .core import AllocationState, Report, check_token
from .regression import Dataset, Observation

OBSERVATIONS_HEADER = "resource,workload,w,r"


class TraceError(Exception):
    pass


class ParseError(TraceError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ExpectationFailed(TraceError):
    def __init__(self, line: int, expected: Report, actual: Report, lines=None):
        super().__init__(
            f"expectation failed at line {line}: expected {expected.value}, "
            f"got {actual.value}"
        )
        self.line = line
        self.expected = expected
        self.actual = actual
        # report lines produced before (and including) the failing command
        self.report_lines = list(lines or [])


class SnapshotError(TraceError):
    pass


def _decode(text: Union[str, bytes]) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"invalid UTF-8: {exc}") from exc
    return text


def _check_tokens(line: int, tokens: Iterable[str]) -> None:
    for token in tokens:
        try:
            check_token(token)
        except ValueError as exc:
            raise ParseError(line, str(exc)) from exc


def parse_observations(text: Union[str, bytes]) -> dict[tuple[str, str], Dataset]:
    """Parse the observations CSV into per-pair datasets.

    Header must be exactly `resource,workload,w,r`; records are grouped by
    (resource, workload) preserving file order within each group.
    """
    content = _decode(text)
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "missing header")
    if lines[0] != OBSERVATIONS_HEADER:
        raise ParseError(1, f"header must be exactly {OBSERVATIONS_HEADER!r}")
    groups: dict[tuple[str, str], list[Observation]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 columns, got {len(fields)}")
        resource, workload, w_text, r_text = fields
        _check_tokens(lineno, (resource, workload))
        try:
            w = float(w_text)
            r = float(r_text)
        except ValueError as exc:
            raise ParseError(lineno, "invalid number") from exc
        if not (isfinite(w) and isfinite(r)):
            raise ParseError(lineno, "invalid number")
        groups.setdefault((resource, workload), []).append(Observation(w, r))
    return {pair: Dataset(tuple(obs)) for pair, obs in groups.items()}


@dataclass(frozen=True)
class ReplayCommand:
    line: int
    op: str  # INIT | ADD | FIND | MAP
    args: tuple[str, ...] = ()
    expect: Optional[Report] = None


_REPORT_BY_NAME = {r.value: r for r in Report}
_ARITY = {"INIT": 0, "ADD": 2, "FIND": 1, "MAP": 1}
_CORE_OP = {"ADD": "add", "FIND": "find", "MAP": "map_query"}


def parse_replay(text: Union[str, bytes]) -> list[ReplayCommand]:
    """Parse a replay script: one command per line, `#` starts a comment."""
    commands = []
    for lineno, raw in enumerate(_decode(text).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0]
        if op not in _ARITY:
            raise ParseError(lineno, f"unknown command {op!r}")
        rest = tokens[1:]
        expect = None
        if len(rest) >= 2 and rest[-2] == "EXPECT":
            name = rest[-1]
            if name not in _REPORT_BY_NAME:
                raise ParseError(lineno, f"unknown report {name!r}")
            expect = _REPORT_BY_NAME[name]
            rest = rest[:-2]
        if op == "INIT" and expect is not None:
            raise ParseError(lineno, "INIT takes no EXPECT clause")
        if len(rest) != _ARITY[op]:
            raise ParseError(
                lineno, f"{op} takes {_ARITY[op]} argument(s), got {len(rest)}"
            )
        _check_tokens(lineno, rest)
        commands.append(ReplayCommand(lineno, op, tuple(rest), expect))
    return commands


def run_replay(
    commands: list[ReplayCommand],
    state: Optional[AllocationState] = None,
) -> tuple[AllocationState, list[str]]:
    """Execute replay commands in order against the state machine.

    Each command yields one report line `<lineNo> <REPORT> [payload]` with
    set payloads rendered in sorted order. An EXPECT mismatch stops the run.
    """
    if state is None:
        state = core.init()
    lines: list[str] = []
    for cmd in commands:
        if cmd.op == "INIT":
            state, report, payload = core.init(), Report.OK, None
        else:
            # Looked up on each call, so wrappers placed on `core` see it.
            outcome = getattr(core, _CORE_OP[cmd.op])(state, *cmd.args)
            state, report, payload = outcome.state, outcome.report, outcome.payload
        text = f"{cmd.line} {report.value}"
        if isinstance(payload, str):
            text += f" {payload}"
        elif isinstance(payload, frozenset) and payload:
            text += " " + ",".join(sorted(payload))
        lines.append(text)
        if cmd.expect is not None and report != cmd.expect:
            raise ExpectationFailed(cmd.line, cmd.expect, report, lines)
    return state, lines


def write_state(s: AllocationState) -> str:
    """Canonical snapshot: sorted-key JSON object, LF-terminated."""
    payload = {"allocation": s.allocation}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def read_state(text: Union[str, bytes]) -> AllocationState:
    """Inverse of write_state; the available set is rebuilt from the keys."""
    try:
        data = json.loads(_decode(text))
    except ParseError as exc:
        raise SnapshotError(exc.reason) from exc
    except json.JSONDecodeError as exc:
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
