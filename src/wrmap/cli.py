"""Command-line front end: fit, residuals, allocate, replay.

Exit codes: 0 success, 1 domain error (singular fit, failed expectation,
unknown pair, ...), 2 usage or parse error, or stdout that cannot be
written. stdout carries just the tables and transcripts, byte-deterministic
for identical inputs, and stderr at most one error line. Each is built
whole and then written by `_emit` as UTF-8 with LF line endings, whatever
the locale, platform or buffering.

Every subcommand runs on the standard library alone. `replay` needs only
`trace_io` and `core`; the commands that fit or match import `regression`
and `matcher` when they run, and turn their errors into `_DomainError`.
A regression error names its pair, as in `numeric overflow fitting R1:W1`
for a line, a residual, or in `fit` an SSR, that is not finite; a matcher
error keeps its message.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import isfinite
from typing import TYPE_CHECKING, Optional, Sequence

from . import trace_io
from .core import check_token

if TYPE_CHECKING:
    from .matcher import AssignmentMatrix

MARK = "✓"


class _UsageError(Exception):
    pass


class _DomainError(Exception):
    """Well-formed input that has no answer; exit 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a _UsageError, not a usage block, and
    writes `--help` like any other output (argparse would drop a failed
    write of it)."""

    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        _emit(self.format_help())


def _fmt(value: float, precision: str) -> str:
    if value == 0.0:  # avoid "-0" leaking into transcripts
        value = 0.0
    if precision == "full":
        return repr(float(value))
    return f"{value:.6g}"


def _csv_row(precision: str, *fields) -> str:
    """One table row: floats through `_fmt` at the precision, the rest as text."""
    cells = (_fmt(f, precision) if isinstance(f, float) else str(f) for f in fields)
    return ",".join(cells)


def _read_file(path: str) -> bytes:
    """The file's bytes, as written: the parsers decode UTF-8 and see every
    line ending, so a CRLF or invalid UTF-8 is reported as a parse error."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _known_pair(datasets, text: str) -> tuple[str, str]:
    """The observed pair that text spells as `resource:workload`. No name
    holds a ':', so text splits at its first one. A side that is empty or
    that `check_token` rejects is a usage error (exit 2); a pair of names
    that was never observed is `unknown pair` (exit 1)."""
    resource, _, workload = text.partition(":")
    if not resource or not workload:
        raise _UsageError(f"--pair must look like RESOURCE:WORKLOAD, got {text!r}")
    _check_name("--pair", resource)
    _check_name("--pair", workload)
    if (resource, workload) not in datasets:
        raise _DomainError(f"unknown pair {text}")
    return resource, workload


def _fit_all(datasets, pairs):
    from . import regression

    # The message prefix for each error `regression.fit` raises.
    prefixes = {
        regression.SingularDesign: "singular design for",
        regression.InsufficientData: "insufficient data for",
        regression.NumericOverflow: "numeric overflow fitting",
    }
    models = {}
    for pair in pairs:
        try:
            models[pair] = regression.fit(datasets[pair])
        except tuple(prefixes) as exc:
            message = f"{prefixes[type(exc)]} {pair[0]}:{pair[1]}"
            raise _DomainError(message) from exc
    return models


def cmd_fit(args) -> int:
    from . import regression

    datasets = trace_io.parse_observations(_read_file(args.input))
    pairs = sorted(datasets) if args.all else [_known_pair(datasets, args.pair)]
    models = _fit_all(datasets, pairs)
    lines = ["resource,workload,mu0_hat,mu1_hat,ssr,r2,n"]
    for pair in pairs:
        model, data = models[pair], datasets[pair]
        try:
            ssr, r2 = regression.goodness_of_fit(model, data)
            if not isfinite(ssr):
                raise regression.NumericOverflow("the SSR is not finite")
        except regression.NumericOverflow as exc:
            raise _DomainError(f"numeric overflow fitting {pair[0]}:{pair[1]}") from exc
        r2 = "" if r2 is None else r2
        lines.append(_csv_row(args.precision, *pair, *model, ssr, r2, data.n))
    _emit(_transcript(lines))
    return 0


def cmd_residuals(args) -> int:
    from . import regression

    datasets = trace_io.parse_observations(_read_file(args.input))
    pair = _known_pair(datasets, args.pair)
    data = datasets[pair]
    model = _fit_all(datasets, [pair])[pair]
    try:
        es = regression.residuals(model, data)
    except regression.NumericOverflow as exc:
        raise _DomainError(f"numeric overflow fitting {pair[0]}:{pair[1]}") from exc
    lines = ["a,w,r,fitted,residual"]
    for a, (w, r, e) in enumerate(zip(data.ws, data.rs, es), start=1):
        lines.append(_csv_row(args.precision, a, w, r, regression.predict(model, w), e))
    _emit(_transcript(lines))
    return 0


def render_assignment(m: AssignmentMatrix) -> str:
    """Check-mark table: header row of workloads, one labeled row per resource."""
    label_width = max((len(r) for r in m.resources), default=0)
    blank = [" " * len(w) for w in m.workloads]
    marked = dict(m.marks)
    lines = [
        (" " * label_width + "  " + "  ".join(m.workloads)).rstrip()
    ]
    for i, resource in enumerate(m.resources):
        # A row holds at most one mark; the blank cells after it are
        # stripped with the row's trailing spaces, so they are not built.
        j = marked.get(i)
        cells = blank if j is None else blank[:j] + [MARK]
        lines.append((resource.ljust(label_width) + "  " + "  ".join(cells)).rstrip())
    return "\n".join(lines) + "\n"


def _check_name(flag: str, name: str) -> None:
    """A usage error `<flag>: <reason>` for a name that breaks the token rule."""
    try:
        check_token(name)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _parse_names(text: str, flag: str) -> list[str]:
    names = [t for t in text.split(",") if t]
    if not names:
        raise _UsageError(f"{flag} must list at least one name")
    seen = set()
    for name in names:
        _check_name(flag, name)
        if name in seen:
            raise _UsageError(f"{flag} lists {name} more than once")
        seen.add(name)
    return names


def _demand(text: str) -> float:
    """The `--at` value: a finite number, spelled as in the observations CSV."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is not None and not isfinite(value):
        raise _UsageError(f"--at must be a finite number, got {value}")
    if value is None or re.fullmatch(trace_io.NUMBER, text) is None:
        raise _UsageError(f"argument --at: invalid float value: {text!r}")
    return value


def cmd_allocate(args) -> int:
    from . import matcher

    datasets = trace_io.parse_observations(_read_file(args.input))
    resources = _parse_names(args.resources, "--resources")
    workloads = _parse_names(args.workloads, "--workloads")
    # Find the first missing pair before building all R * W pairs, whose
    # list, for names that were never observed, could exhaust memory.
    for r in resources:
        for w in workloads:
            if (r, w) not in datasets:
                raise _DomainError(f"no observations for pair {r}:{w}")
    models = _fit_all(datasets, [(r, w) for r in resources for w in workloads])
    try:
        costs = matcher.build_cost_matrix(models, resources, workloads, args.at)
        assignment = matcher.assign(costs)
    except matcher.MatcherError as exc:
        raise _DomainError(str(exc)) from exc
    table = render_assignment(assignment)
    if args.snapshot:
        state = matcher.matrix_to_state(assignment)
        _write_file(args.snapshot, trace_io.write_state(state))
    _emit(table)
    return 0


def cmd_replay(args) -> int:
    commands = trace_io.parse_replay(_read_file(args.script))
    try:
        state, lines = trace_io.run_replay(commands)
    except trace_io.ExpectationFailed as exc:
        _emit(_transcript(exc.report_lines))
        raise _DomainError(exc) from exc
    if args.snapshot_out:
        _write_file(args.snapshot_out, trace_io.write_state(state))
    _emit(_transcript(lines))
    return 0


def _transcript(lines: Sequence[str]) -> str:
    """The lines, each LF-terminated, for one write ("" if none)."""
    return "".join(f"{line}\n" for line in lines)


def _emit(text: str, stream: str = "stdout") -> None:
    """Write text to `sys.stdout` or `sys.stderr` as UTF-8 bytes.

    The bytes go to the stream's raw layer until all of them are taken, so
    neither the locale nor the buffering mode can change them, and no byte
    is left in a Python buffer for the flush at exit to retry; argv's
    undecodable bytes keep their escapes (`\\udcff`). A failed stdout write
    is a usage error, and a failed stderr write is dropped, as nothing is
    left to report it on. A `StringIO`, with no binary layer, takes the text.
    """
    out = getattr(sys, stream)
    if out is not None and not hasattr(out, "buffer"):
        out.write(text)
        return
    view = memoryview(text.encode("utf-8", "backslashreplace"))
    try:
        if out is None:  # Python found the descriptor closed at start-up
            raise OSError("the descriptor is closed")
        out.flush()
        # Unbuffered (`python -u`, PYTHONUNBUFFERED), the binary layer is raw.
        raw = getattr(out.buffer, "raw", out.buffer)
        while view:
            view = view[raw.write(view):]
    except OSError as exc:
        if stream == "stdout":
            raise _UsageError(f"cannot write stdout: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wrmap",
        description="Workload-resource regression fitting and assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit per-pair regression models")
    fit.add_argument("--input", required=True, help="observations CSV")
    group = fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", help="RESOURCE:WORKLOAD to fit")
    group.add_argument("--all", action="store_true", help="fit every pair")
    fit.add_argument("--precision", choices=["short", "full"], default="short")
    fit.set_defaults(func=cmd_fit)

    res = sub.add_parser("residuals", help="per-observation residual table")
    res.add_argument("--input", required=True, help="observations CSV")
    res.add_argument("--pair", required=True, help="RESOURCE:WORKLOAD")
    res.add_argument("--precision", choices=["short", "full"], default="short")
    res.set_defaults(func=cmd_residuals)

    alloc = sub.add_parser("allocate", help="optimal workload-resource matching")
    alloc.add_argument("--input", required=True, help="observations CSV")
    alloc.add_argument("--at", required=True, type=_demand, help="demand level")
    alloc.add_argument("--resources", required=True, help="comma-separated names")
    alloc.add_argument("--workloads", required=True, help="comma-separated names")
    alloc.add_argument("--snapshot", help="write resulting state snapshot here")
    alloc.set_defaults(func=cmd_allocate)

    replay = sub.add_parser("replay", help="run a state-machine replay script")
    replay.add_argument("--script", required=True, help="replay script path")
    replay.add_argument("--snapshot-out", dest="snapshot_out", help="final state file")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, _DomainError, trace_io.ParseError) as exc:
        _emit(f"error: {exc}\n", "stderr")
        return 1 if isinstance(exc, _DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
