"""Command-line front end: fit, residuals, allocate, replay.

Exit codes: 0 success, 1 domain error (singular fit, failed expectation,
missing model, ...), 2 usage or parse error. Errors go to stderr only;
stdout carries just the tables and transcripts, byte-deterministic for
identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from math import isfinite
from typing import Optional, Sequence

from . import matcher, regression, trace_io

MARK = "✓"


class _UsageError(Exception):
    pass


def _fmt(value: float, precision: str) -> str:
    if value == 0.0:  # avoid "-0" leaking into transcripts
        value = 0.0
    if precision == "full":
        return repr(float(value))
    return f"{value:.6g}"


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise _UsageError(f"--pair must look like RESOURCE:WORKLOAD, got {text!r}")
    return parts[0], parts[1]


def _fit_all(datasets, pairs):
    models = {}
    for pair in pairs:
        try:
            models[pair] = regression.fit(datasets[pair])
        except regression.SingularDesign as exc:
            raise regression.SingularDesign(
                f"singular design for {pair[0]}:{pair[1]}"
            ) from exc
        except regression.InsufficientData as exc:
            raise regression.InsufficientData(
                f"insufficient data for {pair[0]}:{pair[1]}"
            ) from exc
    return models


def cmd_fit(args) -> int:
    datasets = trace_io.parse_observations(_read_file(args.input))
    if args.all:
        pairs = sorted(datasets)
    else:
        pair = _parse_pair(args.pair)
        if pair not in datasets:
            print(f"error: unknown pair {pair[0]}:{pair[1]}", file=sys.stderr)
            return 1
        pairs = [pair]
    models = _fit_all(datasets, pairs)
    print("resource,workload,mu0_hat,mu1_hat,ssr,r2,n")
    for pair in pairs:
        model = models[pair]
        try:
            r2 = _fmt(regression.goodness_of_fit(model, datasets[pair]), args.precision)
        except regression.ConstantResponse:
            r2 = ""
        print(
            f"{pair[0]},{pair[1]},{_fmt(model.mu0_hat, args.precision)},"
            f"{_fmt(model.mu1_hat, args.precision)},{_fmt(model.ssr, args.precision)},"
            f"{r2},{model.n}"
        )
    return 0


def cmd_residuals(args) -> int:
    datasets = trace_io.parse_observations(_read_file(args.input))
    pair = _parse_pair(args.pair)
    if pair not in datasets:
        print(f"error: unknown pair {pair[0]}:{pair[1]}", file=sys.stderr)
        return 1
    data = datasets[pair]
    model = _fit_all(datasets, [pair])[pair]
    print("a,w,r,fitted,residual")
    for a, obs in enumerate(data.observations, start=1):
        fitted = regression.predict(model, obs.w)
        print(
            f"{a},{_fmt(obs.w, args.precision)},{_fmt(obs.r, args.precision)},"
            f"{_fmt(fitted, args.precision)},{_fmt(obs.r - fitted, args.precision)}"
        )
    return 0


def render_assignment(m: matcher.AssignmentMatrix) -> str:
    """Check-mark table: header row of workloads, one labeled row per resource."""
    label_width = max((len(r) for r in m.resources), default=0)
    widths = [len(w) for w in m.workloads]
    marked = {i: j for i, j in m.marks}
    lines = [
        (" " * label_width + "  " + "  ".join(m.workloads)).rstrip()
    ]
    for i, resource in enumerate(m.resources):
        cells = []
        for j, width in enumerate(widths):
            cell = MARK if marked.get(i) == j else ""
            cells.append(f"{cell:<{width}}")
        lines.append((f"{resource:<{label_width}}" + "  " + "  ".join(cells)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_names(text: str, flag: str) -> list[str]:
    names = [t for t in text.split(",") if t]
    if not names:
        raise _UsageError(f"{flag} must list at least one name")
    return names


def cmd_allocate(args) -> int:
    if not isfinite(args.at):
        raise _UsageError(f"--at must be a finite number, got {args.at}")
    datasets = trace_io.parse_observations(_read_file(args.input))
    resources = _parse_names(args.resources, "--resources")
    workloads = _parse_names(args.workloads, "--workloads")
    needed = [(r, w) for r in resources for w in workloads]
    missing = [pair for pair in needed if pair not in datasets]
    if missing:
        r, w = missing[0]
        print(f"error: no observations for pair {r}:{w}", file=sys.stderr)
        return 1
    models = _fit_all(datasets, needed)
    costs = matcher.build_cost_matrix(models, resources, workloads, args.at)
    assignment = matcher.assign(costs)
    sys.stdout.write(render_assignment(assignment))
    if args.snapshot:
        state = matcher.matrix_to_state(assignment)
        _write_file(args.snapshot, trace_io.write_state(state))
    return 0


def cmd_replay(args) -> int:
    commands = trace_io.parse_replay(_read_file(args.script))
    try:
        state, lines = trace_io.run_replay(commands)
    except trace_io.ExpectationFailed as exc:
        for line in exc.report_lines:
            print(line)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if args.snapshot_out:
        _write_file(args.snapshot_out, trace_io.write_state(state))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    alloc.add_argument("--at", required=True, type=float, help="demand level")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, trace_io.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (regression.RegressionError, matcher.MatcherError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    entry()
