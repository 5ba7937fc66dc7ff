"""Independent oracles for the benchmark's CLI outputs.

Each oracle is built once at set-up from the generator's values, never from
`wrmap` code, and then judges every invocation's stdout (and snapshot).
`check` returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
import math
from math import fsum

import numpy as np
from scipy.optimize import linear_sum_assignment

MARK = "✓"


def centered_ols(points):
    """Two-pass centered least squares: (intercept, slope, ssr, r2, n)."""
    n = len(points)
    w_bar = fsum(w for w, _ in points) / n
    r_bar = fsum(r for _, r in points) / n
    sxx = fsum((w - w_bar) ** 2 for w, _ in points)
    sxy = fsum((w - w_bar) * (r - r_bar) for w, r in points)
    slope = sxy / sxx
    intercept = r_bar - slope * w_bar
    ssr = fsum((r - intercept - slope * w) ** 2 for w, r in points)
    sst = fsum((r - r_bar) ** 2 for _, r in points)
    r2 = 1.0 - ssr / sst if sst else None
    return intercept, slope, ssr, r2, n


def _close_at_6g(text: str, expected: float) -> bool:
    """Does a `.6g`-printed number agree with `expected` at that precision?

    Equal strings pass; otherwise allow one unit in the sixth significant
    digit, so two correct computations that round to neighbouring values
    both pass while any real error fails.
    """
    try:
        value = float(text)
    except ValueError:
        return False
    if f"{expected:.6g}" == text:
        return True
    if expected == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(expected))) - 5)
    return abs(value - expected) <= unit


class FitAllOracle:
    """`fit --all`: header plus one line per sorted pair, checked at `.6g`."""

    HEADER = "resource,workload,mu0_hat,mu1_hat,ssr,r2,n"

    def __init__(self, groups):
        self.expected = [(pair, centered_ols(groups[pair])) for pair in sorted(groups)]

    def check(self, stdout: str, snapshot: str | None) -> str | None:
        lines = stdout.split("\n")
        if lines[-1] != "":
            return "stdout does not end with a newline"
        lines.pop()
        if not lines or lines[0] != self.HEADER:
            return "bad header"
        if len(lines) - 1 != len(self.expected):
            return f"expected {len(self.expected)} rows, got {len(lines) - 1}"
        for lineno, (line, (pair, fit)) in enumerate(zip(lines[1:], self.expected), start=2):
            fields = line.split(",")
            if len(fields) != 7 or tuple(fields[:2]) != pair:
                return f"line {lineno}: expected pair {pair[0]}:{pair[1]}"
            intercept, slope, ssr, r2, n = fit
            numbers_ok = all(
                _close_at_6g(text, value)
                for text, value in zip(fields[2:5], (intercept, slope, ssr))
            )
            r2_ok = fields[5] == "" if r2 is None else _close_at_6g(fields[5], r2)
            if not (numbers_ok and r2_ok and fields[6] == str(n)):
                return f"line {lineno}: {line!r} disagrees with the centered OLS"
        return None


def parse_marks(table: str, resources, workloads):
    """(row, col) index pairs of the check marks in a rendered table."""
    lines = table.split("\n")
    if lines[-1] != "":
        raise ValueError("table does not end with a newline")
    lines.pop()
    if len(lines) != len(resources) + 1:
        raise ValueError(f"expected {len(resources) + 1} table lines, got {len(lines)}")
    header = lines[0]
    starts = {}
    position = 0
    for j, name in enumerate(workloads):
        position = header.index(name, position)
        starts[position] = j
        position += len(name)
    marks = []
    for i, (line, resource) in enumerate(zip(lines[1:], resources)):
        if line.split(" ", 1)[0] != resource:
            raise ValueError(f"row {i} is not labelled {resource}")
        position = line.find(MARK)
        while position != -1:
            if position not in starts:
                raise ValueError(f"mark in row {resource} is not under a workload")
            marks.append((i, starts[position]))
            position = line.find(MARK, position + 1)
    return marks


class AllocateOracle:
    """`allocate --snapshot`: a full matching of optimal total cost.

    The optimum comes from one scipy solve on the benchmark's own predicted
    costs; the marks' total on those costs must equal it to within
    1e-9*(1+|opt|). The snapshot must hold exactly the marked pairs, and
    every invocation's stdout and snapshot must be byte-identical to the
    first one's.
    """

    def __init__(self, groups, resources, workloads, at):
        self.resources = sorted(resources)
        self.workloads = sorted(workloads)
        cost = np.empty((len(self.resources), len(self.workloads)))
        for i, res in enumerate(self.resources):
            for j, wl in enumerate(self.workloads):
                intercept, slope, *_ = centered_ols(groups[(res, wl)])
                cost[i, j] = intercept + slope * at
        rows, cols = linear_sum_assignment(cost)
        self.cost = cost
        self.optimum = float(cost[rows, cols].sum())
        self.first = None

    def check(self, stdout: str, snapshot: str | None) -> str | None:
        try:
            marks = parse_marks(stdout, self.resources, self.workloads)
        except ValueError as exc:
            return f"unreadable table: {exc}"
        rows = {i for i, _ in marks}
        cols = {j for _, j in marks}
        if len(rows) != len(marks) or len(cols) != len(marks):
            return "marks are not a matching"
        if len(marks) != min(self.cost.shape):
            return f"matching has {len(marks)} marks, expected {min(self.cost.shape)}"
        total = float(sum(self.cost[i, j] for i, j in marks))
        if abs(total - self.optimum) > 1e-9 * (1.0 + abs(self.optimum)):
            return f"total {total!r} is not the optimum {self.optimum!r}"
        try:
            allocation = json.loads(snapshot or "")["allocation"]
        except (ValueError, KeyError, TypeError):
            return "unreadable snapshot"
        marked = {self.resources[i]: self.workloads[j] for i, j in marks}
        if allocation != marked:
            return "snapshot does not hold the marked pairs"
        if self.first is None:
            self.first = (stdout, snapshot)
        elif (stdout, snapshot) != self.first:
            return "output differs from the first invocation's"
        return None


class ReplayOracle:
    """`replay --snapshot-out`: byte-exact transcript and snapshot of a dict model."""

    def __init__(self, commands):
        state: dict[str, str] = {}
        lines = []
        for lineno, op, args in commands:
            payload = ""
            if op == "INIT":
                state = {}
                report = "OK"
            elif op == "ADD":
                report = "AlreadyMapped" if args[0] in state else "OK"
                state.setdefault(args[0], args[1])
            elif op == "FIND":
                report = "OK" if args[0] in state else "NotMapped"
                payload = state.get(args[0], "")
            else:
                report = "OK"
                payload = ",".join(sorted(r for r, w in state.items() if w == args[0]))
            lines.append(f"{lineno} {report}" + (f" {payload}" if payload else ""))
        self.transcript = "\n".join(lines) + "\n"
        self.snapshot = json.dumps({"allocation": state}, sort_keys=True,
                                   separators=(",", ":")) + "\n"

    def check(self, stdout: str, snapshot: str | None) -> str | None:
        if stdout != self.transcript:
            return "transcript differs from the dict model"
        if snapshot != self.snapshot:
            return "snapshot differs from the dict model"
        return None


def for_inputs(workload: str, data: dict):
    """The oracle for one generated input."""
    if workload == "fit_all":
        return FitAllOracle(data["groups"])
    if workload == "allocate":
        return AllocateOracle(data["groups"], data["resources"], data["workloads"], data["at"])
    return ReplayOracle(data["commands"])
