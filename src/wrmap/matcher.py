"""Workload-resource matching.

Builds a predicted-cost matrix from fitted regression models and solves the
minimum-cost one-to-one assignment, producing a check-mark matrix with at
most one mark per row and per column. Among equal-cost optima the
lexicographically smallest mark set is returned, so outputs are reproducible.
Each value type is checked once, by its constructor; a mark matrix can draw
any allocation state whose names are in its orders.

The assignment takes one call to `linear_sum_assignment`, a pure-Python
shortest-augmenting-path solver (Crouse 2016; Jonker and Volgenant 1987)
that accepts rectangular matrices and returns a dual solution along with
the matching. It runs on the costs mapped exactly onto integers, and ties
are broken on the cells of reduced cost exactly 0 (Kuhn 1955), with one
alternating-cycle search per row. The module needs the standard library only.
"""

from __future__ import annotations

from collections import namedtuple
from math import fsum, isfinite
from operator import lt
from typing import Mapping, Sequence

from .core import AllocationState, CheckedTuple, check_token
from .regression import RegressionModel, predict


class MatcherError(Exception):
    pass


class MissingModel(MatcherError):
    pass


class NonFiniteCost(MatcherError, ValueError):
    """A cost that is not finite: a matcher error, and a malformed `CostMatrix`."""


class UnknownLabel(MatcherError):
    """An allocated name is absent from the supplied row/column orders."""


class CostMatrix(CheckedTuple, namedtuple("CostMatrix", "resources workloads cost")):
    """Rectangular grid of predicted costs, rows=resources, cols=workloads.

    Every name is a token (`core.check_token`), each order is strictly
    lexicographic, so no label repeats, and every entry is finite. The one
    constructor checks all three, for `build_cost_matrix` as for any
    caller; a non-finite entry raises `NonFiniteCost` naming its pair.
    """

    __slots__ = ()

    def __new__(
        cls,
        resources: tuple[str, ...],
        workloads: tuple[str, ...],
        cost: tuple[tuple[float, ...], ...],
    ) -> "CostMatrix":
        for side, names in (("resources", resources), ("workloads", workloads)):
            for name in names:
                check_token(name)
            if not all(map(lt, names, names[1:])):
                raise ValueError(f"{side} must be in lexicographic order, without repeats")
        if len(cost) != len(resources):
            raise ValueError("cost row count must match resources")
        for resource, row in zip(resources, cost):
            if len(row) != len(workloads):
                raise ValueError("cost column count must match workloads")
            if not all(map(isfinite, row)):
                j = list(map(isfinite, row)).index(False)
                cell = f"{resource}:{workloads[j]} is not finite ({row[j]})"
                raise NonFiniteCost(f"predicted cost for pair {cell}")
        return tuple.__new__(cls, (resources, workloads, cost))

    def total(self, marks) -> float:
        """Sum of the marked cells' costs, correctly rounded whatever the marks' order."""
        return fsum(self.cost[i][j] for i, j in marks)


class AssignmentMatrix(
    CheckedTuple, namedtuple("AssignmentMatrix", "resources workloads marks")
):
    """A drawn allocation: marks (resource-index, workload-index).

    No name repeats in either order, and each row holds at most one mark,
    as core allows a resource one workload; a column may hold several. The
    orders need not be sorted.
    """

    __slots__ = ()

    def __new__(
        cls,
        resources: tuple[str, ...],
        workloads: tuple[str, ...],
        marks: frozenset,
    ) -> "AssignmentMatrix":
        for side, names in (("resources", resources), ("workloads", workloads)):
            if len(set(names)) != len(names):
                raise ValueError(f"{side} must not repeat a name")
        rows = [i for i, _ in marks]
        if len(rows) != len(set(rows)):
            raise ValueError("at most one mark per row")
        for i, j in marks:
            if not (0 <= i < len(resources) and 0 <= j < len(workloads)):
                raise ValueError(f"mark out of range: {(i, j)}")
        return tuple.__new__(cls, (resources, workloads, marks))


def build_cost_matrix(
    models: Mapping[tuple[str, str], RegressionModel],
    resources: Sequence[str],
    workloads: Sequence[str],
    w_query: float,
) -> CostMatrix:
    """Predicted cost of each workload on each resource at demand level w_query.

    Every (resource, workload) pair must have a fitted model; `CostMatrix`
    checks the names and that every prediction is finite.
    """
    res = tuple(sorted(resources))
    wls = tuple(sorted(workloads))
    rows = []
    for r in res:
        row = []
        for w in wls:
            model = models.get((r, w))
            if model is None:
                raise MissingModel(f"no fitted model for pair {r}:{w}")
            row.append(predict(model, w_query))
        rows.append(tuple(row))
    return CostMatrix(res, wls, tuple(rows))


def linear_sum_assignment(
    cost: Sequence[Sequence[float]],
) -> tuple[list[int], list[float], list[float]]:
    """Minimum-cost matching of a rectangular matrix, with its dual.

    Shortest augmenting paths (Crouse 2016; Jonker and Volgenant 1987):
    each row of the shorter side is matched in turn along a shortest path
    of reduced costs, the search scanning a shrinking list of remaining
    columns and preferring a free column on equal distance. Returns
    (col_of, u, v): col_of[i] is the column of row i, or -1 when row i is
    left unmatched; u and v are row and column potentials with
    cost[i][j] - u[i] - v[j] >= 0 and 0 on the matching, and the
    potentials of the longer side are <= 0 and exactly 0 where unmatched,
    so zero-cost dummies at potential 0 that square the matrix up keep
    the dual feasible. On integer costs all of this is exact.
    """
    n_rows = len(cost)
    n_cols = len(cost[0]) if n_rows else 0
    transpose = n_rows > n_cols
    if transpose:
        cost = list(zip(*cost))
        n_rows, n_cols = n_cols, n_rows
    inf = float("inf")
    u = [0] * n_rows
    v = [0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for start in range(n_rows):
        dist = [inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_cols = []
        i = start
        lowest = 0
        while True:
            row = cost[i]
            base = lowest - u[i]
            lowest = inf
            index = -1
            for k, j in enumerate(remaining):
                d = base + row[j] - v[j]
                if d < dist[j]:
                    path[j] = i
                    dist[j] = d
                else:
                    d = dist[j]
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest = d
                    index = k
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        # Until the augmentation below, row4col[c] are the rows the search
        # reached; the last column is free and at dist == lowest.
        u[start] += lowest
        for c in seen_cols[:-1]:
            delta = lowest - dist[c]
            u[row4col[c]] += delta
            v[c] -= delta
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    if not transpose:
        return col4row, u, v
    return row4col, v, u


def _lex_min_tight(
    square: list[list[int]], u: list[int], v: list[int], col_of: list[int]
) -> list[int]:
    """Lexicographically smallest perfect matching of tight cells.

    col_of is a perfect matching of tight cells of square, those with
    square[i][j] - u[i] == v[j]. Row by row, row i takes the smallest
    column j < col_of[i], not held by an earlier row, that lies on an
    alternating cycle of tight cells through (i, col_of[i]); the cycle is
    rotated so that i holds j. One reverse breadth-first search per row
    finds every such j, so the whole pass is O(n^3).
    """
    n = len(col_of)
    col_of = list(col_of)
    row_of = [0] * n
    tight = []
    rows_of: list[list[int]] = [[] for _ in range(n)]
    for i, (row, ui) in enumerate(zip(square, u)):
        row_of[col_of[i]] = i
        cols = [j for j, (c, vj) in enumerate(zip(row, v)) if c - ui == vj]
        tight.append(cols)
        for j in cols:
            rows_of[j].append(i)
    for i in range(n):
        target = col_of[i]
        candidates = [j for j in tight[i] if j < target and row_of[j] > i]
        if not candidates:
            continue
        # nxt[c] >= 0: the row holding column c can move to column nxt[c],
        # and so on to target. The search ends once candidates[0] is reached.
        nxt = [-1] * n
        visited = [True] * (i + 1) + [False] * (n - i - 1)
        frontier = [target]
        while frontier and nxt[candidates[0]] < 0:
            reached = []
            for c in frontier:
                for r in rows_of[c]:
                    if not visited[r]:
                        visited[r] = True
                        nxt[col_of[r]] = c
                        reached.append(col_of[r])
            frontier = reached
        j = next((c for c in candidates if nxt[c] >= 0), target)
        # Rotate: row i takes j, j's old owner takes nxt[j], and so on
        # until some row takes target.
        r = i
        while j != target:
            owner = row_of[j]
            col_of[r], row_of[j] = j, r
            r, j = owner, nxt[j]
        col_of[r], row_of[target] = target, r
    return col_of


def assign(costs: CostMatrix) -> AssignmentMatrix:
    """Minimum-total-cost assignment of workloads to resources.

    Every row or every column, whichever is fewer, gets one mark. Among the
    optima the lexicographically smallest is returned: row 0's column is as
    small as possible, then row 1's, and so on, with an unmarked row
    ranking after every column.

    The solver runs once, on the costs mapped exactly onto integers, and
    returns a dual solution along with the matching. The solution is
    squared up with zero-cost dummy rows or columns at potential 0, which
    rank after the real ones, change no total and keep the dual feasible.
    The potentials mark the tight cells, those whose reduced cost is
    exactly 0. By complementary slackness the perfect matchings of tight
    cells are exactly the optima, so the tie-break picks among them only.
    """
    n_res, n_wl = len(costs.resources), len(costs.workloads)
    if n_res == 0 or n_wl == 0:
        return AssignmentMatrix(costs.resources, costs.workloads, frozenset())
    # Every finite double is p/q with q a power of two: on the grid of the
    # largest q, each cost is exactly the integer p * (unit // q).
    ratios = [[c.as_integer_ratio() for c in row] for row in costs.cost]
    unit = max(q for row in ratios for _, q in row)
    matrix = [[p * (unit // q) for p, q in row] for row in ratios]
    col_of, u, v = linear_sum_assignment(matrix)
    n = max(n_res, n_wl)
    free = iter(sorted(set(range(n)).difference(col_of)))
    col_of = [j if j >= 0 else next(free) for j in col_of]
    col_of += [next(free) for _ in range(n - n_res)]
    u += [0] * (n - n_res)
    v += [0] * (n - n_wl)
    zeros = [0] * n
    square = [row + zeros[n_wl:] for row in matrix] + [zeros] * (n - n_res)
    col_of = _lex_min_tight(square, u, v, col_of)
    marks = {(i, j) for i, j in enumerate(col_of[:n_res]) if j < n_wl}
    return AssignmentMatrix(costs.resources, costs.workloads, frozenset(marks))


def matrix_to_state(m: AssignmentMatrix) -> AllocationState:
    """Allocation state with each marked resource bound to its workload."""
    return AllocationState(
        tuple((m.resources[i], m.workloads[j]) for i, j in m.marks)
    )


def state_to_matrix(
    s: AllocationState, resources: Sequence[str], workloads: Sequence[str]
) -> AssignmentMatrix:
    """Draw an allocation state as a mark matrix over the given orders."""
    res = tuple(resources)
    wls = tuple(workloads)
    res_index = {r: i for i, r in enumerate(res)}
    wl_index = {w: j for j, w in enumerate(wls)}
    marks = set()
    for resource, workload in s.pairs:
        if resource not in res_index:
            raise UnknownLabel(f"resource {resource} not in row order")
        if workload not in wl_index:
            raise UnknownLabel(f"workload {workload} not in column order")
        marks.add((res_index[resource], wl_index[workload]))
    return AssignmentMatrix(res, wls, frozenset(marks))
