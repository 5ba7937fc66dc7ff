"""Workload-resource matching.

Builds a predicted-cost matrix from fitted regression models and solves the
minimum-cost one-to-one assignment, producing a check-mark matrix with at
most one mark per row and per column. Among equal-cost optima the
lexicographically smallest mark set is returned, so outputs are reproducible.

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
from typing import Mapping, Optional, Sequence

from .core import AllocationState, check_token
from .regression import RegressionModel, predict


class MatcherError(Exception):
    pass


class MissingModel(MatcherError):
    def __init__(self, resource: str, workload: str):
        super().__init__(f"no fitted model for pair {resource}:{workload}")
        self.resource = resource
        self.workload = workload


class NonFiniteCost(MatcherError):
    def __init__(self, resource: str, workload: str, value: float):
        super().__init__(
            f"predicted cost for pair {resource}:{workload} is not finite ({value})"
        )
        self.resource = resource
        self.workload = workload


class NotInjective(MatcherError):
    """Two resources allocated to the same workload; no matrix form exists."""


class UnknownLabel(MatcherError):
    """An allocated name is absent from the supplied row/column orders."""


class CostMatrix(namedtuple("CostMatrix", "resources workloads cost")):
    """Rectangular grid of predicted costs, rows=resources, cols=workloads.

    Orders are strictly lexicographic by id, so no label repeats; all
    entries finite. The one constructor checks both, for
    `build_cost_matrix` as for any caller.
    """

    __slots__ = ()

    def __new__(
        cls,
        resources: tuple[str, ...],
        workloads: tuple[str, ...],
        cost: tuple[tuple[float, ...], ...],
    ) -> "CostMatrix":
        if not all(map(lt, resources, resources[1:])):
            raise ValueError("resources must be in lexicographic order, without repeats")
        if not all(map(lt, workloads, workloads[1:])):
            raise ValueError("workloads must be in lexicographic order, without repeats")
        if len(cost) != len(resources):
            raise ValueError("cost row count must match resources")
        for row in cost:
            if len(row) != len(workloads):
                raise ValueError("cost column count must match workloads")
            if not all(map(isfinite, row)):
                raise ValueError("cost entries must be finite")
        return tuple.__new__(cls, (resources, workloads, cost))


class AssignmentMatrix(namedtuple("AssignmentMatrix", "resources workloads marks cost")):
    """Marks (resource-index, workload-index): at most one per row and column."""

    __slots__ = ()

    def __new__(
        cls,
        resources: tuple[str, ...],
        workloads: tuple[str, ...],
        marks: frozenset,
        cost: Optional[CostMatrix] = None,
    ) -> "AssignmentMatrix":
        rows = [i for i, _ in marks]
        cols = [j for _, j in marks]
        if len(rows) != len(set(rows)) or len(cols) != len(set(cols)):
            raise ValueError("at most one mark per row and per column")
        for i, j in marks:
            if not (0 <= i < len(resources) and 0 <= j < len(workloads)):
                raise ValueError(f"mark out of range: {(i, j)}")
        return tuple.__new__(cls, (resources, workloads, marks, cost))

    def total_cost(self) -> float:
        """Sum of the marked costs, correctly rounded whatever the marks' order."""
        if self.cost is None:
            raise ValueError("no cost matrix attached")
        return fsum(self.cost.cost[i][j] for i, j in self.marks)


def build_cost_matrix(
    models: Mapping[tuple[str, str], RegressionModel],
    resources: Sequence[str],
    workloads: Sequence[str],
    w_query: float,
) -> CostMatrix:
    """Predicted cost of each workload on each resource at demand level w_query.

    Every (resource, workload) pair must have a fitted model whose
    prediction is finite; the check here names the pair that fails it.
    """
    res = tuple(sorted(check_token(r) for r in resources))
    wls = tuple(sorted(check_token(w) for w in workloads))
    if len(set(res)) != len(res) or len(set(wls)) != len(wls):
        raise ValueError("duplicate resource or workload names")
    rows = []
    for r in res:
        row = []
        for w in wls:
            model = models.get((r, w))
            if model is None:
                raise MissingModel(r, w)
            cost = predict(model, w_query)
            if not isfinite(cost):
                raise NonFiniteCost(r, w, cost)
            row.append(cost)
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
        return AssignmentMatrix(costs.resources, costs.workloads, frozenset(), costs)
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
    return AssignmentMatrix(costs.resources, costs.workloads, frozenset(marks), costs)


def matrix_to_state(m: AssignmentMatrix) -> AllocationState:
    """Allocation state with each marked resource bound to its workload."""
    return AllocationState(
        tuple((m.resources[i], m.workloads[j]) for i, j in m.marks)
    )


def state_to_matrix(
    s: AllocationState, resources: Sequence[str], workloads: Sequence[str]
) -> AssignmentMatrix:
    """Render an injective allocation as a mark matrix over the given orders."""
    res = tuple(resources)
    wls = tuple(workloads)
    res_index = {r: i for i, r in enumerate(res)}
    wl_index = {w: j for j, w in enumerate(wls)}
    seen_workloads = set()
    marks = set()
    for resource, workload in s.pairs:
        if workload in seen_workloads:
            raise NotInjective(f"workload {workload} allocated to several resources")
        seen_workloads.add(workload)
        if resource not in res_index:
            raise UnknownLabel(f"resource {resource} not in row order")
        if workload not in wl_index:
            raise UnknownLabel(f"workload {workload} not in column order")
        marks.add((res_index[resource], wl_index[workload]))
    return AssignmentMatrix(res, wls, frozenset(marks))
