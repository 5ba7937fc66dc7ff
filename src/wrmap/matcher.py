"""Workload-resource matching.

Builds a predicted-cost matrix from fitted regression models and solves the
minimum-cost one-to-one assignment, producing a check-mark matrix with at
most one mark per row and per column. Among equal-cost optima the
lexicographically smallest mark set is returned, so outputs are reproducible.

The assignment takes one call to scipy's `linear_sum_assignment` (Crouse
2016), which accepts rectangular matrices. Ties are then broken on the
zero-reduced-cost cells of a dual solution (Kuhn 1955; Jonker and Volgenant
1987), with one alternating-cycle search per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

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


class NonSquare(MatcherError):
    """Rectangular cost matrix with padding disabled."""


class NotInjective(MatcherError):
    """Two resources allocated to the same workload; no matrix form exists."""


class UnknownLabel(MatcherError):
    """An allocated name is absent from the supplied row/column orders."""


@dataclass(frozen=True)
class CostMatrix:
    """Rectangular grid of predicted costs, rows=resources, cols=workloads.

    Orders are lexicographic by id; all entries finite.
    """

    resources: tuple[str, ...]
    workloads: tuple[str, ...]
    cost: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if list(self.resources) != sorted(self.resources):
            raise ValueError("resources must be in lexicographic order")
        if list(self.workloads) != sorted(self.workloads):
            raise ValueError("workloads must be in lexicographic order")
        if len(self.cost) != len(self.resources):
            raise ValueError("cost row count must match resources")
        for row in self.cost:
            if len(row) != len(self.workloads):
                raise ValueError("cost column count must match workloads")
            for value in row:
                if not isfinite(value):
                    raise ValueError("cost entries must be finite")


@dataclass(frozen=True)
class AssignmentMatrix:
    """Marks (resource-index, workload-index): at most one per row and column."""

    resources: tuple[str, ...]
    workloads: tuple[str, ...]
    marks: frozenset
    cost: Optional[CostMatrix] = None

    def __post_init__(self) -> None:
        rows = [i for i, _ in self.marks]
        cols = [j for _, j in self.marks]
        if len(rows) != len(set(rows)) or len(cols) != len(set(cols)):
            raise ValueError("at most one mark per row and per column")
        for i, j in self.marks:
            if not (0 <= i < len(self.resources) and 0 <= j < len(self.workloads)):
                raise ValueError(f"mark out of range: {(i, j)}")

    def total_cost(self) -> float:
        if self.cost is None:
            raise ValueError("no cost matrix attached")
        return float(sum(self.cost.cost[i][j] for i, j in self.marks))


def build_cost_matrix(
    models: Mapping[tuple[str, str], RegressionModel],
    resources: Sequence[str],
    workloads: Sequence[str],
    w_query: float,
) -> CostMatrix:
    """Predicted cost of each workload on each resource at demand level w_query.

    Every (resource, workload) pair must have a fitted model whose
    prediction is finite.
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


def _reduced_costs(square: np.ndarray, col_of: np.ndarray, tol: float) -> np.ndarray:
    """Reduced costs cost[i, j] - u[i] - v[j] of a dual solution for the
    optimal perfect matching row i -> col_of[i].

    Moving row i from column col_of[i] to column j changes the total by
    step[i, j]; column potentials are shortest-path distances over these
    moves (Bellman-Ford, every column a source at distance 0), which exist
    because an optimal matching leaves no negative cycle. A relaxation
    counts only when it gains more than tol, so rounding noise cannot keep
    it running; the result is >= -tol everywhere and exactly 0 on the
    matching.
    """
    n = len(col_of)
    step = square - square[np.arange(n), col_of][:, None]
    potential = np.zeros(n)
    moved = np.ones(n, dtype=bool)  # columns whose potential fell last round
    for _ in range(n):
        movers = np.flatnonzero(moved[col_of])
        if movers.size == 0:
            break
        relaxed = (potential[col_of[movers]][:, None] + step[movers]).min(axis=0)
        moved = relaxed < potential - tol
        potential = np.where(moved, relaxed, potential)
    return step + potential[col_of][:, None] - potential[None, :]


def _reachable_to(
    tight: np.ndarray, col_of: np.ndarray, row: int, target: int, wanted: int
) -> np.ndarray:
    """Reverse breadth-first search for alternating paths into column target.

    Returns nxt, where nxt[c] >= 0 means the row holding column c can move
    to column nxt[c] along a tight edge, and so on until target is reached.
    Rows up to and including row never move. The search stops early once
    column wanted is reached.
    """
    nxt = np.full(len(col_of), -1)
    visited = np.zeros(len(col_of), dtype=bool)
    visited[: row + 1] = True
    frontier = np.array([target])
    while frontier.size and nxt[wanted] < 0:
        hit = tight[:, frontier] & ~visited[:, None]
        rows = np.flatnonzero(hit.any(axis=1))
        visited[rows] = True
        nxt[col_of[rows]] = frontier[hit[rows].argmax(axis=1)]
        frontier = col_of[rows]
    return nxt


def _lex_min_tight(tight: np.ndarray, col_of: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the tight subgraph.

    col_of is a perfect matching made of tight edges. Row by row, row i
    takes the smallest column j < col_of[i], not held by an earlier row,
    that lies on an alternating cycle through (i, col_of[i]); the cycle is
    rotated so that i holds j. One reverse search per row finds every such
    j, so the whole pass is O(n^3).
    """
    col_of = col_of.copy()
    row_of = np.empty_like(col_of)
    row_of[col_of] = np.arange(len(col_of))
    for i in range(len(col_of)):
        target = col_of[i]
        candidates = np.flatnonzero(tight[i, :target])
        candidates = candidates[row_of[candidates] > i]
        if candidates.size == 0:
            continue
        nxt = _reachable_to(tight, col_of, i, target, candidates[0])
        candidates = candidates[nxt[candidates] >= 0]
        if candidates.size == 0:
            continue
        path = [int(candidates[0])]
        while path[-1] != target:
            path.append(int(nxt[path[-1]]))
        owners = row_of[path[:-1]]
        col_of[owners] = path[1:]
        row_of[path[1:]] = owners
        col_of[i] = path[0]
        row_of[path[0]] = i
    return col_of


def assign(costs: CostMatrix, pad: bool = True) -> AssignmentMatrix:
    """Minimum-total-cost assignment of workloads to resources.

    Every row or every column, whichever is fewer, gets one mark. Among the
    optima the lexicographically smallest is returned: row 0's column is as
    small as possible, then row 1's, and so on, with an unmarked row
    ranking after every column.

    The solver runs once, on the matrix as given. Its solution is squared
    up with zero-cost dummy rows or columns, which rank after the real ones
    and change no total. Dual potentials of that solution mark the tight
    cells, those whose reduced cost is within about 1e-12 of the largest
    real |cost|, and the tie-break picks among tight cells only. The chosen
    total is checked against the solver's optimum; a mismatch raises
    MatcherError. Pass pad=False to reject rectangular input.
    """
    matrix = np.array(costs.cost, dtype=float).reshape(
        len(costs.resources), len(costs.workloads)
    )
    n_res, n_wl = matrix.shape
    if n_res != n_wl and not pad:
        raise NonSquare(f"cost matrix is {n_res}x{n_wl}")
    if matrix.size == 0:
        return AssignmentMatrix(costs.resources, costs.workloads, frozenset(), costs)
    # Dividing by a power of two is exact and leaves every |cost| below 1,
    # so totals cannot overflow and the tolerance can be absolute.
    matrix = np.ldexp(matrix, -np.frexp(np.abs(matrix).max())[1])
    tol = 1e-12
    rows, cols = linear_sum_assignment(matrix)
    best = fsum(matrix[rows, cols])
    n = max(n_res, n_wl)
    square = np.zeros((n, n))
    square[:n_res, :n_wl] = matrix
    col_of = np.full(n, -1)
    col_of[rows] = cols
    col_of[col_of < 0] = np.setdiff1d(np.arange(n), cols)
    tight = _reduced_costs(square, col_of, tol) <= tol
    col_of = _lex_min_tight(tight, col_of)
    gap = fsum(square[np.arange(n), col_of]) - best
    if abs(gap) > (n + 1) * tol:
        raise MatcherError(f"tie-break total is {gap:.3g} off the optimum (scaled)")
    marks = {(i, int(j)) for i, j in enumerate(col_of[:n_res]) if j < n_wl}
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
