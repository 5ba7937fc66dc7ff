"""The tests' two exact assignment oracles and their fixtures: a subset DP
over Fractions, and scipy re-solves on integer grids."""

from fractions import Fraction
from functools import cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from wrmap.matcher import CostMatrix

# Checked cells of the 7x7 reference matrix, 0-indexed (row, col).
REFERENCE_MARKS = {(0, 1), (1, 2), (2, 4), (3, 0), (4, 3), (5, 5), (6, 6)}


def costs_of(grid):
    """A CostMatrix of the grid, with rows R000... and columns W000..."""
    grid = np.asarray(grid, dtype=float)
    names_r = tuple(f"R{i:03d}" for i in range(grid.shape[0]))
    names_w = tuple(f"W{j:03d}" for j in range(grid.shape[1]))
    return CostMatrix(names_r, names_w, tuple(map(tuple, grid.tolist())))


def exact(grid):
    """The costs as Fractions, so that sums of them are exact."""
    return [[Fraction(c) for c in row] for row in np.asarray(grid, float).tolist()]


def exact_optima(grid):
    """(minimum, count, marks) over the assignments marking min(n_res, n_wl) cells.

    `minimum` is the exact least total and `count` the number of
    assignments that reach it. `marks` is `assign`'s tie-break: each row in
    turn takes its smallest column whose completion stays optimal, and an
    unmarked row ranks after every column.
    """
    cost = exact(grid)
    n_res, n_wl = len(cost), len(cost[0])
    skips = n_res - min(n_res, n_wl)

    @cache
    def optima(i, used):
        """The same triple for rows i.., once the columns in mask `used` are taken."""
        if i == n_res:
            return 0, 1, frozenset()
        moves = [(cost[i][j], used | 1 << j, {(i, j)})
                 for j in range(n_wl) if not used >> j & 1]
        if i - used.bit_count() < skips:
            moves.append((0, used, set()))
        ends = []
        for c, after, mark in moves:
            rest, count, marks = optima(i + 1, after)
            ends.append((c + rest, count, marks | mark))
        # min keeps the first of equal totals, so the smallest column wins.
        least, _, marks = min(ends, key=lambda end: end[0])
        return least, sum(count for total, count, _ in ends if total == least), marks

    return optima(0, 0)


def reference_lex_min(grid):
    """`assign`'s marks on integer costs below 2^40, on which scipy's float
    sums are exact: each row in turn takes the smallest column that still
    allows an optimal completion, one scipy solve per (row, candidate).
    Zero-cost rows or columns after the real ones square the grid up, so
    an unmarked row takes a padding column and ranks after every real one.
    """
    grid = np.asarray(grid)
    assert grid.dtype.kind in "iu" and (abs(grid) < 2**40).all()
    n_res, n_wl = grid.shape
    n = max(n_res, n_wl)
    cost = np.zeros((n, n), dtype=np.int64)
    cost[:n_res, :n_wl] = grid
    best = cost[linear_sum_assignment(cost)].sum()
    remaining = list(range(n))
    marks = set()
    for i in range(n_res):
        for j in remaining:
            rest = cost[i + 1:, [c for c in remaining if c != j]]
            if cost[i, j] + rest[linear_sum_assignment(rest)].sum() == best:
                best -= cost[i, j]
                remaining.remove(j)
                if j < n_wl:
                    marks.add((i, j))
                break
    return marks
