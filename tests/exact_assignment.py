"""The tests' exact assignment oracle, a subset DP over Fractions, and its fixtures."""

from fractions import Fraction
from functools import cache

import numpy as np

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
