"""The tests' OLS oracles, an exact rational fit and an SSR grid search, and datasets."""

import math
from fractions import Fraction

import numpy as np

from wrmap.regression import Dataset

THREE_POINTS = Dataset([1, 2, 3], [2, 3, 5])


def exact_fit(data):
    """Slope, intercept and SSR of the least-squares line, as Fractions
    computed exactly from the float inputs."""
    ws = [Fraction(w) for w in data.ws]
    rs = [Fraction(r) for r in data.rs]
    n = len(ws)
    w_bar, r_bar = sum(ws) / n, sum(rs) / n
    sxx = sum((w - w_bar) ** 2 for w in ws)
    slope = sum((w - w_bar) * (r - r_bar) for w, r in zip(ws, rs)) / sxx
    intercept = r_bar - slope * w_bar
    return slope, intercept, sum((r - intercept - slope * w) ** 2 for w, r in zip(ws, rs))


def grid_search_ssr(data, lo=-5.0, hi=5.0, step=1e-3):
    """Brute-force SSR minimizer over a coefficient grid.

    Independent of the closed form: evaluates the SSR surface directly at
    every grid point (chunked so memory stays bounded).
    """
    values = np.arange(round((hi - lo) / step) + 1) * step + lo
    ws = np.array(data.ws)
    rs = np.array(data.rs)
    best = math.inf
    best_point = None
    chunk = 500
    for start in range(0, len(values), chunk):
        mu1 = values[start : start + chunk][:, None]  # rows: slope
        mu0 = values[None, :]  # cols: intercept
        total = np.zeros((mu1.shape[0], values.size))
        for w, r in zip(ws, rs):
            total += (r - mu0 - mu1 * w) ** 2
        idx = np.unravel_index(np.argmin(total), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            best_point = (float(mu0[0, idx[1]]), float(mu1[idx[0], 0]))
    return best_point, best


def random_dataset(rng, min_spread=1e-6):
    """2 to 20 uniform pairs in [-10, 10]², redrawn until the w spread exceeds min_spread."""
    n = int(rng.integers(2, 21))
    while True:
        ws = rng.uniform(-10, 10, n)
        if np.ptp(ws) > min_spread:
            break
    rs = rng.uniform(-10, 10, n)
    return Dataset(ws, rs)
