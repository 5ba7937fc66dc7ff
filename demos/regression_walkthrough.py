"""Fit a workload/resource dataset and inspect the fit.

Walks through the closed-form estimate on a tiny three-point dataset,
prints the residuals, and checks the result against a brute-force search
over the coefficient plane.
"""

import numpy as np

from wrmap.regression import Dataset, fit, goodness_of_fit, predict, residuals, ssr

data = Dataset([1, 2, 3], [2, 3, 5])
model = fit(data)

print("intercept :", model.mu0_hat)
print("slope     :", model.mu1_hat)
print("ssr       :", ssr(model, data))
print("R^2       :", goodness_of_fit(model, data))
print("residuals :", residuals(model, data))
print("prediction at w=2 (the mean point):", predict(model, 2.0))

# Sanity check: a coarse brute-force scan of the SSR surface should land
# next to the closed-form coefficients.
grid = np.arange(-5, 5, 0.01)
ws = np.array(data.ws)
rs = np.array(data.rs)
surface = sum(
    (r - grid[None, :] - grid[:, None] * w) ** 2 for w, r in zip(ws, rs)
)
slope_idx, intercept_idx = np.unravel_index(np.argmin(surface), surface.shape)
print("grid-search intercept:", grid[intercept_idx])
print("grid-search slope    :", grid[slope_idx])
