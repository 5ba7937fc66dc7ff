"""Fit a workload/resource dataset and inspect the fit.

Walks through the closed-form estimate on a tiny three-point dataset,
prints the residuals, and sets the fitted floats beside the exact
least-squares line, solved from the normal equations in rationals.
"""

from fractions import Fraction

from wrmap.regression import Dataset, fit, goodness_of_fit, predict, residuals

data = Dataset([1, 2, 3], [2, 3, 5])
model = fit(data)
ssr, r2 = goodness_of_fit(model, data)

print("intercept :", model.mu0_hat)
print("slope     :", model.mu1_hat)
print("ssr       :", ssr)
print("R^2       :", r2)
print("residuals :", residuals(model, data))
print("prediction at w=2 (the mean point):", predict(model, 2.0))

# Check: every float is a rational, so the normal equations
#   n*mu0 + sum(w)*mu1 = sum(r),  sum(w)*mu0 + sum(w*w)*mu1 = sum(w*r)
# solve without rounding; fit's floats carry the rounding of its sums.
ws = list(map(Fraction, data.ws))
rs = list(map(Fraction, data.rs))
n, sw, sr = len(ws), sum(ws), sum(rs)
sww = sum(w * w for w in ws)
swr = sum(w * r for w, r in zip(ws, rs))
slope = (n * swr - sw * sr) / (n * sww - sw * sw)
intercept = (sr - slope * sw) / n
print("exact intercept:", intercept, "beside", model.mu0_hat)
print("exact slope    :", slope, "beside", model.mu1_hat)
