"""Simple linear regression by ordinary least squares.

Closed-form estimation of intercept and slope for one predictor, plus
residuals, the sum of squared residuals, and R-squared. Results are the
same bits on every IEEE 754 platform: each square is `x * x`, correctly
rounded (a power goes through the C library's `pow`, which need not be),
and each sum is the correctly rounded `math.fsum`. A column too large or
too small for these sums is first scaled by a power of two, which is
exact, by the one rule of `_scaled`.
"""

from __future__ import annotations

from collections import namedtuple
from math import frexp, fsum, inf, isfinite, ldexp
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .core import CheckedTuple


class RegressionError(Exception):
    pass


class InsufficientData(RegressionError):
    """Fewer than two observations."""


class SingularDesign(RegressionError):
    """All predictor values equal; the slope is undefined."""


class ConstantResponse(RegressionError):
    """Zero total sum of squares; R-squared is undefined."""


class Dataset(CheckedTuple, namedtuple("Dataset", "ws rs")):
    """Ordered observations, indexed 1..n for reporting.

    Two columns of equal length, `ws` (predictor) and `rs` (response), in
    observation order: observation a is (ws[a-1], rs[a-1]). The one
    constructor, `Dataset(ws, rs)`, converts every value to float and
    rejects columns of unequal length or holding a non-finite value.
    """

    __slots__ = ()

    def __new__(cls, ws: Iterable[float], rs: Iterable[float]) -> "Dataset":
        ws, rs = tuple(map(float, ws)), tuple(map(float, rs))
        if len(ws) != len(rs):
            raise ValueError(f"{len(ws)} predictor values but {len(rs)} responses")
        if not (all(map(isfinite, ws)) and all(map(isfinite, rs))):
            raise ValueError("observations must be finite")
        return tuple.__new__(cls, (ws, rs))

    @property
    def n(self) -> int:
        return len(self.ws)


class RegressionModel(NamedTuple):
    """Estimated line r = mu0_hat + mu1_hat * w."""

    mu0_hat: float
    mu1_hat: float


class NumericOverflow(RegressionError):
    """A result is not finite in floating point."""


# Relative threshold on the spread of the predictor, against its largest
# magnitude, at or below which the slope denominator is treated as zero.
_SINGULAR_TOL = 1e-12

# `_scaled` leaves a column as given while the binary exponent E of its
# largest magnitude (2**(E-1) <= max|x| < 2**E) is in -470..479, that is,
# while _SMALL <= max|x| < _LARGE; otherwise it scales it by 2**-E.
# - Overflow: each |x - x_bar| < 2**(E+1) and n < 2**63, so fsum(xs) stays
#   below 2**(E+63), and a sum of products of two centered columns with
#   exponents E and F below 2**(E+F+65), finite for E, F <= 479.
# - Underflow: 1e-12 > 2**-40, so the singular threshold n * bound**2
#   exceeds 2**(2E-82), a normal float for E >= -470. An sxx that passes
#   is normal too, and squares below 2**-1022 cost it at most n * 2**-1075,
#   half its ulp. Products of w and r below 2**-1022 move the slope by at
#   most n * 2**-1075 / sxx, less than n * 2**-37 times its rounding error
#   bound u * max|r| / spread (u = 2**-53) for exponents of -470 or more.
_SMALL, _LARGE = 2.0**-471, 2.0**479


def _scaled(xs: Sequence[float]) -> tuple[Sequence[float], float, int]:
    """xs * 2**-E, max|x| * 2**-E, and E: 0 while max|x| is inside the
    window above, and otherwise its binary exponent. Exact, but for values
    more than 2**1022 times below that max."""
    top = max(map(abs, xs), default=0.0)
    if _SMALL <= top < _LARGE:
        return xs, top, 0
    shift = frexp(top)[1]
    return [ldexp(x, -shift) for x in xs], ldexp(top, -shift), shift


def _sum_of_squares(values: list[float]) -> float:
    return fsum(map(mul, values, values))


def fit(data: Dataset) -> RegressionModel:
    """Estimate intercept and slope by minimizing the sum of squared residuals.

    Two passes: the means, then the centered sums in
    slope = sum((w - w_bar) * (r - r_bar)) / sum((w - w_bar) * (w - w_bar)),
    which lose no precision to an offset in w or r (Chan, Golub and LeVeque
    1983). Each column is summed as `_scaled` gives it, and the line scaled
    back. Raises InsufficientData for n < 2, SingularDesign when the
    predictor values coincide to within 1e-12 of their largest magnitude,
    and NumericOverflow when the intercept or the slope is not finite.
    """
    ws, rs = data
    n = len(ws)
    if n < 2:
        raise InsufficientData(f"need at least 2 observations, got {n}")
    ws, w_max, w_shift = _scaled(ws)
    rs, _, r_shift = _scaled(rs)
    w_bar = fsum(ws) / n
    dws = [w - w_bar for w in ws]
    sxx = _sum_of_squares(dws)
    bound = _SINGULAR_TOL * w_max
    if sxx <= n * bound * bound:
        raise SingularDesign("all predictor values are (nearly) equal")
    r_bar = fsum(rs) / n
    mu1 = fsum(map(mul, dws, [r - r_bar for r in rs])) / sxx
    try:
        mu0 = ldexp(r_bar - mu1 * w_bar, r_shift)
        mu1 = ldexp(mu1, r_shift - w_shift)
    except OverflowError as exc:
        raise NumericOverflow("the fitted line is not finite") from exc
    if not (isfinite(mu0) and isfinite(mu1)):
        raise NumericOverflow("the fitted line is not finite")
    return tuple.__new__(RegressionModel, (mu0, mu1))


def predict(model: RegressionModel, w: float) -> float:
    """Fitted value of the line at predictor value w."""
    if not isfinite(w):
        raise ValueError("predictor value must be finite")
    return model.mu0_hat + model.mu1_hat * w


def residuals(model: RegressionModel, data: Dataset) -> list[float]:
    """Observed minus fitted, in dataset order."""
    mu0, mu1 = model.mu0_hat, model.mu1_hat
    return [r - (mu0 + mu1 * w) for w, r in zip(data.ws, data.rs)]


def _ssr(model: RegressionModel, data: Dataset, shift: int) -> float:
    """The sum of the squares of the residuals, each times 2**-shift;
    NumericOverflow when it is not finite."""
    try:
        value = _sum_of_squares([ldexp(e, -shift) for e in residuals(model, data)])
    except OverflowError:  # from ldexp, or from a partial sum in fsum
        value = inf
    if not isfinite(value):
        raise NumericOverflow("the sum of squared residuals is not finite")
    return value


def ssr(model: RegressionModel, data: Dataset) -> float:
    """Sum of squared residuals of the model on the data.

    Raises NumericOverflow when it is not finite.
    """
    return _ssr(model, data, 0)


def goodness_of_fit(model: RegressionModel, data: Dataset) -> float:
    """R-squared: 1 - SSR/SST.

    Both sums run on values scaled by the same power of two: the response
    as `_scaled` gives it, and the residuals by its 2**-E. Their ratio is
    then the unscaled one, and SST is finite. Raises NumericOverflow when
    the scaled SSR is not finite, and otherwise ConstantResponse when the
    response has zero variation (an empty one included).
    """
    rs, _, shift = _scaled(data.rs)
    r_bar = fsum(rs) / max(len(rs), 1)
    sst = _sum_of_squares([r - r_bar for r in rs])
    ssr_value = _ssr(model, data, shift)
    if sst == 0.0:
        raise ConstantResponse("response is constant; R-squared undefined")
    return 1.0 - ssr_value / sst
