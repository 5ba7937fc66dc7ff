"""Simple linear regression by ordinary least squares.

Closed-form estimation of intercept and slope for one predictor, plus
residuals, the sum of squared residuals, and R-squared. Results are the
same bits on every IEEE 754 platform: each square is `x * x`, correctly
rounded (a power goes through the C library's `pow`, which need not be),
each sum is the correctly rounded `math.fsum`, and `fit` reports the SSR
that `ssr` computes, from the one definition of the residuals.
"""

from __future__ import annotations

from collections import namedtuple
from math import frexp, fsum, isfinite, ldexp
from operator import mul
from typing import Iterable, NamedTuple, Optional


class RegressionError(Exception):
    pass


class InsufficientData(RegressionError):
    """Fewer than two observations."""


class SingularDesign(RegressionError):
    """All predictor values equal; the slope is undefined."""


class ConstantResponse(RegressionError):
    """Zero total sum of squares; R-squared is undefined."""


class Dataset(namedtuple("Dataset", "ws rs")):
    """Ordered observations, indexed 1..n for reporting.

    Two columns of equal length, `ws` (predictor) and `rs` (response), in
    observation order: observation a is (ws[a-1], rs[a-1]). The one
    constructor, `Dataset(ws, rs)`, converts every value to float and
    rejects columns of unequal length or holding a non-finite value. copy,
    pickle and `_replace` rebuild a dataset through it too.
    """

    __slots__ = ()

    def __new__(cls, ws: Iterable[float], rs: Iterable[float]) -> "Dataset":
        ws, rs = tuple(map(float, ws)), tuple(map(float, rs))
        if len(ws) != len(rs):
            raise ValueError(f"{len(ws)} predictor values but {len(rs)} responses")
        if not (all(map(isfinite, ws)) and all(map(isfinite, rs))):
            raise ValueError("observations must be finite")
        return tuple.__new__(cls, (ws, rs))

    @classmethod
    def _make(cls, columns: Iterable[tuple[float, ...]]) -> "Dataset":
        return cls(*columns)

    @property
    def n(self) -> int:
        return len(self.ws)


class RegressionModel(NamedTuple):
    """Estimated line r = mu0_hat + mu1_hat * w with fit diagnostics.

    sigma2_hat is the residual variance estimate ssr/(n-2), present only
    when n > 2.
    """

    mu0_hat: float
    mu1_hat: float
    ssr: float
    n: int
    sigma2_hat: Optional[float] = None


class NumericOverflow(RegressionError):
    """A sum, product or estimate is not finite in floating point."""


# Relative threshold on the spread of the predictor, against its largest
# magnitude, at or below which the slope denominator is treated as zero.
_SINGULAR_TOL = 1e-12

# `fit` sums the predictor as given while the binary exponent E of its
# largest magnitude (2**(E-1) <= max|w| < 2**E) is in -470..479, that is,
# while _W_SMALL <= max|w| < _W_LARGE; otherwise it sums w * 2**-E.
# - Overflow: each |w - w_bar| < 2**(E+1) and n < 2**63, so fsum(ws) and
#   sxx stay below 2**(E+63) and 2**(2E+65), finite for E <= 479.
# - Underflow: 1e-12 > 2**-40, so the singular threshold n * bound**2
#   exceeds 2**(2E-82), a normal float for E >= -470. An sxx that passes
#   is normal too, and squares below 2**-1022 cost it at most n * 2**-1075,
#   half its ulp.
# sxy also grows with r. When it is not finite, `fit` sums r * 2**-F
# instead, with F the binary exponent of max|r|: then |r - r_bar| < 2 and
# sxy stays below 2**(E+65) as sxx does.
_W_SMALL, _W_LARGE = 2.0**-471, 2.0**479


def _residuals(mu0: float, mu1: float, ws: tuple, rs: tuple) -> list[float]:
    return [r - (mu0 + mu1 * w) for w, r in zip(ws, rs)]


def _sum_of_squares(values: list[float]) -> float:
    return fsum(map(mul, values, values))


def _response_sums(dws: list[float], rs: tuple) -> tuple[float, float]:
    """r_bar and sxy = sum((w - w_bar) * (r - r_bar)), given the w - w_bar.

    Raises OverflowError or ValueError when sxy is not finite.
    """
    r_bar = fsum(rs) / len(rs)
    sxy = fsum(map(mul, dws, [r - r_bar for r in rs]))
    if not isfinite(sxy):
        raise OverflowError
    return r_bar, sxy


def fit(data: Dataset) -> RegressionModel:
    """Estimate intercept and slope by minimizing the sum of squared residuals.

    Two passes: the means, then the centered sums in
    slope = sum((w - w_bar) * (r - r_bar)) / sum((w - w_bar) * (w - w_bar)),
    which lose no precision to an offset in w or r (Chan, Golub and LeVeque
    1983). A predictor too large or too small for these sums is first
    scaled by a power of two, and the slope scaled back; a response too
    large for them is scaled the same way, and the line scaled back. Raises
    InsufficientData for n < 2, SingularDesign when the predictor values
    coincide to within 1e-12 of their largest magnitude, and
    NumericOverflow when an intermediate is not finite. n = 2 interpolates
    (ssr is 0 up to rounding, and there is no variance estimate).
    """
    ws, rs = data
    n = len(ws)
    if n < 2:
        raise InsufficientData(f"need at least 2 observations, got {n}")
    sws, w_max = ws, max(map(abs, ws))
    shift = 0
    if not _W_SMALL <= w_max < _W_LARGE:
        # Exact, but for values more than 2**1022 times below w_max.
        shift = frexp(w_max)[1]
        sws, w_max = [ldexp(w, -shift) for w in ws], ldexp(w_max, -shift)
    try:
        w_bar = fsum(sws) / n
        dws = [w - w_bar for w in sws]
        sxx = _sum_of_squares(dws)
        try:
            r_bar, sxy = _response_sums(dws, rs)
            r_shift = 0
        except (OverflowError, ValueError):
            r_shift = frexp(max(map(abs, rs)))[1]
            r_bar, sxy = _response_sums(dws, [ldexp(r, -r_shift) for r in rs])
        bound = _SINGULAR_TOL * w_max
        if sxx <= n * bound * bound:
            raise SingularDesign("all predictor values are (nearly) equal")
        mu1 = sxy / sxx
        mu0 = ldexp(r_bar - mu1 * w_bar, r_shift)
        mu1 = ldexp(mu1, r_shift - shift)
        ssr_value = _sum_of_squares(_residuals(mu0, mu1, ws, rs))
        if not (isfinite(mu1) and isfinite(mu0) and isfinite(ssr_value)):
            raise OverflowError
    except (OverflowError, ValueError) as exc:
        raise NumericOverflow("an intermediate of the fit is not finite") from exc
    sigma2 = ssr_value / (n - 2) if n > 2 else None
    return tuple.__new__(RegressionModel, (mu0, mu1, ssr_value, n, sigma2))


def predict(model: RegressionModel, w: float) -> float:
    """Fitted value of the line at predictor value w."""
    if not isfinite(w):
        raise ValueError("predictor value must be finite")
    return model.mu0_hat + model.mu1_hat * w


def residuals(model: RegressionModel, data: Dataset) -> list[float]:
    """Observed minus fitted, in dataset order."""
    return _residuals(model.mu0_hat, model.mu1_hat, data.ws, data.rs)


def ssr(model: RegressionModel, data: Dataset) -> float:
    """Sum of squared residuals of the model on the data."""
    return _sum_of_squares(residuals(model, data))


def goodness_of_fit(model: RegressionModel, data: Dataset) -> float:
    """R-squared: 1 - SSR/SST.

    Raises ConstantResponse when the response has zero variation (an
    empty one included) and NumericOverflow when a sum of squares is not
    finite.
    """
    try:
        r_bar = fsum(data.rs) / max(data.n, 1)
        sst = _sum_of_squares([r - r_bar for r in data.rs])
        ssr_value = ssr(model, data)
    except (OverflowError, ValueError) as exc:
        raise NumericOverflow("a sum of squares is not finite") from exc
    if not (isfinite(sst) and isfinite(ssr_value)):
        raise NumericOverflow("a sum of squares is not finite")
    if sst == 0.0:
        raise ConstantResponse("response is constant; R-squared undefined")
    return 1.0 - ssr_value / sst
