import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wrmap import regression
from wrmap.regression import Dataset

from ols_oracle import THREE_POINTS, exact_fit, random_dataset


def ssr_or_inf(model, data):
    """The SSR that `goodness_of_fit` returns, or inf where it raises
    NumericOverflow: a residual, or the SSR it sums scaled for R-squared,
    is then not finite. Every caller passes a line fitted to the data,
    whose residuals, scaled up with a tiny response, stay near 1; so that
    SSR overflows only where the unscaled one does."""
    try:
        return regression.goodness_of_fit(model, data)[0]
    except regression.NumericOverflow:
        return math.inf


def test_fit_exact_line():
    data = Dataset([1, 2, 3], [1, 2, 3])
    model = regression.fit(data)
    assert model.mu0_hat == pytest.approx(0.0, abs=1e-12)
    assert model.mu1_hat == pytest.approx(1.0, rel=1e-12)
    assert ssr_or_inf(model, data) == pytest.approx(0.0, abs=1e-12)


def test_fit_singular_design():
    with pytest.raises(regression.SingularDesign):
        regression.fit(Dataset([1, 1], [4, 6]))


def test_fit_offset_predictor_is_not_singular():
    shifted = Dataset((w + 1e6 for w in THREE_POINTS.ws), THREE_POINTS.rs)
    model = regression.fit(shifted)
    assert model.mu1_hat == pytest.approx(1.5, rel=1e-12)
    assert model.mu0_hat == pytest.approx(1 / 3 - 1.5e6, rel=1e-12)
    assert ssr_or_inf(model, shifted) == pytest.approx(1 / 6, rel=1e-9)


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**-200, 2.0**-40, 2.0**40, 2.0**200,
                                   2.0**600])
def test_fit_singularity_test_is_scale_aware(scale):
    spread = Dataset((w * scale for w in THREE_POINTS.ws), THREE_POINTS.rs)
    # The unscaled fit, its slope divided by the scale: even at 2^±600,
    # which fit sums as w * 2**-E.
    assert regression.fit(spread) == regression.fit(THREE_POINTS)._replace(mu1_hat=1.5 / scale)
    flat = Dataset([3 * scale] * 3, [4, 6, 5])
    with pytest.raises(regression.SingularDesign):
        regression.fit(flat)


@pytest.mark.parametrize("pairs", [
    [(0, -1.7e308), (1, 1.7e308), (2, 1.7e308)],  # unscaled, r - r_bar overflows
    [(0, -1.5e308), (1, 1.5e308)],  # the slope overflows
    [(0, 1e308), (1, -1e308), (2, 1e308)],  # the squared residuals overflow
    [(1, 1e200), (2, 2e200), (3, 5e200)],  # the same, r summed as given
])
def test_fit_overflow_is_a_regression_error(pairs):
    # fit raises where the exact line is beyond the float range (the second
    # row). Elsewhere the exact SSR is, so fit's line is near exact and
    # its SSR is not finite: goodness_of_fit returns it as inf, or raises
    # where a residual overflows too (the first row).
    data = Dataset(*zip(*pairs))
    slope, intercept, exact_ssr = exact_fit(data)
    if max(abs(slope), abs(intercept)) > sys.float_info.max:
        with pytest.raises(regression.NumericOverflow) as info:
            regression.fit(data)
        assert isinstance(info.value, regression.RegressionError)
    else:
        assert exact_ssr > sys.float_info.max
        model = regression.fit(data)
        assert_near_exact(data, model, with_ssr=False)
        assert ssr_or_inf(model, data) == math.inf


def assert_near_exact(data, model, with_ssr=True):
    """fit's slope, its line at the smallest and largest w, and (with_ssr)
    the root of its SSR, against the exact fit, within a bound on fit's
    rounding.

    With u = 2**-53, spread = max w - min w, R = max|r| and kappa =
    max|w| / spread, the means are off by at most 2u max|w| and 2u R, and
    each centered value, product and sum adds one rounding. As Sxx >=
    spread**2 / 2, the slope is off by at most u R / spread (9 sqrt(2n) +
    8n u kappa + 8n sqrt(2n) u kappa**2), and the line at a data point by
    u R times that plus 4 + 4 sqrt(2n) kappa, the intercept's roundings:
    both below tol = 16 n**2 u (1 + kappa + u kappa**2). Each float
    residual is within 2 tol R of the least-squares one. Uncentered sums of
    w * w would lose u kappa**2 R / spread in the slope.
    """
    u = Fraction(1, 2**53)
    slope, intercept, ssr = exact_fit(data)
    n, lo, hi = data.n, min(data.ws), max(data.ws)
    spread = Fraction(hi) - Fraction(lo)
    big_r = Fraction(max(map(abs, data.rs)))
    kappa = Fraction(max(map(abs, data.ws))) / spread
    tol = 16 * n * n * u * (1 + kappa + u * kappa * kappa)
    assert abs(Fraction(model.mu1_hat) - slope) * spread <= tol * big_r
    for w in (lo, hi):
        line = Fraction(model.mu0_hat) + Fraction(model.mu1_hat) * Fraction(w)
        assert abs(line - (intercept + slope * Fraction(w))) <= tol * big_r
    if not with_ssr:
        return
    # |sqrt(computed) - sqrt(ssr)| <= bound, squared: ssr may exceed any float.
    root = Fraction(math.sqrt(ssr_or_inf(model, data)))
    bound = 2 * Fraction(math.sqrt(n)) * tol * big_r
    assert max(root - bound, 0) ** 2 <= ssr <= (root + bound) ** 2


@pytest.mark.parametrize("pairs", [
    [(1e200, 1), (2e200, 2), (3e200, 3)],  # unscaled, (w - w_bar) ** 2 overflows
    [(-1.5e308, 0), (1.5e308, 1)],  # unscaled, w - w_bar overflows
    [(0, 0), (5e-324, 1e-300)],  # unscaled, (w - w_bar) ** 2 underflows to 0
    # w inside its window, r too large for sxy: the slope is 2**900, SSR 0.
    [(math.ldexp(k, 100), math.ldexp(k, 1000)) for k in (1, 2, 3)],
    # The same near the top of w's window, r with an intercept and noise:
    # the slope is about 2**90, the SSR about 2**1018.
    [(math.ldexp(1, 470), math.ldexp(4, 560) + math.ldexp(1, 500)),
     (math.ldexp(2, 470), math.ldexp(5, 560) - math.ldexp(1, 501)),
     (math.ldexp(4, 470), math.ldexp(7, 560) + math.ldexp(1, 500))],
])
def test_fit_at_any_predictor_magnitude(pairs):
    data = Dataset(*zip(*pairs))
    assert_near_exact(data, regression.fit(data))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-1e9, 1e9), st.integers(-600, 600))
def test_fit_matches_the_exact_fit_on_offset_data(seed, offset, k):
    base = random_dataset(np.random.default_rng(seed))
    data = Dataset((math.ldexp(w + offset, k) for w in base.ws), base.rs)
    try:
        model = regression.fit(data)
    except regression.SingularDesign:
        # Only with a spread within 1e-12 of the largest |w|: the computed
        # sxx is within 4u of Sxx >= spread**2 / 2.
        spread = max(data.ws) - min(data.ws)
        assert spread <= 1.5e-12 * math.sqrt(data.n) * max(map(abs, data.ws))
        return
    assert_near_exact(data, model)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-10, 10),
       st.one_of(st.integers(459, 475), st.integers(0, 475)), st.integers(-8, 8),
       st.integers(20, 60))
def test_fit_matches_the_exact_fit_at_any_response_magnitude(seed, c, a, excess, m):
    # A line c + w through random w, plus noise 2**-m of it, with w scaled
    # by 2**a and r by 2**b. b = 1016 - a + excess puts the unscaled
    # sum((w - w_bar) * (r - r_bar)) near 2**(1024 + excess), and r beyond
    # the exponents fit sums as given. Scaling r by 2**b is exact, so the
    # line scales with it bit for bit, or fit raises where the scaled line
    # is not finite; the SSR scales by 2**(2b), or is not finite where that
    # is not (for b above about 560, the noise's and r's own rounding make
    # it overflow). Where it fits, the line is near exact.
    b = 1016 - a + excess
    assume(b <= 1018)
    base = random_dataset(np.random.default_rng(seed))
    ws = [math.ldexp(w, a) for w in base.ws]
    rs = [c + w + math.ldexp(r, -m) for w, r in zip(base.ws, base.rs)]
    unscaled = Dataset(ws, rs)
    line = regression.fit(unscaled)
    data = Dataset(ws, (math.ldexp(r, b) for r in rs))
    try:
        expected = repr((math.ldexp(line.mu0_hat, b), math.ldexp(line.mu1_hat, b)))
    except OverflowError:
        expected = regression.NumericOverflow
    assert _fit_outcome(regression.fit, data) == expected
    if expected is regression.NumericOverflow:
        return
    model = regression.fit(data)
    try:
        scaled_ssr = math.ldexp(ssr_or_inf(line, unscaled), 2 * b)
    except OverflowError:
        assert ssr_or_inf(model, data) == math.inf
        assert_near_exact(data, model, with_ssr=False)
    else:
        assert ssr_or_inf(model, data) == scaled_ssr
        assert_near_exact(data, model)


def test_goodness_of_fit_overflow_is_a_regression_error():
    steep = regression.RegressionModel(0.0, 1e300)  # residuals overflow
    with pytest.raises(regression.NumericOverflow):
        regression.goodness_of_fit(steep, THREE_POINTS)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000), st.sampled_from([-600, 600]))
def test_r_squared_at_any_scale(seed, b, a):
    # goodness_of_fit sums r and the residuals scaled by one power of two,
    # so scaling w by 2**a and r by 2**b, which fit's line follows bit for
    # bit, leaves R-squared the same bits: SST never overflows. |b - a| is
    # bounded so that the slope, scaled by 2**(b - a), stays a normal float.
    assume(abs(b - a) <= 1000)
    base = random_dataset(np.random.default_rng(seed), min_spread=1e-3)
    data = Dataset((math.ldexp(w, a) for w in base.ws), (math.ldexp(r, b) for r in base.rs))
    r2 = regression.goodness_of_fit(regression.fit(base), base)[1]
    assert regression.goodness_of_fit(regression.fit(data), data)[1] == r2


@given(
    st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
             min_size=2, max_size=12).filter(lambda ps: len({w for w, _ in ps}) > 1),
    st.integers(-10**12, 10**12),
)
def test_slope_is_translation_invariant(pairs, shift):
    # Integer data shifted by an integer stay exact, so the centered sums
    # differ only through the rounding of the two means.
    ws, rs = zip(*pairs)
    base = regression.fit(Dataset(ws, rs))
    moved = regression.fit(Dataset((w + shift for w in ws), rs))
    assert moved.mu1_hat == pytest.approx(base.mu1_hat, rel=1e-9, abs=1e-12)


def test_fit_constant_response():
    data = Dataset([0, 1, 2], [5, 5, 5])
    model = regression.fit(data)
    assert model.mu1_hat == pytest.approx(0.0, abs=1e-12)
    assert model.mu0_hat == pytest.approx(5.0, rel=1e-12)
    assert ssr_or_inf(model, data) == pytest.approx(0.0, abs=1e-12)


def test_fit_insufficient_data():
    with pytest.raises(regression.InsufficientData):
        regression.fit(Dataset([1], [1]))


def test_predict():
    identity = regression.RegressionModel(0.0, 1.0)
    assert regression.predict(identity, 7.0) == 7.0
    flat = regression.RegressionModel(5.0, 0.0)
    assert regression.predict(flat, 123.0) == 5.0
    model = regression.fit(THREE_POINTS)
    # Line passes through the mean point.
    assert regression.predict(model, 2.0) == pytest.approx(10 / 3, rel=1e-12)


def test_residuals_three_points():
    model = regression.fit(THREE_POINTS)
    res = regression.residuals(model, THREE_POINTS)
    assert res == pytest.approx([1 / 6, -1 / 3, 1 / 6], rel=1e-9)
    assert math.fsum(res) == pytest.approx(0.0, abs=1e-12)
    assert math.fsum(w * e for w, e in zip(THREE_POINTS.ws, res)) == pytest.approx(0.0, abs=1e-12)


def test_residuals_perfect_fit():
    data = Dataset([1, 2, 3], [1, 2, 3])
    assert regression.residuals(regression.fit(data), data) == pytest.approx(
        [0, 0, 0], abs=1e-12
    )


def test_residuals_single_point_definition():
    model = regression.RegressionModel(1.0, 2.0)
    data = Dataset([3], [10])
    assert regression.residuals(model, data) == [10 - (1 + 2 * 3)]


def test_ssr_three_points():
    model = regression.fit(THREE_POINTS)
    assert ssr_or_inf(model, THREE_POINTS) == pytest.approx(1 / 6, rel=1e-12)


def test_goodness_of_fit():
    perfect = Dataset([1, 2, 3], [1, 2, 3])
    assert regression.goodness_of_fit(regression.fit(perfect), perfect)[1] == pytest.approx(
        1.0, rel=1e-12
    )
    model = regression.fit(THREE_POINTS)
    assert regression.goodness_of_fit(model, THREE_POINTS)[1] == pytest.approx(
        27 / 28, rel=1e-12
    )
    # A constant response has no R-squared, but an SSR.
    flat = Dataset([0, 1, 2], [5, 5, 5])
    assert regression.goodness_of_fit(regression.fit(flat), flat) == (0.0, None)
    # A response beyond 2**511, whose SST overflows unscaled, has an R-squared.
    huge = Dataset([0, 1, 2], [0, 1.2e154, 2.4e154])
    assert regression.goodness_of_fit(regression.fit(huge), huge)[1] == 1.0
    # An empty response has no variation either.
    assert regression.goodness_of_fit(model, Dataset([], [])) == (0.0, None)


def test_dataset_columns_and_constructors():
    data = Dataset([1, 2.5], [2, 3])
    assert (data.ws, data.rs) == ((1.0, 2.5), (2.0, 3.0))
    assert all(type(v) is float for v in data.ws + data.rs)
    assert data.n == 2
    # Any iterables, generators included; equal columns give equal datasets.
    same = Dataset((w for w in (1, 2.5)), iter([2.0, 3.0]))
    assert same == data and hash(same) == hash(data)
    assert Dataset([2.5, 1], [3, 2]) != data
    assert Dataset([], []).n == 0
    with pytest.raises(AttributeError):
        data.ws = ()


@pytest.mark.parametrize("ws, rs", [([1, 2], [3]), ([1], [2, 3]), ([], [1])])
def test_dataset_rejects_columns_of_unequal_length(ws, rs):
    with pytest.raises(ValueError, match="predictor values but"):
        Dataset(ws, rs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["ws", "rs"])
def test_dataset_rejects_a_non_finite_value(bad, column):
    columns = {"ws": [1.0, 2.0, 3.0], "rs": [4.0, 5.0, 6.0]}
    columns[column][1] = bad
    with pytest.raises(ValueError, match="^observations must be finite$"):
        Dataset(**columns)
    # _replace and _make, namedtuple's own ways to build one, check too.
    with pytest.raises(ValueError, match="^observations must be finite$"):
        Dataset([1, 2, 3], [4, 5, 6])._replace(**{column: columns[column]})
    with pytest.raises(ValueError, match="^observations must be finite$"):
        Dataset._make(columns.values())


def test_dataset_pickles_through_its_constructor():
    data = Dataset([1.0], [2.0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(data, protocol)) == data
    # Protocols 0 and 1 would otherwise rebuild the tuple unchecked.
    text = pickle.dumps(data, 0)
    assert b"F2.0" in text
    with pytest.raises(ValueError, match="^observations must be finite$"):
        pickle.loads(text.replace(b"F2.0", b"Fnan"))


def test_diagnostics_sum_the_observations_in_order():
    # Reading the columns must give the very sums the observation-wise
    # definitions give, bit for bit. Squares are products `d * d`, as the
    # module documents; `d ** 2` differs in the last bit on draws 670, 2569
    # and 2991 of this seed, so the loop covers them.
    rng = np.random.default_rng(23)
    for _ in range(3000):
        data = random_dataset(rng)
        model = regression.fit(data)
        fitted = [model.mu0_hat + model.mu1_hat * w for w in data.ws]
        res = [r - f for r, f in zip(data.rs, fitted)]
        r_bar = math.fsum(data.rs) / data.n
        sst = math.fsum((r - r_bar) * (r - r_bar) for r in data.rs)
        ssr = math.fsum(e * e for e in res)
        assert regression.residuals(model, data) == res
        assert regression.goodness_of_fit(model, data) == (ssr, 1.0 - ssr / sst)


def test_mean_point_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        data = random_dataset(rng)
        model = regression.fit(data)
        w_bar = math.fsum(data.ws) / data.n
        r_bar = math.fsum(data.rs) / data.n
        assert regression.predict(model, w_bar) == pytest.approx(
            r_bar, rel=1e-9, abs=1e-9
        )


def test_affine_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        data = random_dataset(rng)
        # Scaling w by 2^a and r by 2^b is exact, even with an offset, so
        # the line and its SSR scale with them bit for bit; two times in
        # three a is ±600, beyond the exponents fit sums as given. Other
        # scales and shifts hold to fit's rounding, which
        # test_fit_matches_the_exact_fit_on_offset_data bounds.
        a = int(rng.choice([-600, 600, int(rng.integers(-200, 201))]))
        b = int(rng.integers(-200, 201))
        offset = float(rng.choice([0.0, 1e3, 1e6]))
        unscaled = Dataset((w + offset for w in data.ws), (r + offset for r in data.rs))
        scaled = Dataset((math.ldexp(w, a) for w in unscaled.ws),
                         (math.ldexp(r, b) for r in unscaled.rs))
        base, pow2 = regression.fit(unscaled), regression.fit(scaled)
        expected = regression.RegressionModel(
            math.ldexp(base.mu0_hat, b), math.ldexp(base.mu1_hat, b - a)
        )
        assert repr(pow2) == repr(expected)
        assert ssr_or_inf(pow2, scaled) == math.ldexp(ssr_or_inf(base, unscaled), 2 * b)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Dataset([float("nan")], [1.0])
    with pytest.raises(ValueError):
        regression.predict(regression.RegressionModel(0, 1), float("inf"))


def reference_fit(data):
    """`fit` as written before it squared through `map(mul, ...)`: list
    comprehensions for every square and product, the same sums in the same
    order, on both columns as given. The oracle that the rewritten `fit`
    returns the same bits."""
    n = data.n
    if n < 2:
        raise regression.InsufficientData(f"need at least 2 observations, got {n}")
    ws, rs = data.ws, data.rs
    try:
        w_bar = math.fsum(ws) / n
        r_bar = math.fsum(rs) / n
        dws = [w - w_bar for w in ws]
        sxx = math.fsum([d * d for d in dws])
        sxy = math.fsum([d * (r - r_bar) for d, r in zip(dws, rs)])
        if not (math.isfinite(sxx) and math.isfinite(sxy)):
            raise OverflowError
        bound = 1e-12 * max(map(abs, ws))
        if sxx <= n * bound * bound:
            raise regression.SingularDesign("all predictor values are (nearly) equal")
        mu1 = sxy / sxx
        mu0 = r_bar - mu1 * w_bar
        if not (math.isfinite(mu1) and math.isfinite(mu0)):
            raise OverflowError
    except (OverflowError, ValueError) as exc:
        raise regression.NumericOverflow("an intermediate is not finite") from exc
    return regression.RegressionModel(mu0, mu1)


def _fit_outcome(fit, data):
    try:
        model = fit(data)
    except regression.RegressionError as exc:
        return type(exc)
    assert type(model) is regression.RegressionModel
    # repr tells -0.0 from 0.0 and prints every bit of each float.
    return repr(tuple(model))


def test_fit_matches_reference_bit_for_bit_random():
    rng = random.Random(2014)
    for _ in range(4000):
        n = rng.randint(2, 20)
        offset = rng.choice([0.0, rng.uniform(-1e9, 1e9)])
        scale = 2.0 ** rng.choice([0, rng.randint(-200, 200), -200, 200])
        data = Dataset(*zip(*(
            (scale * (offset + rng.uniform(-10, 10)), scale * rng.uniform(-1e3, 1e3))
            for _ in range(n)
        )))
        assert _fit_outcome(regression.fit, data) == _fit_outcome(reference_fit, data)


# Bounded so that scaling by 2**200 below stays finite.
finite = st.floats(-1e6, 1e6)


@given(
    st.lists(st.tuples(finite, finite), min_size=2, max_size=20),
    st.sampled_from([0.0, 1e3, -1e9, 1e9]),
    st.sampled_from([1.0, 2.0**-200, 2.0**200]),
)
def test_fit_matches_reference_bit_for_bit_property(pairs, offset, scale):
    ws, rs = zip(*pairs)
    data = Dataset(((w + offset) * scale for w in ws), (r * scale for r in rs))
    # reference_fit sums both columns as given, as fit does in this range
    # (and at 0, which it scales by 2**0).
    for column in data:
        top = max(map(abs, column))
        assume(top == 0 or regression._SMALL <= top < regression._LARGE)
    assert _fit_outcome(regression.fit, data) == _fit_outcome(reference_fit, data)


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([], regression.InsufficientData),
        ([(1.0, 2.0)], regression.InsufficientData),
        ([(1, 4), (1, 6)], regression.SingularDesign),
        ([(3e9, 1), (3e9, 2), (3e9, 5)], regression.SingularDesign),
        ([(0, 0), (1e-10, 1e300)], regression.NumericOverflow),  # the slope
        ([(0, -1.5e308), (1, 1.5e308)], regression.NumericOverflow),  # the slope
        ([(1e10, 0), (1e10 + 1, 1e300)], regression.NumericOverflow),  # the intercept
    ],
)
def test_fit_raises_the_reference_error(pairs, error):
    data = Dataset([w for w, _ in pairs], [r for _, r in pairs])
    assert _fit_outcome(reference_fit, data) is error
    assert _fit_outcome(regression.fit, data) is error


def reference_ssr_and_r2(model, data):
    """`ssr` and `goodness_of_fit` as written before they shared one
    residual pass: the residuals summed unscaled for the SSR, then computed
    and summed again, times the response's 2**-E, for R-squared. The oracle
    that the one-pass `goodness_of_fit` returns the same bits: the SSR, inf
    where its sum is not finite, and R-squared, None for a zero SST. Raises
    NumericOverflow where the scaled SSR is not finite."""
    def scaled_ssr(shift):
        mu0, mu1 = model.mu0_hat, model.mu1_hat
        es = [r - (mu0 + mu1 * w) for w, r in zip(data.ws, data.rs)]
        try:
            value = math.fsum([e * e for e in [math.ldexp(e, -shift) for e in es]])
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise regression.NumericOverflow("the sum of squared residuals is not finite")
        return value

    try:
        ssr = scaled_ssr(0)
    except regression.NumericOverflow:
        ssr = math.inf
    rs, _, shift = regression._scaled(data.rs)
    r_bar = math.fsum(rs) / max(len(rs), 1)
    sst = math.fsum([d * d for d in [r - r_bar for r in rs]])
    ssr_value = scaled_ssr(shift)
    if sst == 0.0:
        return ssr, None
    return ssr, 1.0 - ssr_value / sst


@st.composite
def models_and_data(draw):
    """A dataset whose response is varied, constant or empty, scaled by
    2**b beyond either end of the window `_scaled` leaves as given, and a
    model: its fit, a drawn line at the response's scale, or the `steep`
    line, whose residuals or their squares overflow."""
    b = draw(st.sampled_from([0, 600, -600, 1000, -1000]))
    n = draw(st.integers(1, 12))
    ws = draw(st.lists(finite, min_size=n, max_size=n))
    rs = draw(st.one_of(st.lists(finite, min_size=n, max_size=n),
                        finite.map(lambda r: [r] * n),
                        st.just(None)))
    data = Dataset([], []) if rs is None else Dataset(ws, (math.ldexp(r, b) for r in rs))
    kind = draw(st.sampled_from(["fit", "drawn", "steep"]))
    if kind == "steep":
        return regression.RegressionModel(0.0, 1e300), data
    if kind == "fit":
        try:
            return regression.fit(data), data
        except regression.RegressionError:
            pass
    line = (math.ldexp(draw(finite), b) for _ in range(2))
    return regression.RegressionModel(*line), data


def _ssr_and_r2_outcome(goodness_of_fit, model, data):
    try:
        return repr(goodness_of_fit(model, data))
    except regression.NumericOverflow:
        return regression.NumericOverflow


@settings(deadline=None)
@given(models_and_data())
def test_goodness_of_fit_matches_the_two_pass_reference_bit_for_bit(model_and_data):
    model, data = model_and_data
    assert (_ssr_and_r2_outcome(regression.goodness_of_fit, model, data)
            == _ssr_and_r2_outcome(reference_ssr_and_r2, model, data))
