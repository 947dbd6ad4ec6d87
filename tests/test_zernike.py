import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylink.zernike import (
    ModeVarianceSet,
    ZernikeSeries,
    empirical_variances,
    noll_weight,
    radial_order,
    residual_variance,
    turbulence_variance,
)


def enumerate_orders(j_max):
    """Brute-force mode -> radial order map: order n holds n+1 modes."""
    orders = {}
    j = 1
    n = 1
    while j <= j_max:
        for _ in range(n + 1):
            if j > j_max:
                break
            orders[j] = n
            j += 1
        n += 1
    return orders


def test_radial_order_against_enumeration():
    oracle = enumerate_orders(1000)
    for j, n in oracle.items():
        assert radial_order(j) == n


def test_radial_order_known_values():
    # tip/tilt, defocus+astigmatisms, comas+trefoils
    assert [radial_order(j) for j in (1, 2, 3, 5, 6, 9)] == [1, 1, 2, 2, 3, 3]
    with pytest.raises(ValueError):
        radial_order(0)


@settings(max_examples=200, deadline=None)
@given(j=st.integers(1, 10**6))
def test_radial_order_is_minimal(j):
    n = radial_order(j)
    assert n * (n + 3) // 2 >= j
    assert (n - 1) * (n + 2) // 2 < j


def _gamma_weight(n, digits):
    """The Gamma-function expression of the weight at order n, at digits digits."""
    with mpmath.workdps(digits):
        return float(
            (n + 1)
            / mpmath.pi
            * mpmath.gamma(n - mpmath.mpf(5) / 6)
            * mpmath.gamma(mpmath.mpf(23) / 6)
            * mpmath.gamma(mpmath.mpf(11) / 6)
            * mpmath.sin(5 * mpmath.pi / 6)
            / mpmath.gamma(n + mpmath.mpf(23) / 6)
        )


def test_weight_against_mpmath_oracle():
    """Gamma-function expression evaluated at 50 digits."""
    for j in (1, 3, 6, 10, 36, 300):
        expected = _gamma_weight(radial_order(j), 50)
        assert noll_weight(j) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", range(6, 151))
def test_weight_at_large_j_against_mpmath_oracle(k):
    """At j = 10^k, with more working digits than n has, so that n - 5/6 is
    exact: the difference of two huge lgamma values would lose digits here
    (1.8e-7 relative at 1e15, a weight of 0.5 from 1e35)."""
    n = radial_order(10**k)
    expected = _gamma_weight(n, len(str(n)) + 30)
    assert noll_weight(10**k) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("j", [10**177, 1e200, 1.7e308, 10**700])
def test_weight_below_the_float_range_names_j(j):
    """g(j) underflows to 0 from j ~ 1e177; past ~1e616 the order has no float."""
    message = r"^j must give a finite, positive weight, got .* \(weight = 0\.0\)$"
    with pytest.raises(ValueError, match=message):
        noll_weight(j)


def test_weight_depends_only_on_radial_order():
    assert noll_weight(1) == noll_weight(2)
    assert noll_weight(3) == noll_weight(4) == noll_weight(5)


def test_weights_decrease_with_order():
    weights = [noll_weight(j) for j in (1, 3, 6, 10, 15, 21, 28, 36)]
    assert all(a > b > 0 for a, b in zip(weights, weights[1:]))


def test_tip_tilt_weight_scale():
    """Tip+tilt carry ~87% of a 0.896*(D/r0)^(5/3) total in the classic
    tabulation; the Gamma-expression weights agree to a few percent."""
    assert noll_weight(1) + noll_weight(2) == pytest.approx(0.896, rel=0.05)


def test_turbulence_variance_scaling():
    v1 = turbulence_variance(1, 0.41, 0.10)
    v2 = turbulence_variance(1, 0.41, 0.05)
    assert v2 / v1 == pytest.approx(2.0 ** (5.0 / 3.0), rel=1e-12)
    assert turbulence_variance(1, 0.41, 0.10) == pytest.approx(
        (0.41 / 0.10) ** (5.0 / 3.0) * noll_weight(1), rel=1e-12
    )
    with pytest.raises(ValueError):
        turbulence_variance(1, 0.41, 0.0)


def test_residual_variance_closed_form():
    assert residual_variance(35, 0.41, 0.0875) == pytest.approx(
        0.2944 * 35 ** (-math.sqrt(3) / 2) * (0.41 / 0.0875) ** (5 / 3), rel=1e-12
    )
    # more corrected modes leave less residual
    assert residual_variance(35, 0.41, 0.0875) < residual_variance(2, 0.41, 0.0875)
    with pytest.raises(ValueError):
        residual_variance(0, 0.41, 0.0875)


def test_tail_sum_matches_residual_formula():
    """Sum of uncorrected per-mode weights vs the closed-form tail."""
    for J in (20, 35, 100):
        tail = 0.0
        n = 1
        j = 1
        while j <= 10**5:
            for _ in range(n + 1):
                if j > J:
                    tail += noll_weight(j)
                j += 1
                if j > 10**5:
                    break
            n += 1
        closed = 0.2944 * J ** (-math.sqrt(3) / 2)
        assert tail == pytest.approx(closed, rel=0.10)


def make_series(coeffs, mask=None):
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    return ZernikeSeries(np.arange(n, dtype=float), coeffs, mask, 1.555e-6)


def test_series_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ZernikeSeries(np.array([0.0, 0.0]), np.zeros((2, 3)), np.ones(2, bool), 1.5e-6)
    with pytest.raises(ValueError, match="shapes"):
        ZernikeSeries(np.array([0.0, 1.0]), np.zeros((3, 3)), np.ones(3, bool), 1.5e-6)
    # one valid flag per sample: a per-mode mask, or one of the wrong length, is refused
    for mask in (np.ones((2, 2), bool), np.ones(3, bool)):
        with pytest.raises(ValueError, match="inconsistent series shapes"):
            make_series(np.zeros((2, 2)), mask=mask)
    # increasing times whose difference overflows a float
    wide = ZernikeSeries(np.array([-1e308, 1e308]), np.zeros((2, 3)), np.ones(2, bool), 1.5e-6)
    assert wide.n_samples == 2


def test_empirical_variances_unbiased():
    data = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
    out = empirical_variances(make_series(data))
    assert out[1] == pytest.approx(np.var(data[:, 0], ddof=1), rel=1e-15)
    assert out.modes == (1, 2)


def test_empirical_variances_respects_mask():
    data = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 1e9]])
    out = empirical_variances(make_series(data, np.array([True, True, False])))
    assert out[1] == pytest.approx(np.var([1.0, 2.0], ddof=1), rel=1e-15)
    assert out[2] == pytest.approx(np.var([10.0, 20.0], ddof=1), rel=1e-15)
    assert out.modes == (1, 2)


def test_empirical_variances_rejects_a_non_finite_valid_sample():
    for bad in (np.nan, np.inf, 1e200):  # 1e200: its square overflows
        data = np.array([[1.0, 5.0], [bad, 6.0], [3.0, 8.0]])
        with pytest.raises(ValueError, match=r"\bmode 1\b"):
            empirical_variances(make_series(data))
    # a masked-out row is not a sample
    out = empirical_variances(make_series(data, np.array([True, False, True])))
    assert out.modes == (1, 2)


def test_fewer_than_two_valid_samples_raise_naming_the_count():
    data = np.array([[1.0, 5.0], [2.0, 6.0], [4.0, 9.0]])
    for mask, n in (([True, False, False], 1), ([False, False, False], 0)):
        with pytest.raises(ValueError, match=rf"^need at least 2 valid samples, got {n}$"):
            empirical_variances(make_series(data, np.array(mask)))
    out = empirical_variances(make_series(data, np.array([True, False, True])))
    assert out.modes == (1, 2)


def _reference_empirical_variances(series):
    """The per-column loop whose variances empirical_variances must reproduce bit for bit."""
    mask = series.valid_mask
    n = int(mask.sum())
    if n < 2:
        raise ValueError(f"need at least 2 valid samples, got {n}")
    variances = {}
    for col in range(series.j_max):
        with np.errstate(invalid="ignore", over="ignore"):
            variances[col + 1] = float(np.var(series.coefficients[mask, col], ddof=1))
    return ModeVarianceSet(variances)


def _variance_outcome(estimate, series):
    """Variances as float.hex, or the ValueError text."""
    try:
        out = estimate(series)
    except ValueError as exc:
        return str(exc)
    return {j: out[j].hex() for j in out.modes}


@st.composite
def _row_masked_series(draw):
    """Any float cells (nan, inf, past 1e154) in a few rows, or up to 700 Gaussian rows."""
    if draw(st.booleans()):
        n, j_max = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        cells = draw(st.lists(st.floats(), min_size=n * j_max, max_size=n * j_max))
        coeffs = np.reshape(cells, (n, j_max))
        valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        n, j_max = draw(st.integers(1, 700)), draw(st.integers(1, 35))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        loc, scale = draw(st.floats(-1e3, 1e3)), 10 ** draw(st.floats(-8.0, 8.0))
        coeffs = loc + scale * rng.standard_normal((n, j_max))
        valid = rng.random(n) < draw(st.sampled_from([0.0, 0.003, 0.5, 0.9, 1.0]))
    return make_series(coeffs, valid)


@settings(max_examples=200, deadline=None)
@given(series=_row_masked_series())
def test_empirical_variances_match_the_per_column_loop_bit_for_bit(series):
    assert _variance_outcome(empirical_variances, series) == _variance_outcome(
        _reference_empirical_variances, series
    )


def test_mode_variance_set_container():
    s = ModeVarianceSet({2: 0.5, 1: 0.25})
    assert s.modes == (1, 2)
    assert s[2] == 0.5
    assert 1 in s and 2 in s
    assert 3 not in s
    assert len(s) == 2
    assert list(s) == [2, 1]  # insertion order, as a dict iterates
    assert s.get(3) is None
    with pytest.raises(ValueError, match=r"^variance for mode 3 is missing$"):
        s[3]
    with pytest.raises(ValueError, match=r"^variance of mode 1 must be finite and >= 0, got -0.25$"):
        ModeVarianceSet({2: 0.5, 1: -0.25})
