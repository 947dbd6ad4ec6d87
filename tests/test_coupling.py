import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylink.atmosphere import TurbulenceState, greenwood_frequency
from skylink.coupling import (
    ReceiverChain,
    _u_start,
    compose_smf,
    coupling_from_power,
    eta0,
    eta_phi_on,
    mode_match_beta,
    obscuration_ratio,
    optimize_beta,
)
from skylink.linkbudget import model_smf_breakdown
from skylink.units import from_db, to_db
from skylink.zernike import ModeVarianceSet, residual_variance

from conftest import analytic_variances


def test_chain_defaults(chain):
    assert obscuration_ratio(chain) == pytest.approx(0.168 / 0.41, rel=1e-12)
    assert chain.eta_tel == pytest.approx(from_db(-1.4), rel=1e-12)


def test_chain_validation():
    with pytest.raises(ValueError):
        ReceiverChain(d_obs=0.5)  # obstruction larger than aperture
    with pytest.raises(ValueError):
        ReceiverChain(eta_optics=1.5)
    with pytest.raises(ValueError):
        ReceiverChain(ao_modes=1)


def test_mode_match_beta(chain, path):
    expected = (math.pi * 0.41 / (4 * 1.555e-6)) * (10.4e-6 / 2.0)
    assert mode_match_beta(chain, path.wavelength) == pytest.approx(expected, rel=1e-12)
    # design point sits near unity
    assert 0.9 < mode_match_beta(chain, path.wavelength) < 1.2


def test_eta0_reference_point():
    assert to_db(eta0(1.1, 0.41)) == pytest.approx(-2.7, abs=0.05)


def test_eta0_unobstructed_limit():
    """alpha = 0 reduces to the classic Gaussian-to-fiber overlap; the
    optimum efficiency is ~81% at beta ~1.12."""
    _, best = optimize_beta(0.0)
    assert best == pytest.approx(0.814, abs=0.005)


def test_eta0_small_beta_series_matches_exact():
    """The series branch agrees with a high-precision evaluation of the
    cancellation-prone exact formula."""
    import mpmath

    for alpha in (0.0, 0.41):
        for beta in (1e-4, 5e-4, 0.9999e-3):
            with mpmath.workdps(60):
                b, a = mpmath.mpf(beta), mpmath.mpf(alpha)
                bracket = (mpmath.exp(-b * b) - mpmath.exp(-b * b * a * a)) / (
                    b * mpmath.sqrt(1 - a * a)
                )
                exact = float(2 * bracket * bracket)
            assert eta0(beta, alpha) == pytest.approx(exact, rel=1e-9)


def test_eta0_validation():
    with pytest.raises(ValueError):
        eta0(0.0, 0.41)
    with pytest.raises(ValueError):
        eta0(1.0, 1.0)


def _stationary_beta(alpha):
    """50-digit root of F(u) = (2u + 1) expm1(-k u) / k + 2u, u = beta^2, k = 1 - alpha^2."""
    import mpmath

    with mpmath.workdps(50):
        k = 1 - mpmath.mpf(alpha) ** 2
        u = mpmath.findroot(
            lambda u: (2 * u + 1) * mpmath.expm1(-k * u) / k + 2 * u,
            (mpmath.mpf("0.4"), mpmath.mpf("1.3")),
            solver="anderson",
        )
        return float(mpmath.sqrt(u))


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_max=True))
def test_optimize_beta_solves_the_stationarity_condition(alpha):
    beta_opt, best = optimize_beta(alpha)
    assert beta_opt == pytest.approx(_stationary_beta(alpha), rel=1e-14, abs=0)
    assert best == eta0(beta_opt, alpha)
    if alpha < 0.99:
        # SciPy is a cross-check only; optimize_beta itself must not import it.
        from scipy.optimize import minimize_scalar

        ref = minimize_scalar(
            lambda b: -eta0(b, alpha),
            bounds=(1e-3, 10.0),
            method="bounded",
            options={"xatol": 1e-6},
        )
        beta_ref = float(ref.x)
        assert abs(beta_opt - beta_ref) <= 1e-6
        assert best >= eta0(beta_ref, alpha) * (1 - 1e-12)


def _seven_step_root(k):
    """u* by seven Newton steps on F from u = 1.5, optimize_beta's solve before its fitted start."""
    u = 1.5
    for _ in range(7):
        e = math.expm1(-k * u) / k
        f = (2.0 * u + 1.0) * e + 2.0 * u
        df = 2.0 * e - (2.0 * u + 1.0) * (1.0 + k * e) + 2.0
        u -= f / df
    return u


# 1 - 2**-53 and nextafter(1, 0) are the same float, the largest alpha below 1
@pytest.mark.parametrize(
    "alpha", [0.0, 5e-324, 1e-8, 0.41, 0.999, 1 - 2**-53, math.nextafter(1.0, 0.0)]
)
def test_optimize_beta_at_edge_alphas(alpha):
    beta_opt, best = optimize_beta(alpha)
    assert math.isfinite(beta_opt)
    assert beta_opt == pytest.approx(_stationary_beta(alpha), rel=1e-14, abs=0)
    assert best == eta0(beta_opt, alpha)


def test_fitted_start_is_within_its_stated_bound():
    # k = 2**-52 is the smallest 1 - alpha^2 of a float alpha < 1; 2.1e-4 is
    # the bound optimize_beta's docstring states.
    for k in [2.0**-52, *np.linspace(0.0, 1.0, 2001)[1:]]:
        k = float(k)
        assert abs(_u_start(k) - _seven_step_root(k)) <= 2.1e-4, k


def test_optimize_beta_matches_the_seven_step_solve():
    rng = np.random.default_rng(24)
    alphas = [
        0.0,
        *rng.uniform(0.0, 1.0, 20000),
        *(1.0 - np.logspace(-16, -1, 200)),
        *np.logspace(-300, -1, 200),
    ]
    for alpha in map(float, alphas):
        beta_ref = math.sqrt(_seven_step_root(1.0 - alpha * alpha))
        assert optimize_beta(alpha)[0] == pytest.approx(beta_ref, rel=2e-15, abs=0), alpha


@pytest.mark.parametrize("alpha", [1.0, -0.1, math.nan])
def test_optimize_beta_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha must be in"):
        optimize_beta(alpha)


def test_optimize_beta_reference_point():
    beta_opt, best = optimize_beta(0.41)
    assert to_db(best) == pytest.approx(-2.6, abs=0.05)
    # verified maximum: no nearby beta does better
    for b in np.linspace(0.5 * beta_opt, 1.5 * beta_opt, 201):
        assert eta0(float(b), 0.41) <= best + 1e-12


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(0.0, 0.8))
def test_optimize_beta_dominates_grid(alpha):
    _, best = optimize_beta(alpha)
    for b in np.linspace(0.1, 5.0, 50):
        assert eta0(float(b), alpha) <= best + 1e-9


def test_eta_phi_on_matches_product():
    variances = ModeVarianceSet({1: 0.2, 2: 0.1, 3: 0.05})
    expected = math.prod((1 + 2 * v) ** -0.5 for v in (0.2, 0.1, 0.05))
    assert eta_phi_on(variances, 3) == pytest.approx(expected, rel=1e-12)


def test_eta_phi_on_missing_mode_is_named():
    variances = ModeVarianceSet({1: 0.2, 3: 0.05})
    with pytest.raises(ValueError, match=r"^variance for mode 2 is missing$"):
        eta_phi_on(variances, 3)


def test_eta_phi_on_monotone_in_variance():
    base = {j: 0.1 for j in range(1, 6)}
    lo = eta_phi_on(ModeVarianceSet(dict(base)), 5)
    base[3] = 0.3
    hi = eta_phi_on(ModeVarianceSet(base), 5)
    assert hi < lo


def _smf_at(chain, path, wind=0.556, J=None):
    """The design coupling breakdown at r0 = 0.0875 m."""
    return model_smf_breakdown(chain, TurbulenceState.from_r0(0.0875, path, wind), path, J)


def test_eta_phi_residual_definition(chain, path):
    assert _smf_at(chain, path, J=35).eta_phi_residual == pytest.approx(
        math.exp(-residual_variance(35, 0.41, 0.0875)), rel=1e-12
    )


def test_eta_tau(chain, path):
    assert _smf_at(chain, path, wind=0.0).eta_tau == 1.0
    # a loop bandwidth equal to f_G leaves exp(-1)
    f_g = greenwood_frequency(TurbulenceState.from_r0(0.0875, path, 0.556))
    at_f_g = _smf_at(ReceiverChain(f_3db=f_g), path).eta_tau
    assert at_f_g == pytest.approx(math.exp(-1.0), rel=1e-12)
    grid = [_smf_at(chain, path, wind).eta_tau for wind in np.linspace(0.0, 10.0, 40)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))


@settings(max_examples=200, deadline=None)
@given(
    dbs=st.lists(st.floats(-20.0, 0.0), min_size=5, max_size=5),
)
def test_compose_identity_randomized(dbs):
    terms = [from_db(d) for d in dbs]
    out = compose_smf(*terms)
    assert out.eta_ao == pytest.approx(terms[2] * terms[3] * terms[4], rel=1e-12)
    assert out.eta_smf == pytest.approx(math.prod(terms), rel=1e-12)
    assert 0 < out.eta_smf <= 1


def test_compose_rejects_invalid():
    with pytest.raises(ValueError, match="eta_s"):
        compose_smf(0.5, 1.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="eta0"):
        compose_smf(0.0, 0.5, 0.5, 0.5, 0.5)


def test_design_route_uses_analytic_variances(chain):
    """Idealized closed loop: measured AO-ON variances near zero make the
    closed-loop spatial term approach unity."""
    tiny = analytic_variances(0.0875, chain.d_rx, 35, attenuation=1e-9, ao_modes=35)
    assert eta_phi_on(tiny, 35) == pytest.approx(1.0, abs=1e-6)


def test_coupling_from_power():
    eta = coupling_from_power(1e-7, 1e-6, from_db(-4.5))
    assert eta == pytest.approx(1e-7 / (1e-6 * from_db(-4.5)), rel=1e-12)


def test_coupling_from_power_warns_above_unity():
    with pytest.warns(UserWarning, match="exceeds"):
        eta = coupling_from_power(2e-6, 1e-6, 0.5)
    assert eta == pytest.approx(4.0, rel=1e-12)


def test_coupling_from_power_validation():
    with pytest.raises(ValueError):
        coupling_from_power(1e-7, 0.0, 0.5)
    with pytest.raises(ValueError):
        coupling_from_power(-1e-7, 1e-6, 0.5)
