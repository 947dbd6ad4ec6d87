import dataclasses
import math
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylink.atmosphere import (
    OpticalPath,
    TurbulenceState,
    cn2_from_r0,
    greenwood_frequency,
    r0_from_cn2,
    scale_r0_to_wavelength,
    scintillation_report,
)


def test_wavenumber():
    path = OpticalPath(1.555e-6, 18e3)
    assert path.wavenumber == 2 * math.pi / 1.555e-6


def test_derived_values_are_set_once_outside_the_fields(path):
    """wavenumber and cn2 are instance attributes set when built, not fields or properties."""
    ts = TurbulenceState.from_r0(0.0875, path, 1.0)
    for obj, name in ((path, "wavenumber"), (ts, "cn2")):
        assert name in vars(obj)
        assert name not in {f.name for f in dataclasses.fields(obj)}
        assert not hasattr(type(obj), name)
    assert ts == TurbulenceState.from_r0(0.0875, OpticalPath(1.555e-6, 18e3), 1.0)
    assert "cn2" not in repr(ts) and "wavenumber" not in repr(path)


def test_path_validation():
    with pytest.raises(ValueError):
        OpticalPath(0.0, 18e3)
    with pytest.raises(ValueError):
        OpticalPath(1.555e-6, -1.0)


def test_r0_against_mpmath_oracle(path):
    """High-precision evaluation of (0.16*Cn2*k^2*L)^(-3/5)."""
    cn2 = 3.4e-15
    with mpmath.workdps(50):
        k = 2 * mpmath.pi / mpmath.mpf("1.555e-6")
        expected = (mpmath.mpf("0.16") * mpmath.mpf("3.4e-15") * k**2 * 18000) ** mpmath.mpf(
            "-0.6"
        )
    assert r0_from_cn2(cn2, path) == pytest.approx(float(expected), rel=1e-12)


def test_rytov_against_mpmath_oracle(path):
    cn2 = 3.4e-15
    ts = TurbulenceState.from_cn2(cn2, path)
    with mpmath.workdps(50):
        k = 2 * mpmath.pi / mpmath.mpf("1.555e-6")
        expected = (
            mpmath.mpf("1.23")
            * mpmath.mpf("3.4e-15")
            * k ** (mpmath.mpf(7) / 6)
            * mpmath.mpf(18000) ** (mpmath.mpf(11) / 6)
        )
    sigma_r2 = scintillation_report(ts, path, 0.41).rytov_sigmaR2
    assert sigma_r2 == pytest.approx(float(expected), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    r0=st.floats(1e-3, 10.0),
    lam=st.floats(4e-7, 2e-6),
    length=st.floats(1e2, 1e6),
)
def test_r0_cn2_round_trip(r0, lam, length):
    path = OpticalPath(lam, length)
    assert r0_from_cn2(cn2_from_r0(r0, path), path) == pytest.approx(r0, rel=1e-10)


def test_wavelength_scaling_six_fifths():
    r0 = 0.08
    scaled = scale_r0_to_wavelength(r0, 1.555e-6, 0.8e-6)
    assert scaled == pytest.approx(r0 * (0.8 / 1.555) ** 1.2, rel=1e-12)
    # round trip
    back = scale_r0_to_wavelength(scaled, 0.8e-6, 1.555e-6)
    assert back == pytest.approx(r0, rel=1e-12)


def test_scaling_matches_cn2_invariance(path):
    """Same Cn2 evaluated at two wavelengths must reproduce the 6/5 law."""
    cn2 = 2e-15
    r0_a = r0_from_cn2(cn2, path)
    path_b = OpticalPath(0.9e-6, path.path_length)
    r0_b = r0_from_cn2(cn2, path_b)
    assert r0_b == pytest.approx(scale_r0_to_wavelength(r0_a, path.wavelength, 0.9e-6), rel=1e-12)


def test_turbulence_state_consistency(path):
    ts = TurbulenceState.from_r0(0.0875, path, 1.0)
    assert ts.cn2 == pytest.approx(cn2_from_r0(0.0875, path), rel=1e-12)
    assert ts.cn2 == cn2_from_r0(0.0875, path)
    with pytest.raises(ValueError):
        TurbulenceState.from_r0(0.0875, path, wind_speed=-1.0)


@pytest.mark.parametrize("r0", [1e-300, 1e300])
def test_r0_whose_cn2_leaves_the_float_range_names_r0(path, r0):
    """r0 ** (-5/3) overflows (1e-300) or underflows to 0 (1e300)."""
    want = rf"^r0 must give a finite, positive Cn2, got {re.escape(str(r0))} "
    for build in (cn2_from_r0, TurbulenceState.from_r0):
        with pytest.raises(ValueError, match=want):
            build(r0, path)


def test_r0_at_other_wavelength(path):
    # a turbulence state's r0, rescaled from its own path's wavelength
    ts = TurbulenceState.from_r0(0.0875, path)
    assert scale_r0_to_wavelength(ts.fried_r0, ts.path.wavelength, 0.8e-6) == pytest.approx(
        0.0875 * (0.8e-6 / path.wavelength) ** 1.2, rel=1e-12
    )


def test_scintillation_internal_identities(path):
    ts = TurbulenceState.from_r0(0.06, path)
    rep = scintillation_report(ts, path, 0.41)
    assert rep.beta0 == pytest.approx(0.4065 * rep.rytov_sigmaR2, rel=1e-12)
    assert rep.sigmaI2 == pytest.approx(math.exp(rep.T1 + rep.T2) - 1.0, rel=1e-12)
    assert rep.sigma_chi2 == pytest.approx(0.25 * math.log(rep.sigmaI2 + 1.0), rel=1e-12)
    assert rep.eta_s == pytest.approx(math.exp(-rep.sigma_chi2), rel=1e-12)
    assert 0 < rep.eta_s <= 1


def test_correlation_widths(path):
    ts = TurbulenceState.from_r0(0.06, path)
    rep = scintillation_report(ts, path, 0.41)
    sqrt_ll = math.sqrt(path.wavelength * path.path_length)
    assert rep.rho_c_weak == pytest.approx(sqrt_ll, rel=1e-12)
    assert rep.rho_c_strong == pytest.approx(
        0.36 * rep.rytov_sigmaR2 ** (-0.3) * sqrt_ll, rel=1e-12
    )
    # strong-regime width shrinks with turbulence strength
    rep2 = scintillation_report(TurbulenceState.from_r0(0.03, path), path, 0.41)
    assert rep2.rho_c_strong < rep.rho_c_strong


def test_aperture_averaging_helps(path):
    """Larger aperture, smaller scintillation index."""
    ts = TurbulenceState.from_r0(0.06, path)
    small = scintillation_report(ts, path, 0.05)
    large = scintillation_report(ts, path, 0.41)
    assert large.sigmaI2 < small.sigmaI2
    assert large.eta_s > small.eta_s


def test_greenwood_frequency(path):
    ts = TurbulenceState.from_r0(0.0875, path, wind_speed=0.556)
    assert greenwood_frequency(ts) == pytest.approx(0.43 * 0.556 / 0.0875, rel=1e-12)
    assert greenwood_frequency(TurbulenceState.from_r0(0.0875, path, 0.0)) == 0.0
