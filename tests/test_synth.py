import itertools
import math

import numpy as np
import pytest

from skylink import synth
from skylink.zernike import empirical_variances, turbulence_variance


def test_deterministic_given_seed():
    cfg = synth.SynthConfig(r0=0.07, j_max=8, n_samples=500, seed=11, wind_speed=1.0)
    a = synth.generate_series(cfg)
    b = synth.generate_series(cfg)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_seed_changes_output():
    base = synth.SynthConfig(r0=0.07, j_max=4, n_samples=200, seed=11)
    other = synth.SynthConfig(r0=0.07, j_max=4, n_samples=200, seed=12)
    assert not np.array_equal(
        synth.generate_series(base).coefficients, synth.generate_series(other).coefficients
    )


def test_per_mode_substreams_stable_under_j_max():
    """Adding modes must not perturb the existing columns."""
    small = synth.generate_series(synth.SynthConfig(r0=0.07, j_max=5, n_samples=300, seed=2))
    large = synth.generate_series(synth.SynthConfig(r0=0.07, j_max=9, n_samples=300, seed=2))
    assert np.array_equal(small.coefficients, large.coefficients[:, :5])


def test_open_loop_variances_match_model():
    cfg = synth.SynthConfig(r0=0.06, j_max=10, n_samples=40000, seed=5)
    variances = empirical_variances(synth.generate_series(cfg))
    for j in range(1, 11):
        assert variances[j] == pytest.approx(turbulence_variance(j, 0.41, 0.06), rel=0.03)


def test_white_when_no_wind():
    cfg = synth.SynthConfig(r0=0.06, j_max=2, n_samples=20000, seed=8, wind_speed=0.0)
    x = synth.generate_series(cfg).coefficients[:, 0]
    lag1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    assert abs(lag1) < 0.03


def test_ar1_lag1_autocorrelation():
    cfg = synth.SynthConfig(r0=0.06, j_max=2, n_samples=20000, seed=8, wind_speed=1.5)
    f_g = 0.43 * 1.5 / 0.06
    expected = math.exp(-2 * math.pi * f_g / cfg.sample_rate)
    x = synth.generate_series(cfg).coefficients[:, 0]
    lag1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    assert lag1 == pytest.approx(expected, abs=0.05 * max(expected, 0.1))


def test_ar1_keeps_marginal_variance():
    cfg = synth.SynthConfig(r0=0.06, j_max=3, n_samples=40000, seed=9, wind_speed=0.3)
    variances = empirical_variances(synth.generate_series(cfg))
    for j in range(1, 4):
        assert variances[j] == pytest.approx(turbulence_variance(j, 0.41, 0.06), rel=0.05)


def test_ao_on_attenuates_corrected_modes():
    common = dict(r0=0.0875, j_max=12, n_samples=30000, seed=4, wind_speed=0.556, ao_modes=10)
    off = synth.generate_series(synth.SynthConfig(ao_on=False, **common))
    on = synth.generate_series(synth.SynthConfig(ao_on=True, **common))
    v_off = empirical_variances(off)
    v_on = empirical_variances(on)
    f_g = 0.43 * 0.556 / 0.0875
    rejection = min(1.0, (f_g / 10.0) ** (5.0 / 3.0))
    for j in range(1, 11):
        assert v_on[j] / v_off[j] == pytest.approx(rejection, rel=1e-12)
    # uncorrected modes untouched
    for j in (11, 12):
        assert v_on[j] == pytest.approx(v_off[j], rel=1e-12)


def test_ao_on_rejection_clamps_at_unity():
    """Greenwood frequency above the loop bandwidth: no correction."""
    common = dict(r0=0.03, j_max=3, n_samples=500, seed=4, wind_speed=5.0)
    off = synth.generate_series(synth.SynthConfig(ao_on=False, **common))
    on = synth.generate_series(synth.SynthConfig(ao_on=True, **common))
    assert np.array_equal(off.coefficients, on.coefficients)


def test_ao_on_at_a_greenwood_frequency_past_the_float_range_is_uncorrected():
    """(f_G/f_3dB)^(5/3) would overflow at this wind; above f_3dB the rejection is 1 unevaluated."""
    common = dict(r0=0.08, j_max=3, n_samples=50, seed=4, wind_speed=1e300)
    off = synth.generate_series(synth.SynthConfig(ao_on=False, **common))
    on = synth.generate_series(synth.SynthConfig(ao_on=True, **common))
    assert np.array_equal(off.coefficients, on.coefficients)


def test_timestamps_and_mask():
    cfg = synth.SynthConfig(r0=0.06, j_max=2, n_samples=100, sample_rate=250.0, seed=1)
    series = synth.generate_series(cfg)
    assert series.timestamps[1] - series.timestamps[0] == pytest.approx(1 / 250.0, rel=1e-12)
    assert series.valid_mask.shape == (100,) and series.valid_mask.all()
    assert series.wavelength_tag == cfg.wavelength


def test_config_validation():
    with pytest.raises(ValueError):
        synth.SynthConfig(r0=0.0)
    with pytest.raises(ValueError):
        synth.SynthConfig(r0=0.06, n_samples=1)
    with pytest.raises(ValueError):
        synth.SynthConfig(r0=0.06, wind_speed=-1.0)
    with pytest.raises(ValueError):
        synth.SynthConfig(r0=0.06, j_max=1)


def _lfilter_reference(cfg):
    """The per-mode scipy.signal.lfilter AR(1) that generate_series replaced.

    Returns the coefficients and each mode's standard deviation sigma_j.
    """
    lfilter = pytest.importorskip("scipy.signal").lfilter
    f_g = 0.43 * cfg.wind_speed / cfg.r0
    phi = math.exp(-2.0 * math.pi * f_g / cfg.sample_rate) if f_g > 0 else 0.0
    rejection = min(1.0, (f_g / cfg.f_3db) ** (5.0 / 3.0)) if cfg.ao_on else 1.0
    n = cfg.n_samples
    coeffs = np.empty((n, cfg.j_max))
    sigma = np.empty(cfg.j_max)
    for j in range(1, cfg.j_max + 1):
        var = turbulence_variance(j, cfg.d_rx, cfg.r0)
        if cfg.ao_on and j <= cfg.ao_modes:
            var *= rejection
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(j,))))
        eps = rng.standard_normal(n)
        if phi == 0.0:
            x = eps
        else:
            u = math.sqrt(1.0 - phi * phi) * eps
            u[0] = eps[0]
            x = lfilter([1.0], [1.0, -phi], u)
        sigma[j - 1] = math.sqrt(var)
        coeffs[:, j - 1] = sigma[j - 1] * x
    return coeffs, sigma


_AR1_GRID = [
    dict(wind_speed=w, r0=r0, n_samples=n, ao_on=ao)
    for w, r0, n, ao in itertools.product(
        (0.0, 0.05, 0.556, 5.0), (0.03, 0.2), (2, 1000, 10000), (False, True)
    )
] + [dict(wind_speed=0.001, r0=0.2, n_samples=10000, ao_on=False)]  # phi = 0.99986


@pytest.mark.parametrize("params", _AR1_GRID, ids=lambda p: "-".join(map(str, p.values())))
def test_ar1_matches_the_lfilter_reference(params):
    cfg = synth.SynthConfig(seed=7, **params)
    got = synth.generate_series(cfg).coefficients
    want, sigma = _lfilter_reference(cfg)
    if cfg.wind_speed == 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * sigma)
