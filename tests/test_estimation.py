import numpy as np
import pytest

from skylink import estimation, synth
from skylink.atmosphere import TurbulenceState, greenwood_frequency, scintillation_report
from skylink.coupling import eta_phi_on, eta_phi_residual, eta_tau
from skylink.zernike import empirical_variances

from conftest import analytic_variances, series_with_exact_variances


def test_noiseless_fit_is_exact():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
    assert fit.fit_exponent_check == pytest.approx(1.0, abs=1e-8)


def test_noiseless_fit_mode_exclusion_invariance():
    """Perfect-model data: dropping any one mode leaves r0_hat unchanged."""
    variances = analytic_variances(0.08, 0.41, 35)
    full = estimation.fit_fried(variances, 0.41).r0_hat
    for excluded in (1, 7, 35):
        modes = tuple(j for j in range(1, 36) if j != excluded)
        partial = estimation.fit_fried(variances, 0.41, modes).r0_hat
        assert partial == pytest.approx(full, rel=1e-12)


def test_fit_recovers_synthetic_r0():
    cfg = synth.SynthConfig(r0=0.05, j_max=35, n_samples=10000, seed=42)
    series = synth.generate_series(cfg)
    fit = estimation.fit_fried(empirical_variances(series), 0.41)
    assert fit.r0_hat == pytest.approx(0.05, rel=0.05)
    assert fit.fit_exponent_check == pytest.approx(1.0, abs=0.1)
    assert fit.residual_rms < 0.2


def test_fit_subset_of_modes():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41, modes=tuple(range(3, 36)))
    assert fit.modes_used == tuple(range(3, 36))
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)


def test_fit_excludes_nonpositive_variance():
    variances = analytic_variances(0.08, 0.41, 10)
    variances.variances[4] = 0.0
    with pytest.warns(UserWarning, match="mode 4"):
        fit = estimation.fit_fried(variances, 0.41)
    assert 4 not in fit.modes_used
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)


def test_fit_errors():
    variances = analytic_variances(0.08, 0.41, 5)
    with pytest.raises(ValueError, match="mode 6"):
        estimation.fit_fried(variances, 0.41, modes=(1, 2, 6))
    with pytest.raises(ValueError, match="at least 3"):
        estimation.fit_fried(variances, 0.41, modes=(1, 2))
    with pytest.raises(ValueError, match="mode 3 is listed twice"):
        estimation.fit_fried(variances, 0.41, modes=(3, 3, 4))
    with pytest.raises(ValueError):
        estimation.fit_fried(variances, -0.41)


def test_fit_flags_non_kolmogorov_spectrum():
    """Closed-loop (AO-ON) statistics break the open-loop variance law; the
    slope diagnostic and residuals must show it."""
    variances = analytic_variances(0.08, 0.41, 35, attenuation=0.05, ao_modes=20)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.residual_rms > 0.5
    assert abs(fit.fit_exponent_check - 1.0) > 0.1


def test_fit_uncertainty_zero_for_perfect_data():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.r0_sigma == pytest.approx(0.0, abs=1e-12)


def test_predict_eta_smf_composition(path, chain):
    r0, wind = 0.0875, 0.556
    targets = {j: 0.02 for j in range(1, 36)}
    ao_on = series_with_exact_variances(targets, n=256, seed=7)
    fit = estimation.FriedFit(r0, 0.0, 1.0, 0.0, tuple(range(1, 36)))
    out = estimation.predict_eta_smf(ao_on, fit, wind, chain, path)

    assert out.eta_phi_on == pytest.approx(
        eta_phi_on(empirical_variances(ao_on), 35), rel=1e-12
    )
    assert out.eta_phi_residual == pytest.approx(eta_phi_residual(35, chain.d_rx, r0), rel=1e-12)
    ts = TurbulenceState.from_r0(r0, path, wind)
    assert out.eta_s == pytest.approx(scintillation_report(ts, path, chain.d_rx).eta_s, rel=1e-12)
    assert out.eta_tau == pytest.approx(eta_tau(greenwood_frequency(ts), chain.f_3db), rel=1e-12)
    assert out.eta_smf == pytest.approx(
        out.eta0 * out.eta_s * out.eta_phi_on * out.eta_phi_residual * out.eta_tau, rel=1e-12
    )


def test_wfs_log_round_trip_bit_identical(tmp_path):
    cfg = synth.SynthConfig(r0=0.08, j_max=6, n_samples=50, seed=3, wind_speed=1.0)
    series = synth.generate_series(cfg)
    p1 = tmp_path / "wfs.csv"
    estimation.write_wfs_log(series, 0.41, p1)
    loaded, d_rx = estimation.load_wfs_log(p1)
    assert d_rx == 0.41
    assert np.array_equal(loaded.timestamps, series.timestamps)
    assert np.array_equal(loaded.coefficients, series.coefficients)
    assert np.array_equal(loaded.valid_mask, series.valid_mask)
    assert loaded.wavelength_tag == series.wavelength_tag
    p2 = tmp_path / "wfs2.csv"
    estimation.write_wfs_log(loaded, d_rx, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wfs_log_invalid_rows_masked(tmp_path):
    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1)
    mask = series.valid_mask.copy()
    mask[3, :] = False
    from skylink.zernike import ZernikeSeries

    masked = ZernikeSeries(series.timestamps, series.coefficients, mask, series.wavelength_tag)
    p = tmp_path / "wfs.csv"
    estimation.write_wfs_log(masked, 0.41, p)
    loaded, _ = estimation.load_wfs_log(p)
    assert not loaded.valid_mask[3].any()
    assert loaded.valid_mask.sum() == mask.sum()


def test_wfs_log_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("no header\n")
    with pytest.raises(ValueError, match=":1"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n0.01,2,0.2\n")
    with pytest.raises(ValueError, match=":4"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1,9.9\n")
    with pytest.raises(ValueError, match="fields"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06\nt_s,valid,b1\n0.0,1,0.1\n")
    with pytest.raises(ValueError, match="d_rx_m"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n")
    with pytest.raises(ValueError, match="no data"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n\n0.01,1,nan\n")
    with pytest.raises(ValueError, match=r":5: non-finite"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=inf\nt_s,valid,b1\n0.0,1,0.1\n")
    with pytest.raises(ValueError, match=":1: non-finite"):
        estimation.load_wfs_log(p)


def test_wfs_log_rejects_partial_row_mask(tmp_path):
    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1)
    mask = series.valid_mask.copy()
    mask[5, 1] = False
    from skylink.zernike import ZernikeSeries

    partial = ZernikeSeries(series.timestamps, series.coefficients, mask, series.wavelength_tag)
    p = tmp_path / "wfs.csv"
    with pytest.raises(ValueError, match="row 5"):
        estimation.write_wfs_log(partial, 0.41, p)
    assert not p.exists()


@pytest.mark.parametrize(
    "row, col, value, cell",
    [(3, 1, np.nan, "row 3 mode 2 is nan"), (9, -1, np.inf, "row 9 t_s is inf")],
)
def test_wfs_log_rejects_non_finite_cells_before_writing(tmp_path, row, col, value, cell):
    """The writer refuses what load_wfs_log would reject, and leaves no file."""
    from skylink.zernike import ZernikeSeries

    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1)
    t, b = series.timestamps.copy(), series.coefficients.copy()
    if col < 0:
        t[row] = value  # the last timestamp, so the times still increase
    else:
        b[row, col] = value
    bad = ZernikeSeries(t, b, series.valid_mask, series.wavelength_tag)
    p = tmp_path / "wfs.csv"
    with pytest.raises(ValueError, match=cell):
        estimation.write_wfs_log(bad, 0.41, p)
    assert not p.exists()
