"""Every public entry point named here rejects nan and ±inf, and an input whose
result would leave the float range, naming the input."""

import os
from dataclasses import replace

import numpy as np
import pytest

from skylink import qkd, synth
from skylink.atmosphere import OpticalPath, TurbulenceState, scale_r0_to_wavelength
from skylink.atmosphere import cn2_from_r0, greenwood_frequency, r0_from_cn2, scintillation_report
from skylink.coupling import ReceiverChain, coupling_from_power, eta0, eta_phi_on, mode_match_beta
from skylink.estimation import FriedFit, fit_fried, predict_eta_smf, write_wfs_log
from skylink.linkbudget import LinkGeometry, full_budget, model_smf_breakdown, sweep_columns
from skylink.units import to_db
from skylink.zernike import ModeVarianceSet, ZernikeSeries, noll_weight, radial_order
from skylink.zernike import residual_variance, turbulence_variance

from conftest import series_with_exact_variances

_PATH = OpticalPath(1.555e-6, 18e3)
_CHAIN = ReceiverChain()
_GEOM = LinkGeometry(_PATH, _CHAIN)
_TURB = TurbulenceState.from_r0(0.0875, _PATH, 0.556)
_SMF = model_smf_breakdown(_CHAIN, _TURB, _PATH)
_SESSION = qkd.QkdSessionModel(qkd.SNSPD)
_VARIANCES = ModeVarianceSet({j: turbulence_variance(j, 0.41, 0.1) for j in range(1, 8)})
_SERIES = ZernikeSeries(np.arange(3.0), np.zeros((3, 4)), np.ones(3, dtype=bool), 1.555e-6)
_OBSERVATION = dict(timestamp=0.0, signal_rate=1e4, noise_rate=1e2, qber_z=0.01, qber_x=0.01)
_AO_ON = synth.generate_series(synth.SynthConfig(r0=0.08, n_samples=50, wind_speed=0.5, ao_on=True))
_FIT = FriedFit(0.08, 0.0, 1.0, 0.0, ("manual",))

# (input name, call with the bad value in that input's place)
_ENTRY_POINTS = [
    ("noise_rate", lambda v: qkd.DetectorModel(0.5, noise_rate=v)),
    ("window", lambda v: qkd.DetectorModel(0.5, window=v)),
    *[
        (name, lambda v, name=name: qkd.RateObservation(**{**_OBSERVATION, name: v}))
        for name in _OBSERVATION
    ],
    ("skr", lambda v: qkd.RateObservation(**_OBSERVATION, skr=v)),
    ("block_size", lambda v: qkd.QkdSessionModel(qkd.SNSPD, block_size=v)),
    ("mu1", lambda v: qkd.QkdSessionModel(qkd.SNSPD, mu1=v)),
    ("r_ref", lambda v: qkd.QkdSessionModel(qkd.SNSPD, r_ref=v)),
    ("measured_rate", lambda v: qkd.channel_efficiency_from_rate(_SESSION, v)),
    ("measured_rate", lambda v: qkd.calibrate_r_ref(_SESSION, v, 1e-3)),
    ("eta_ch", lambda v: qkd.calibrate_r_ref(_SESSION, 2e4, v)),
    ("raw_rate", lambda v: qkd.windowed_noise_rate(v, 600e-12, 1e8)),
    ("window", lambda v: qkd.windowed_noise_rate(2e3, v, 1e8)),
    ("pulse_rate", lambda v: qkd.windowed_noise_rate(2e3, 600e-12, v)),
    ("signal_rate", lambda v: qkd.expected_qber(v, 1e2)),
    ("noise_rate", lambda v: qkd.expected_qber(1e4, v)),
    ("intrinsic_qber", lambda v: qkd.expected_qber(1e4, 1e2, v)),
    ("ratio", to_db),
    ("J", lambda v: model_smf_breakdown(_CHAIN, _TURB, _PATH, v)),
    ("f_3db", lambda v: ReceiverChain(f_3db=v)),
    ("d_rx", lambda v: residual_variance(35, v, 0.1)),
    ("r0", lambda v: residual_variance(35, 0.41, v)),
    ("r0", lambda v: scale_r0_to_wavelength(v, 1.5e-6, 1.6e-6)),
    ("wavelength_from", lambda v: scale_r0_to_wavelength(0.1, v, 1.6e-6)),
    ("wavelength_to", lambda v: scale_r0_to_wavelength(0.1, 1.5e-6, v)),
    ("d_rx", lambda v: scintillation_report(_TURB, _PATH, v)),
    ("wavelength", lambda v: mode_match_beta(_CHAIN, v)),
    ("beta", lambda v: eta0(v, 0.2)),
    ("r0", lambda v: TurbulenceState.from_r0(v, _PATH)),
    ("a_coeff_db_km", lambda v: full_budget(_GEOM, _TURB, v, _SMF)),
    ("wind_speed", lambda v: TurbulenceState.from_r0(0.0875, _PATH, v)),
    ("p_in", lambda v: coupling_from_power(v, 1e-3, 0.5)),
    ("p_focus", lambda v: coupling_from_power(1e-4, v, 0.5)),
    ("eta_focus_to_fiber", lambda v: coupling_from_power(1e-4, 1e-3, v)),
    *[
        (name, lambda v, name=name: synth.SynthConfig(**{"r0": 0.08, name: v}))
        for name in ("r0", "d_rx", "sample_rate", "wind_speed", "f_3db", "wavelength")
    ],
    ("d_rx", lambda v: fit_fried(_VARIANCES, v)),
    ("r0_hat", lambda v: FriedFit(v, 0.0, 1.0, 0.0, (1, 2, 3))),
    ("d_rx", lambda v: write_wfs_log(_SERIES, v, os.devnull)),
    ("wavelength_tag", lambda v: ZernikeSeries(_SERIES.timestamps, _SERIES.coefficients,
                                               _SERIES.valid_mask, v)),
    ("wavelength", _SERIES.to_wavelength),
    ("mode 2", lambda v: ModeVarianceSet({1: 0.1, 2: v, 3: 0.1})),
    ("j", radial_order),
    ("j", noll_weight),
    ("j", lambda v: turbulence_variance(v, 0.41, 0.1)),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "name, call", _ENTRY_POINTS, ids=[f"{i}-{name}" for i, (name, _) in enumerate(_ENTRY_POINTS)]
)
def test_rejects_non_finite_input(name, call, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


def _first_key_rate(**fields):
    """The first rate of a session; the session builds and checks its
    finite-key constants when it is built, so a bad field raises there."""
    return qkd.secret_key_rate(qkd.QkdSessionModel(qkd.SNSPD, **fields), 2e4, 0.01, 0.01)


# (input name, call, a finite value in range whose result overflows or underflows)
_OUT_OF_RANGE = [
    ("signal_rate", lambda v: qkd.secret_key_rate(_SESSION, v, 0.01, 0.01), 5e-324),
    ("signal_rate", lambda v: qkd.secret_key_rate(_SESSION, v, 0.01, 0.01), 1e-305),
    ("r0", lambda v: TurbulenceState.from_r0(v, _PATH), 5e-324),
    ("r0", lambda v: _budget_at(v, 0.556), 1e-315),
    ("r_ref", lambda v: qkd.QkdSessionModel(qkd.SPAD, r_ref=v), 5e-324),  # r_ref * 0.11 -> 0
    ("r0", lambda v: residual_variance(35, 0.41, v), 1e-300),
    ("r0", lambda v: _smf_at(v, 0.556), 1e-300),
    ("r0", lambda v: turbulence_variance(2, 0.41, v), 1e-300),
    ("wavelength", lambda v: mode_match_beta(_CHAIN, v), 1e-320),
    ("r0", lambda v: scale_r0_to_wavelength(v, 1e-9, 1.0), 1e300),
    ("r0", lambda v: scale_r0_to_wavelength(v, 1.0, 1e-9), 5e-324),
    ("r0", lambda v: turbulence_variance(2, 0.41, v), 1e300),
    ("cn2", lambda v: r0_from_cn2(v, _PATH), 1e300),
    ("cn2", lambda v: r0_from_cn2(v, _PATH), 5e-324),
    ("r_ref", lambda v: qkd.QkdSessionModel(qkd.SNSPD, internal_loss=1e-300, r_ref=v), 1e-30),
    ("wavelength", lambda v: OpticalPath(wavelength=v), 1e-320),
    ("r0", lambda v: _smf_at(v, 0.556), 1e-5),
    ("wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [v], 0.2), 1e5),  # eta_tau underflows
    ("wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [0.5, v], 0.2), 107.5),  # in eta_ch
    ("a_coeff_db_km", lambda v: sweep_columns(_GEOM, 0.0875, 0.556, v), 1e3),
    ("r0", lambda v: sweep_columns(_GEOM, [0.0875, v], 0.556, 0.2), 1e-180),  # eta_coll
    ("beta", lambda v: eta0(v, 0.4), 100.0),
    ("a_coeff_db_km", lambda v: full_budget(_GEOM, _TURB, v, _SMF), 1e3),
    ("r0", lambda v: full_budget(_GEOM, TurbulenceState.from_r0(v, _PATH), 0.2, _SMF), 1e-180),
    ("a_coeff_db_km", lambda v: sweep_columns(_GEOM, [0.09, 0.09], 0.5, [0.2, v]), 1e3),
    ("w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-200),
    ("w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-320),
    ("r0", lambda v: cn2_from_r0(v, _PATH), np.float32(1e-30)),  # numpy warns; the rule raises
    ("w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-150),  # no r0 gives an eta_coll
    ("w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-20),
    ("eps_sec", lambda v: _first_key_rate(eps_sec=v), 1e-300),
    ("mu1", lambda v: _first_key_rate(mu1=v), 800.0),
    ("eps_sec", lambda v: _first_key_rate(eps_sec=v), 5e-324),
    ("mu2", lambda v: _first_key_rate(mu1=1e-300, mu2=v), 5e-324),
    ("eps_cor", lambda v: _first_key_rate(eps_cor=v), 1e-320),
    ("p_mu1", lambda v: _first_key_rate(p_mu1=v), 1e-320),
    ("p_z_alice", lambda v: _first_key_rate(p_z_alice=v), 1e-320),
    ("d_rx", lambda v: ReceiverChain(d_rx=v, d_obs=v / 10), 1e200),  # d_rx^2 overflows
    ("d_rx", lambda v: ReceiverChain(d_rx=v, d_obs=v / 10), 1e-200),  # d_rx^2 underflows
    ("r0", lambda v: _smf_at(v, 0.0), 1e-80),  # a beta0 power overflows in eta_s
    ("r0", lambda v: scintillation_report(TurbulenceState.from_r0(v, _PATH), _PATH, 0.41), 1e-80),
    ("r0", lambda v: sweep_columns(_GEOM, [v], 0.5, 0.2), 1e-80),
    ("r0", lambda v: _smf_at(v, 0.556), 1e-4),  # eta_phi_residual
    ("r0", lambda v: _smf_at(v, 0.72), 7.8e-4),  # eta_smf
    ("r0", lambda v: _budget_at(v, 0.556), 7.97e-4),  # eta_ch
    ("wind_speed", lambda v: _smf_at(0.0875, v), 1e300),  # the servo-lag power overflows
    ("wind_speed", lambda v: _smf_at(0.0875, v), 1e5),  # eta_tau underflows
    ("wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [v], 0.2), 1e300),
    ("wind_speed", lambda v: predict_eta_smf(_AO_ON, _FIT, v, _CHAIN, _PATH), 1e300),
    ("sample_rate", lambda v: synth.SynthConfig(r0=0.08, n_samples=3, sample_rate=v), 1e-320),
    ("a_coeff_db_km", lambda v: full_budget(_GEOM, _TURB, v, _SMF), 179.0),  # eta_a ~6e-323
    ("eta_smf", lambda v: full_budget(_GEOM, _TURB, 0.2, replace(_SMF, eta_smf=v)), 1e-323),
    ("wind_speed", lambda v: _smf_at(0.0875, v), 107.53),  # eta_tau, in eta_smf
    ("wind_speed", lambda v: _budget_at(0.0875, v), 107.5),  # eta_tau, in eta_ch
    ("variance of mode 7", lambda v: eta_phi_on(_variances_1e30(v), 35), 1e31),
    ("variance of mode 7", lambda v: predict_eta_smf(
        series_with_exact_variances(_variances_1e30(v), n=64), _FIT, 0.5, _CHAIN, _PATH), 1e31),
    ("wind_speed", lambda v: greenwood_frequency(TurbulenceState.from_r0(0.0875, _PATH, v)),
     1.7e308),
    ("p_in", lambda v: coupling_from_power(v, 1e-3, 0.5), 1.7e308),
    ("p_focus", lambda v: coupling_from_power(1e-4, v, 0.5), 5e-324),
    ("eta_focus_to_fiber", lambda v: coupling_from_power(1e-4, 1e-3, v), 5e-324),
    ("eta_ch", lambda v: qkd.calibrate_r_ref(_SESSION, 2e4, v), 5e-324),  # r_ref = inf
    ("eta_ch", lambda v: qkd.calibrate_r_ref(qkd.QkdSessionModel(qkd.SPAD), 2e4, v), 5e-324),
    ("measured_rate", lambda v: qkd.calibrate_r_ref(_SESSION, v, 1e-3), 1.7e308),
    ("measured_rate", lambda v: qkd.channel_efficiency_from_rate(_SESSION, v), 5e-324),
]


def _variances_1e30(variance_of_mode_7):
    """AO-ON variances of 1e30 rad^2 for modes 1-35, mode 7's the largest."""
    return ModeVarianceSet({j: 1e30 for j in range(1, 36)} | {7: variance_of_mode_7})


def _smf_at(r0, wind):
    """The design coupling breakdown at r0 and wind on the default path."""
    return model_smf_breakdown(_CHAIN, TurbulenceState.from_r0(r0, _PATH, wind), _PATH)


def _budget_at(r0, wind):
    """The design budget at r0 and wind, 0.2 dB/km, on the default geometry."""
    ts = TurbulenceState.from_r0(r0, _PATH, wind)
    return full_budget(_GEOM, ts, 0.2, model_smf_breakdown(_CHAIN, ts, _PATH))


@pytest.mark.parametrize(
    "name, call, value",
    _OUT_OF_RANGE,
    ids=[f"{i}-{name}-{value:g}" for i, (name, _, value) in enumerate(_OUT_OF_RANGE)],
)
def test_rejects_input_whose_result_leaves_the_float_range(name, call, value):
    """Every row raises the one message form of units._check_result."""
    form = rf"^{name} must give a finite, positive .+, got .+ \(.+ = .+\)$"
    with pytest.raises(ValueError, match=form):
        call(value)


def test_session_log_names_the_line_of_a_non_finite_field(tmp_path):
    p = tmp_path / "session.csv"
    p.write_text(
        "t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n"
        "0.0,20400.0,2000.0,0.008,0.011,1012.5\n"
        "1.0,20400.0,inf,0.008,0.011,\n"
    )
    with pytest.raises(ValueError, match=r":3: noise_rate must be finite"):
        qkd.load_session_log(p)


def test_session_needs_a_positive_decoy_intensity():
    # mu2 = 0 would divide by zero in the single-photon bound
    with pytest.raises(ValueError, match="mu2"):
        qkd.QkdSessionModel(qkd.SNSPD, mu2=0.0)
