"""Every public entry point named here rejects nan and ±inf, naming the input."""

import os

import numpy as np
import pytest

from skylink import qkd, synth
from skylink.atmosphere import OpticalPath, TurbulenceState, scale_r0_to_wavelength
from skylink.atmosphere import scintillation_report
from skylink.coupling import ReceiverChain, coupling_from_power, eta0, eta_tau, mode_match_beta
from skylink.estimation import FriedFit, fit_fried, write_wfs_log
from skylink.linkbudget import LinkGeometry, beam_divergence, collection_efficiency
from skylink.linkbudget import received_waist
from skylink.units import to_db
from skylink.zernike import ModeVarianceSet, ZernikeSeries, noll_weight, radial_order
from skylink.zernike import residual_variance, turbulence_variance

_PATH = OpticalPath(1.555e-6, 18e3)
_CHAIN = ReceiverChain()
_GEOM = LinkGeometry(_PATH, _CHAIN)
_TURB = TurbulenceState.from_r0(0.0875, _PATH, 0.556)
_SESSION = qkd.QkdSessionModel(qkd.SNSPD)
_VARIANCES = ModeVarianceSet({j: turbulence_variance(j, 0.41, 0.1) for j in range(1, 8)})
_SERIES = ZernikeSeries(np.arange(3.0), np.zeros((3, 4)), np.ones((3, 4), dtype=bool), 1.555e-6)
_OBSERVATION = dict(timestamp=0.0, signal_rate=1e4, noise_rate=1e2, qber_z=0.01, qber_x=0.01)

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
    ("f_g", lambda v: eta_tau(v, 10.0)),
    ("f_3db", lambda v: eta_tau(1.0, v)),
    ("d_rx", lambda v: residual_variance(35, v, 0.1)),
    ("r0", lambda v: residual_variance(35, 0.41, v)),
    ("r0", lambda v: scale_r0_to_wavelength(v, 1.5e-6, 1.6e-6)),
    ("wavelength_from", lambda v: scale_r0_to_wavelength(0.1, v, 1.6e-6)),
    ("wavelength_to", lambda v: scale_r0_to_wavelength(0.1, 1.5e-6, v)),
    ("d_rx", lambda v: scintillation_report(_TURB, _PATH, v)),
    ("wavelength", lambda v: mode_match_beta(_CHAIN, v)),
    ("beta", lambda v: eta0(v, 0.2)),
    ("r0", lambda v: beam_divergence(_GEOM, v)),
    ("theta", lambda v: received_waist(v, _PATH)),
    ("w_l", lambda v: collection_efficiency(v, _CHAIN)),
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
