import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylink import qkd
from skylink.units import from_db


@pytest.fixture
def snspd_session():
    return qkd.QkdSessionModel(qkd.SNSPD)


@pytest.fixture
def spad_session():
    return qkd.QkdSessionModel(qkd.SPAD, block_size=50000)


def test_detector_presets():
    assert qkd.SNSPD.efficiency == 0.80
    assert qkd.SPAD.efficiency == 0.15
    assert qkd.SNSPD.window == pytest.approx(600e-12)
    with pytest.raises(ValueError):
        qkd.DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        qkd.DetectorModel(efficiency=0.5, window=0.0)


def test_session_validation():
    with pytest.raises(ValueError):
        qkd.QkdSessionModel(qkd.SNSPD, mu1=0.1, mu2=0.4)
    with pytest.raises(ValueError):
        qkd.QkdSessionModel(qkd.SNSPD, p_z_alice=1.0)
    with pytest.raises(ValueError):
        qkd.QkdSessionModel(qkd.SNSPD, internal_loss=0.0)


def test_with_detector(snspd_session):
    swapped = snspd_session.with_detector(qkd.SPAD)
    assert swapped.detector is qkd.SPAD
    assert swapped.mu1 == snspd_session.mu1


def test_rate_inversion_round_trip(snspd_session):
    eta = from_db(-29.0)
    rate = qkd.expected_signal_rate(snspd_session, eta)
    assert qkd.channel_efficiency_from_rate(snspd_session, rate) == pytest.approx(eta, rel=1e-12)


def test_rate_scales_linearly(snspd_session):
    r1 = qkd.expected_signal_rate(snspd_session, 1e-3)
    r2 = qkd.expected_signal_rate(snspd_session, 2e-3)
    assert r2 == pytest.approx(2 * r1, rel=1e-12)


def test_inversion_warns_above_unity(snspd_session):
    huge = qkd.expected_signal_rate(snspd_session, 1.0) * 10
    with pytest.warns(UserWarning, match="efficiency"):
        eta = qkd.channel_efficiency_from_rate(snspd_session, huge)
    assert eta == pytest.approx(10.0, rel=1e-12)


def test_calibrate_r_ref(snspd_session):
    cal = qkd.calibrate_r_ref(snspd_session, 20.4e3, from_db(-29.0))
    assert qkd.expected_signal_rate(cal, from_db(-29.0)) == pytest.approx(20.4e3, rel=1e-12)


def test_windowed_noise_rate():
    assert qkd.windowed_noise_rate(2e3, 600e-12, 1e8) == pytest.approx(2e3 * 0.06, rel=1e-12)
    # duty factor saturates at 1
    assert qkd.windowed_noise_rate(2e3, 1e-3, 1e8) == 2e3
    with pytest.raises(ValueError):
        qkd.windowed_noise_rate(2e3, 0.0, 1e8)


def test_expected_qber_limits():
    assert qkd.expected_qber(1e4, 0.0, 0.005) == 0.005
    # exact at zero noise, not one ulp below
    assert qkd.expected_qber(1.16015625, 0.0, 0.21561256647637417) == 0.21561256647637417
    assert qkd.expected_qber(0.0, 1e3, 0.005) == 0.5
    # equal mixture sits halfway between intrinsic and 1/2
    assert qkd.expected_qber(1e3, 1e3, 0.0) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError, match="zero"):
        qkd.expected_qber(0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    signal=st.floats(1.0, 1e6),
    noise=st.floats(0.0, 1e5),
    extra=st.floats(1.0, 1e4),
    intrinsic=st.floats(0.0, 0.4),
)
@example(signal=1.16015625, noise=0.0, extra=1.0, intrinsic=0.21561256647637417)
def test_expected_qber_monotone_in_noise(signal, noise, extra, intrinsic):
    q1 = qkd.expected_qber(signal, noise, intrinsic)
    q2 = qkd.expected_qber(signal, noise + extra, intrinsic)
    assert intrinsic <= q1 <= 0.5
    assert q2 >= q1 - 1e-12


def test_skr_zero_at_half_qber(snspd_session):
    assert qkd.secret_key_rate(snspd_session, 20.4e3, 0.5, 0.5) == 0.0


def test_skr_deterministic(snspd_session):
    a = qkd.secret_key_rate(snspd_session, 20.4e3, 0.01, 0.01)
    b = qkd.secret_key_rate(snspd_session, 20.4e3, 0.01, 0.01)
    assert a == b > 0


def test_skr_monotone_in_phase_error(snspd_session):
    rates = [
        qkd.secret_key_rate(snspd_session, 20.4e3, 0.01, float(qx))
        for qx in np.linspace(0.0, 0.3, 16)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_skr_decreases_with_error_correction_cost(snspd_session):
    import dataclasses

    loose = dataclasses.replace(snspd_session, f_ec=1.0)
    tight = dataclasses.replace(snspd_session, f_ec=1.4)
    assert qkd.secret_key_rate(tight, 20.4e3, 0.02, 0.02) < qkd.secret_key_rate(
        loose, 20.4e3, 0.02, 0.02
    )


def test_skr_validation(snspd_session):
    with pytest.raises(ValueError):
        qkd.secret_key_rate(snspd_session, 0.0, 0.01, 0.01)
    with pytest.raises(ValueError):
        qkd.secret_key_rate(snspd_session, 1e4, 0.6, 0.01)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_skr_rejects_non_finite(snspd_session, bad):
    with pytest.raises(ValueError, match="signal_rate"):
        qkd.secret_key_rate(snspd_session, bad, 0.01, 0.01)
    with pytest.raises(ValueError, match="qber_z"):
        qkd.secret_key_rate(snspd_session, 20.4e3, bad, 0.01)
    with pytest.raises(ValueError, match="qber_x"):
        qkd.secret_key_rate(snspd_session, 20.4e3, 0.01, bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("eps_sec", 0.0),
        ("eps_sec", 1.0),
        ("eps_sec", 2.0),
        ("eps_sec", float("nan")),
        ("eps_cor", 0.0),
        ("eps_cor", 1.5),
        ("eps_cor", float("nan")),
        ("f_ec", 0.99),
        ("f_ec", -1.0),
        ("f_ec", float("inf")),
        ("f_ec", float("nan")),
    ],
)
def test_session_rejects_protocol_parameters(field, value):
    with pytest.raises(ValueError, match=field):
        qkd.QkdSessionModel(qkd.SNSPD, **{field: value})


def test_analyze_session_log():
    records = [
        qkd.RateObservation(0.0, 100.0, 10.0, 0.01, 0.02, 500.0),
        qkd.RateObservation(1.0, 200.0, 20.0, 0.02, 0.04, None),
    ]
    out = qkd.analyze_session_log(records)
    assert out["signal_rate"]["mean"] == pytest.approx(150.0)
    assert out["signal_rate"]["min"] == 100.0
    assert out["signal_rate"]["max"] == 200.0
    assert out["signal_rate"]["std"] == pytest.approx(50.0)
    # SKR stats skip missing entries
    assert out["skr"]["mean"] == 500.0
    with pytest.raises(ValueError):
        qkd.analyze_session_log([])


def test_observation_validation():
    with pytest.raises(ValueError):
        qkd.RateObservation(0.0, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        qkd.RateObservation(0.0, 1.0, 0.0, 0.7, 0.0)


def test_session_log_round_trip(tmp_path):
    records = [
        qkd.RateObservation(0.0, 20400.0, 2000.0, 0.008, 0.011, 1012.5),
        qkd.RateObservation(1.0, 20391.25, 1999.5, 0.0081, 0.0112, None),
    ]
    p = tmp_path / "session.csv"
    qkd.write_session_log(records, p)
    loaded = qkd.load_session_log(p)
    assert loaded == records
    # a second write is byte-identical
    p2 = tmp_path / "session2.csv"
    qkd.write_session_log(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_session_log_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=":2"):
        qkd.load_session_log(p)
    p.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        qkd.load_session_log(p)
    p.write_text("t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n1.0,x,3.0,0.0,0.0,\n")
    with pytest.raises(ValueError, match=":2"):
        qkd.load_session_log(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        qkd.load_session_log(p)
