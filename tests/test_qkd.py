import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylink import qkd, units
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
        ("pulse_rate", 0),
        ("intrinsic_qber", 0.7),
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
    p.write_text("t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=":3: expected 6 fields, got 3$"):  # a blank row counts
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


# Rates of the finite-key bound, pinned bit for bit: (session, signal Hz,
# QBER Z, QBER X or None for the same, rate bit/s).  The "dB" cases take
# signal and QBER from expected_signal_rate / windowed_noise_rate /
# expected_qber at that channel efficiency, intrinsic QBER 0.005 and a
# 100 MHz pulse rate.
_SNSPD = qkd.QkdSessionModel(qkd.SNSPD)
_SPAD = qkd.QkdSessionModel(qkd.SPAD, block_size=50000)
_CUSTOM = qkd.QkdSessionModel(
    qkd.SNSPD, block_size=100000, mu1=0.6, mu2=0.2, p_mu1=0.7, p_z_alice=0.5, p_z_bob=0.9,
    f_ec=1.05, eps_sec=1e-6, eps_cor=1e-10,
)
_PINNED = {
    "snspd-20dB": (_SNSPD, 162042.9598837534, 0.005366298198075448, None, 13503.735126757703),
    "snspd-29dB-anchor": (_SNSPD, 20400.0, 0.007894736842105263, None, 1566.9084362893595),
    "snspd-35dB": (_SNSPD, 5124.248320279543, 0.0163266947658256, None, 295.12385272275606),
    "snspd-40dB": (_SNSPD, 1620.429598837534, 0.03912950460028627, None, 25.019120113843854),
    "spad-20dB": (_SPAD, 30383.05497820376, 0.006947345931168036, None, 2219.23271591321),
    "spad-29dB-anchor": (_SPAD, 3825.0, 0.02005703422053232, None, 167.09640681681492),
    "snspd-x-worse": (_SNSPD, 20400.0, 0.01, 0.02, 1286.4234437394),
    "custom-protocol": (_CUSTOM, 5e4, 0.02, 0.03, 1558.733766739441),
}


@pytest.mark.parametrize("case", _PINNED)
def test_skr_pinned_bits(case):
    session, signal, qber_z, qber_x, rate = _PINNED[case]
    qber_x = qber_z if qber_x is None else qber_x
    assert qkd.secret_key_rate(session, signal, qber_z, qber_x) == rate


@pytest.mark.parametrize(
    "session, signal, qber, reason",
    [
        # SPAD at -35 dB
        (_SPAD, 960.7965600524142, 0.05995946433907908, "bound non-positive (-57223.4 bits)"),
        (_SNSPD, 20400.0, 0.5, "single-photon bound vanished"),
    ],
)
def test_skr_pinned_clamps(caplog, session, signal, qber, reason):
    with caplog.at_level("INFO", logger="skylink.qkd"):
        assert qkd.secret_key_rate(session, signal, qber, qber) == 0.0
    assert reason in caplog.text


def _h(x):
    """Binary entropy, 0 at x <= 0."""
    if x <= 0.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _sifted_counts(session):
    """(n_Z, n_X): sifted Z bits per block and the X detections while they are sifted."""
    p_zz = session.p_z_alice * session.p_z_bob
    p_xx = (1.0 - session.p_z_alice) * (1.0 - session.p_z_bob)
    n_z = float(session.block_size * 8)
    return n_z, n_z * p_xx / p_zz


def _decoy_bounds(session, n_tot, m_tot):
    """(s_0^-, s_1^-, v_1^+) of one basis with n_tot detections and m_tot errors."""
    mu1, mu2 = session.mu1, session.mu2
    p1 = session.p_mu1
    p2 = 1.0 - p1
    eps0 = session.eps_sec / 19.0

    def tau(i):
        return sum(
            p * math.exp(-mu) * mu**i / math.factorial(i) for p, mu in ((p1, mu1), (p2, mu2))
        )

    def hoeffding(n):
        return math.sqrt(n / 2.0 * math.log(1.0 / eps0))

    w1 = p1 * mu1 / (p1 * mu1 + p2 * mu2)
    w2 = 1.0 - w1

    def clip(x, hi):
        return max(0.0, min(hi, x))

    d_n = hoeffding(n_tot)
    d_m = hoeffding(m_tot) if m_tot > 0 else 0.0
    n1p = n_tot * w1 + d_n
    n2m = max(n_tot * w2 - d_n, 0.0)
    m1p = m_tot * w1 + d_m
    m2p = m_tot * w2 + d_m
    m2m = max(m_tot * w2 - d_m, 0.0)
    s0m = clip(
        tau(0) / (mu1 - mu2) * (mu1 * math.exp(mu2) * n2m / p2 - mu2 * math.exp(mu1) * n1p / p1),
        n_tot,
    )
    s0p = clip(
        min(
            2.0 * (tau(0) * math.exp(mu1) / p1 * m1p + d_n),
            2.0 * (tau(0) * math.exp(mu2) / p2 * m2p + d_n),
        ),
        n_tot,
    )
    s1m = clip(
        tau(1)
        * mu1
        / (mu2 * (mu1 - mu2))
        * (
            math.exp(mu2) * n2m / p2
            - (mu2**2 / mu1**2) * math.exp(mu1) * n1p / p1
            - (mu1**2 - mu2**2) / (mu1**2 * tau(0)) * s0p
        ),
        n_tot,
    )
    v1p = clip(
        tau(1) / (mu1 - mu2) * (math.exp(mu1) * m1p / p1 - math.exp(mu2) * m2m / p2),
        m_tot,
    )
    return s0m, s1m, v1p


def _reference_skr(session, signal_rate, qber_z, qber_x, per_point_n_x=False):
    """The finite-key bound as one self-contained per-call formula.

    n_X is n_Z p_XX/p_ZZ, or with per_point_n_x the X detections in one
    block's time at this signal rate, equal in exact arithmetic.
    """
    p_zz = session.p_z_alice * session.p_z_bob
    p_xx = (1.0 - session.p_z_alice) * (1.0 - session.p_z_bob)
    rate_z = signal_rate * p_zz
    rate_x = signal_rate * p_xx
    n_z, n_x = _sifted_counts(session)
    block_time = n_z / rate_z
    if per_point_n_x:
        n_x = block_time * rate_x
    eps0 = session.eps_sec / 19.0

    s_z0, s_z1, _ = _decoy_bounds(session, n_z, qber_z * n_z)
    _, s_x1, v_x1 = _decoy_bounds(session, n_x, qber_x * n_x)
    if s_z1 <= 0 or s_x1 <= 0:
        return 0.0
    phi_x = min(v_x1 / s_x1, 0.5)
    b = min(max(phi_x, 1e-12), 1.0 - 1e-12)
    gamma = math.sqrt(
        ((s_z1 + s_x1) * (1.0 - b) * b)
        / (s_z1 * s_x1 * math.log(2.0))
        * math.log2((s_z1 + s_x1) / (s_z1 * s_x1 * (1.0 - b) * b) * (21.0 / eps0) ** 2)
    )
    phi_z = min(phi_x + gamma, 0.5)
    leak_ec = n_z * session.f_ec * _h(qber_z)
    key_len = (
        s_z0
        + s_z1 * (1.0 - _h(phi_z))
        - leak_ec
        - 6.0 * math.log2(19.0 / session.eps_sec)
        - math.log2(2.0 / session.eps_cor)
    )
    if key_len <= 0:
        return 0.0
    return key_len / block_time


_unit = st.floats(0.05, 0.95)
_qber = st.one_of(st.just(0.0), st.just(0.5), st.floats(1e-4, 0.5))


@settings(max_examples=300, deadline=None)
@given(
    mu1=st.floats(0.05, 1.0),
    mu2_share=st.floats(0.01, 0.95),
    p_mu1=_unit,
    p_z_alice=_unit,
    p_z_bob=_unit,
    block_exp=st.floats(0.0, 6.0),
    f_ec=st.floats(1.0, 1.5),
    eps_sec_exp=st.floats(-15.0, -2.0),
    eps_cor_exp=st.floats(-20.0, -2.0),
    signal_exp=st.floats(0.0, 7.0),
    qber_z=_qber,
    qber_x=_qber,
)
# The field-trial protocol at blocks of 10^5 bytes and 10 kHz, varied to reach
# each clamp and the error-free branch.
@example(  # s_Z1 vanishes, s_X1 does not: few Z detections in a 10-byte block
    mu1=0.4, mu2_share=0.25, p_mu1=0.5, p_z_alice=0.1, p_z_bob=0.1, block_exp=1.0, f_ec=1.16,
    eps_sec_exp=-9.0, eps_cor_exp=-15.0, signal_exp=4.0, qber_z=0.01, qber_x=0.01,
)
@example(  # s_X1 vanishes, s_Z1 does not
    mu1=0.4, mu2_share=0.25, p_mu1=0.5, p_z_alice=0.3, p_z_bob=0.5, block_exp=5.0, f_ec=1.16,
    eps_sec_exp=-9.0, eps_cor_exp=-15.0, signal_exp=4.0, qber_z=0.01, qber_x=0.5,
)
@example(  # both vanish in a 1-byte block
    mu1=0.4, mu2_share=0.25, p_mu1=0.5, p_z_alice=0.3, p_z_bob=0.5, block_exp=0.0, f_ec=1.16,
    eps_sec_exp=-9.0, eps_cor_exp=-15.0, signal_exp=4.0, qber_z=0.01, qber_x=0.01,
)
@example(  # no errors: d_m = 0 in both bases
    mu1=0.4, mu2_share=0.25, p_mu1=0.5, p_z_alice=0.3, p_z_bob=0.5, block_exp=5.0, f_ec=1.16,
    eps_sec_exp=-9.0, eps_cor_exp=-15.0, signal_exp=4.0, qber_z=0.0, qber_x=0.0,
)
def test_skr_matches_reference_formula_bit_for_bit(
    mu1, mu2_share, p_mu1, p_z_alice, p_z_bob, block_exp, f_ec, eps_sec_exp, eps_cor_exp,
    signal_exp, qber_z, qber_x,
):
    session = qkd.QkdSessionModel(
        qkd.SNSPD,
        block_size=int(10**block_exp),
        mu1=mu1,
        mu2=mu1 * mu2_share,
        p_mu1=p_mu1,
        p_z_alice=p_z_alice,
        p_z_bob=p_z_bob,
        f_ec=f_ec,
        eps_sec=10**eps_sec_exp,
        eps_cor=10**eps_cor_exp,
    )
    signal = 10**signal_exp
    assert qkd.secret_key_rate(session, signal, qber_z, qber_x) == _reference_skr(
        session, signal, qber_z, qber_x
    )


@settings(max_examples=300, deadline=None)
@given(  # the session fields of test_skr_matches_reference_formula_bit_for_bit
    mu1=st.floats(0.05, 1.0),
    mu2_share=st.floats(0.01, 0.95),
    p_mu1=_unit,
    p_z_alice=_unit,
    p_z_bob=_unit,
    block_exp=st.floats(0.0, 6.0),
    f_ec=st.floats(1.0, 1.5),
    eps_sec_exp=st.floats(-15.0, -2.0),
    eps_cor_exp=st.floats(-20.0, -2.0),
)
def test_every_finite_key_constant_is_finite(
    mu1, mu2_share, p_mu1, p_z_alice, p_z_bob, block_exp, f_ec, eps_sec_exp, eps_cor_exp
):
    session = qkd.QkdSessionModel(
        qkd.SNSPD,
        block_size=int(10**block_exp),
        mu1=mu1,
        mu2=mu1 * mu2_share,
        p_mu1=p_mu1,
        p_z_alice=p_z_alice,
        p_z_bob=p_z_bob,
        f_ec=f_ec,
        eps_sec=10**eps_sec_exp,
        eps_cor=10**eps_cor_exp,
    )
    constants = vars(session._finite_key)
    assert {k: v for k, v in constants.items() if not math.isfinite(v)} == {}


def test_a_protocol_setting_past_the_float_range_is_named_when_the_session_is_built():
    form = r"^eps_sec must give a finite, positive gamma factor, got 1e-300 \(gamma factor = inf\)$"
    with pytest.raises(ValueError, match=form):
        qkd.QkdSessionModel(qkd.SNSPD, eps_sec=1e-300)


def test_block_size_past_the_float_range_names_block_size():
    with pytest.raises(ValueError, match=r"^block_size must give a finite, positive n_Z, got 1000"):
        qkd.QkdSessionModel(qkd.SNSPD, block_size=10**400)


def _single_photon_bounds(session, signal, qber_z, qber_x):
    """(s_Z1, s_X1) from the reference bound, with both bases evaluated."""
    n_z, n_x = _sifted_counts(session)
    return (
        _decoy_bounds(session, n_z, qber_z * n_z)[1],
        _decoy_bounds(session, n_x, qber_x * n_x)[1],
    )


_VANISHED = "secret_key_rate: single-photon bound vanished, clamping to 0"


@pytest.mark.parametrize(
    "session, signal, qber_z, qber_x, z_vanishes, x_vanishes, message",
    [
        (qkd.QkdSessionModel(qkd.SNSPD, block_size=10, p_z_alice=0.1, p_z_bob=0.1),
         1e4, 0.01, 0.01, True, False, _VANISHED),
        (_SNSPD, 1e4, 0.01, 0.5, False, True, _VANISHED),
        (qkd.QkdSessionModel(qkd.SNSPD, block_size=1), 1e4, 0.01, 0.01, True, True, _VANISHED),
        (_SPAD, 960.7965600524142, 0.05995946433907908, 0.05995946433907908, False, False,
         "secret_key_rate: bound non-positive (-57223.4 bits), clamping to 0"),
    ],
    ids=["z-vanishes", "x-vanishes", "both-vanish", "key-non-positive"],
)
def test_skr_clamp_logs_one_record(
    caplog, session, signal, qber_z, qber_x, z_vanishes, x_vanishes, message
):
    s_z1, s_x1 = _single_photon_bounds(session, signal, qber_z, qber_x)
    assert (s_z1 <= 0, s_x1 <= 0) == (z_vanishes, x_vanishes)
    with caplog.at_level("INFO", logger="skylink.qkd"):
        assert qkd.secret_key_rate(session, signal, qber_z, qber_x) == 0.0
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("INFO", message)]


def _gamma_log2_argument(session, signal, qber_z, qber_x):
    """The argument of gamma's log2, from the reference bound."""
    n_z, n_x = _sifted_counts(session)
    s_z1 = _decoy_bounds(session, n_z, qber_z * n_z)[1]
    _, s_x1, v_x1 = _decoy_bounds(session, n_x, qber_x * n_x)
    b = min(max(min(v_x1 / s_x1, 0.5), 1e-12), 1.0 - 1e-12)
    return (s_z1 + s_x1) / (s_z1 * s_x1 * (1.0 - b) * b) * (21.0 / (session.eps_sec / 19.0)) ** 2


@pytest.mark.parametrize(
    "qber_z, qber_x, rate, message",
    [
        (0.03, 0.1, 0.0, "secret_key_rate: bound non-positive (-3804252.0 bits), clamping to 0"),
        (0.01, 0.1, 285.87621563975864, None),
    ],
    ids=["clamped", "positive"],
)
def test_skr_takes_gamma_zero_where_its_log2_argument_is_at_most_one(
    caplog, qber_z, qber_x, rate, message
):
    """A large eps_sec leaves gamma's log2 argument <= 1: no deviation, no math domain error."""
    session = qkd.QkdSessionModel(qkd.SNSPD, eps_sec=0.5, block_size=10**7)
    assert _gamma_log2_argument(session, 2e4, qber_z, qber_x) <= 1.0
    with caplog.at_level("INFO", logger="skylink.qkd"):
        assert qkd.secret_key_rate(session, 2e4, qber_z, qber_x) == rate
    assert [r.getMessage() for r in caplog.records] == ([message] if message else [])


@pytest.mark.parametrize(
    "session",
    [_SNSPD, _SPAD, _CUSTOM, qkd.QkdSessionModel(qkd.SNSPD, block_size=1)],
    ids=["snspd", "spad", "custom", "one-byte"],
)
def test_stored_z_terms_are_the_per_point_formula(session):
    c = session._finite_key
    stored = (c.d_nz, c.s1_nz, c.s0_z)
    assert [x.hex() for x in stored] == [x.hex() for x in qkd._n_terms(c, c.n_z)]


@pytest.mark.parametrize(
    "session",
    [_SNSPD, _SPAD, _CUSTOM, qkd.QkdSessionModel(qkd.SNSPD, block_size=1)],
    ids=["snspd", "spad", "custom", "one-byte"],
)
def test_stored_x_terms_are_the_per_point_formula(session):
    c = session._finite_key
    assert c.n_x == c.n_z * c.p_xx / c.p_zz
    stored = (c.d_nx, c.s1_nx)
    assert [x.hex() for x in stored] == [x.hex() for x in qkd._n_terms(c, c.n_x)[:2]]


@pytest.mark.parametrize(
    "session", [_SNSPD, _SPAD, _CUSTOM], ids=["snspd", "spad", "custom"]
)
def test_session_n_x_moves_rates_from_the_per_point_n_x_by_ulps(session):
    """n_X once per session against block_time * (signal * p_XX) at each rate.

    Across -46 to -19 dB the two agree to 1e-13 relative and clamp at the
    same points.
    """
    positive = 0
    for db in np.linspace(-46.0, -19.0, 541):
        signal, _, qber, rate = qkd.key_rate_point(session, from_db(db))
        ref = _reference_skr(session, signal, qber, qber, per_point_n_x=True)
        assert (rate == 0.0) == (ref == 0.0), db
        assert abs(rate - ref) <= 1e-13 * ref, db
        positive += rate > 0.0
    assert 0 < positive < 541  # the grid crosses the clamp edge


def test_session_constants_leave_the_dataclass_alone():
    a = qkd.QkdSessionModel(qkd.SNSPD)
    b = qkd.QkdSessionModel(qkd.SNSPD)
    before = (repr(a), hash(a), dataclasses.asdict(a))
    rate = qkd.secret_key_rate(a, 20.4e3, 0.01, 0.01)
    assert a == b
    assert (repr(a), hash(a), dataclasses.asdict(a)) == before
    assert (repr(b), hash(b), dataclasses.asdict(b)) == before
    assert [f.name for f in dataclasses.fields(a)] == list(dataclasses.asdict(a))

    replaced = dataclasses.replace(a, eps_sec=1e-6)
    fresh = qkd.QkdSessionModel(qkd.SNSPD, eps_sec=1e-6)
    assert qkd.secret_key_rate(replaced, 20.4e3, 0.01, 0.01) == qkd.secret_key_rate(
        fresh, 20.4e3, 0.01, 0.01
    )
    assert qkd.secret_key_rate(replaced, 20.4e3, 0.01, 0.01) != rate
    assert qkd.secret_key_rate(a, 20.4e3, 0.01, 0.01) == rate


def test_block_size_defaults_to_the_detectors():
    assert qkd.QkdSessionModel(qkd.SPAD).block_size == 50000
    assert qkd.QkdSessionModel(qkd.SNSPD) == qkd.QkdSessionModel(qkd.SNSPD, block_size=250000)
    assert qkd.QkdSessionModel(qkd.SPAD) == qkd.QkdSessionModel(qkd.SPAD, block_size=50000)
    custom = qkd.DetectorModel(0.5, label="ingaas")
    assert qkd.QkdSessionModel(custom, block_size=1000).block_size == 1000
    with pytest.raises(ValueError, match="'ingaas'"):
        qkd.QkdSessionModel(custom)


# Each key-rate entry point tests all of its inputs in one chained condition
# and calls its checkers only when that fails.  The reference calls the
# checkers in argument order, then evaluates the formula: the guard must
# decide exactly what the checkers decide, on every kind of number.

_EDGES = (0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), 1.0, math.nextafter(1.0, 2.0),
          math.nan, math.inf, -math.inf)
_KINDS = (float, np.float64, np.float32)
_SESSION = qkd.QkdSessionModel(qkd.SNSPD)


def _drawn(domain):
    """One argument: in its domain, an edge value, nan, ±inf or a negative, as a
    Python float or a numpy float64 or float32 scalar."""
    value = st.one_of(domain, st.sampled_from(_EDGES), st.floats(max_value=-5e-324))

    def as_kind(value_kind):
        value, kind = value_kind
        with np.errstate(over="ignore"):  # 1e300 as float32 is inf
            return kind(value)

    return st.tuples(value, st.sampled_from(_KINDS)).map(as_kind)


_POSITIVE = _drawn(st.floats(0.0, 1.7976931348623157e308, exclude_min=True))
_NON_NEGATIVE = _drawn(st.floats(0.0, 1.7976931348623157e308))
_RATIO = _drawn(st.floats(0.0, 1.0, exclude_min=True))
_QBER_ARG = _drawn(st.floats(0.0, 0.5))


def _outcome(call):
    """The call's result with its type and bits, or its ValueError's text."""
    with np.errstate(all="ignore"):  # float32 arithmetic may overflow in both
        try:
            result = call()
        except ValueError as exc:
            return "raises", str(exc)
    return type(result), np.array(result).tobytes()


def _checked(checks, formula):
    for check, name, value in checks:
        check(name, value)
    return formula()


@settings(max_examples=300, deadline=None)
@given(eta_ch=_RATIO)
def test_expected_signal_rate_guard_decides_as_its_checker(eta_ch):
    s = _SESSION
    reference = _outcome(lambda: _checked(
        [(units._check_ratio, "eta_ch", eta_ch)],
        lambda: s.r_ref * eta_ch * s.internal_loss * s.detector.efficiency,
    ))
    assert _outcome(lambda: qkd.expected_signal_rate(s, eta_ch)) == reference


@settings(max_examples=300, deadline=None)
@given(raw_rate=_NON_NEGATIVE, window=_POSITIVE, pulse_rate=_POSITIVE)
def test_windowed_noise_rate_guard_decides_as_its_checkers(raw_rate, window, pulse_rate):
    reference = _outcome(lambda: _checked(
        [(units._check_non_negative, "raw_rate", raw_rate),
         (units._check_positive, "window", window),
         (units._check_positive, "pulse_rate", pulse_rate)],
        lambda: raw_rate * min(window * pulse_rate, 1.0),
    ))
    assert _outcome(lambda: qkd.windowed_noise_rate(raw_rate, window, pulse_rate)) == reference


def _qber_formula(signal_rate, noise_rate, intrinsic_qber):
    total = signal_rate + noise_rate
    if total == 0:
        raise ValueError("signal and noise rates are both zero; QBER undefined")
    return intrinsic_qber + (0.5 - intrinsic_qber) * (noise_rate / total)


@settings(max_examples=300, deadline=None)
@given(signal_rate=_NON_NEGATIVE, noise_rate=_NON_NEGATIVE, intrinsic_qber=_QBER_ARG)
def test_expected_qber_guard_decides_as_its_checkers(signal_rate, noise_rate, intrinsic_qber):
    reference = _outcome(lambda: _checked(
        [(units._check_non_negative, "signal_rate", signal_rate),
         (units._check_non_negative, "noise_rate", noise_rate),
         (qkd._check_qber, "intrinsic_qber", intrinsic_qber)],
        lambda: _qber_formula(signal_rate, noise_rate, intrinsic_qber),
    ))
    assert _outcome(
        lambda: qkd.expected_qber(signal_rate, noise_rate, intrinsic_qber)
    ) == reference


def _skr_formula(session, signal_rate, qber_z, qber_x):
    """_reference_skr behind the block-time range rule of secret_key_rate."""
    n_z, _ = _sifted_counts(session)
    try:
        block_time = n_z / (signal_rate * (session.p_z_alice * session.p_z_bob))
    except ZeroDivisionError:
        block_time = math.inf
    units._check_result("signal_rate", signal_rate, "block time", block_time)
    return _reference_skr(session, signal_rate, qber_z, qber_x)


@settings(max_examples=300, deadline=None)
@given(signal_rate=_POSITIVE, qber_z=_QBER_ARG, qber_x=_QBER_ARG)
def test_secret_key_rate_guard_decides_as_its_checkers(signal_rate, qber_z, qber_x):
    s = _SESSION
    reference = _outcome(lambda: _checked(
        [(units._check_positive, "signal_rate", signal_rate),
         (qkd._check_qber, "qber_z", qber_z),
         (qkd._check_qber, "qber_x", qber_x)],
        lambda: _skr_formula(s, signal_rate, qber_z, qber_x),
    ))
    assert _outcome(lambda: qkd.secret_key_rate(s, signal_rate, qber_z, qber_x)) == reference


@settings(max_examples=300, deadline=None)
@given(
    detector=st.sampled_from([qkd.SNSPD, qkd.SPAD]),
    eta_ch=st.floats(0.0, 1.0, exclude_min=True),
    pulse_rate=st.floats(1.0, 1e12),
    intrinsic_qber=st.floats(0.0, 0.5),
)
@example(detector=qkd.SNSPD, eta_ch=from_db(-29.0), pulse_rate=1e8, intrinsic_qber=0.005)
@example(detector=qkd.SPAD, eta_ch=from_db(-35.0), pulse_rate=1e8, intrinsic_qber=0.005)  # clamps
def test_key_rate_point_is_the_four_leaves_bit_for_bit(
    detector, eta_ch, pulse_rate, intrinsic_qber
):
    """Where the leaves reject the derived signal rate's block time, the point
    rejects it naming eta_ch."""
    session = qkd.QkdSessionModel(detector, pulse_rate=pulse_rate, intrinsic_qber=intrinsic_qber)
    signal = qkd.expected_signal_rate(session, eta_ch)
    noise = qkd.windowed_noise_rate(detector.noise_rate, detector.window, pulse_rate)
    qber = qkd.expected_qber(signal, noise, intrinsic_qber)
    try:
        skr = qkd.secret_key_rate(session, signal, qber, qber)
    except ValueError as exc:
        assert str(exc).startswith("signal_rate must give a finite, positive block time")
        with pytest.raises(ValueError, match=r"^eta_ch must give a finite, positive block time"):
            qkd.key_rate_point(session, eta_ch)
        return
    point = qkd.key_rate_point(session, eta_ch)
    assert [x.hex() for x in point] == [x.hex() for x in (signal, noise, qber, skr)]
    assert point._fields == ("signal_hz", "noise_hz", "qber", "skr_bps")


@pytest.mark.parametrize("detector", [qkd.SNSPD, qkd.SPAD], ids=["snspd", "spad"])
@pytest.mark.parametrize("scalar", [np.float32, np.float64])
def test_key_rate_point_of_a_numpy_eta_ch_is_the_point_of_its_float(detector, scalar):
    """Every field a Python float, with the bits of float(eta_ch); a bad eta_ch
    is named with its own digits (float(np.float32(1.1)) prints 1.100000023841858)."""
    session = qkd.QkdSessionModel(detector)
    eta_ch = scalar(1e-3)
    point = qkd.key_rate_point(session, eta_ch)
    assert [type(x) for x in point] == [float] * 4
    assert [x.hex() for x in point] == [x.hex() for x in qkd.key_rate_point(session, float(eta_ch))]
    with pytest.raises(ValueError, match=r"^eta_ch must be in \(0, 1\], got 1\.1$"):
        qkd.key_rate_point(session, scalar(1.1))


def test_channel_efficiency_divides_by_the_rate_at_unit_eta_ch_bit_for_bit():
    s = qkd.QkdSessionModel(qkd.SPAD, r_ref=3.3e7)
    rate_per_eta = s.r_ref * s.internal_loss * s.detector.efficiency
    assert qkd.channel_efficiency_from_rate(s, 4e3) == 4e3 / rate_per_eta


def test_duty_clip_is_exact_at_one_and_takes_an_overflowing_product_as_one():
    assert 0.5 * 2.0 == 1.0
    assert qkd.windowed_noise_rate(3.0, 0.5, 2.0) == 3.0
    below = math.nextafter(1.0, 0.0)
    assert qkd.windowed_noise_rate(3.0, below, 1.0) == 3.0 * below
    assert 1e200 * 1e200 == math.inf
    assert qkd.windowed_noise_rate(2e3, 1e200, 1e200) == 2e3 == 2e3 * min(1e200 * 1e200, 1.0)
