"""Detection rates, QBER and secret key rate for 3-state 1-decoy BB84.

The channel model converts efficiency into detection rates (and back); the
finite-key bound follows the standard 1-decoy analysis with Hoeffding
concentration.  Protocol parameters the field logs do not pin down (mean
photon numbers, basis probabilities, security epsilons) are configuration
with documented defaults.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache
from typing import NamedTuple

from .units import _check_integer, _check_non_negative, _check_positive, _check_ratio, _check_result
from .units import _finite_product, _finite_result, from_db

__all__ = [
    "DetectorModel",
    "SNSPD",
    "SPAD",
    "BLOCK_SIZE",
    "QkdSessionModel",
    "RateObservation",
    "KeyRatePoint",
    "key_rate_point",
    "expected_signal_rate",
    "channel_efficiency_from_rate",
    "calibrate_r_ref",
    "windowed_noise_rate",
    "expected_qber",
    "secret_key_rate",
    "analyze_session_log",
    "load_session_log",
    "write_session_log",
]


@cache
def _log():
    """The skylink.qkd logger, imported at the first clamp: most runs never import logging."""
    import logging

    return logging.getLogger(__name__)


_SESSION_LOG_HEADER = ["t_s", "signal_hz", "noise_hz", "qber_z", "qber_x", "skr_bps"]


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector: efficiency, total noise rate and gate window."""

    efficiency: float
    noise_rate: float = 2e3  # Hz, background + dark, as logged
    window: float = 600e-12  # s
    label: str = "detector"

    def __post_init__(self) -> None:
        _check_ratio("efficiency", self.efficiency)
        _check_non_negative("noise_rate", self.noise_rate)
        _check_positive("window", self.window)


SNSPD = DetectorModel(efficiency=0.80, label="snspd")
SPAD = DetectorModel(efficiency=0.15, label="spad")

# Bytes of sifted key per processing block in the field trial, by detector label.
BLOCK_SIZE = {"snspd": 250000, "spad": 50000}

_INTERNAL_LOSS = from_db(-1.2)  # receiver internal optics

# Reference detected rate at unit channel efficiency, unit detector
# efficiency and no internal loss, calibrated on the SNSPD run
# (20.4 kHz at eta_ch = -29 dB).
R_REF_DEFAULT = 20.4e3 / (from_db(-29.0) * _INTERNAL_LOSS * SNSPD.efficiency)


@dataclass(frozen=True)
class QkdSessionModel:
    """Detector, receiver loss and protocol configuration for one session.

    block_size is in bytes of sifted key, matching how the platform logs it;
    left at None it becomes the detector's field-trial ``BLOCK_SIZE``.
    The protocol defaults (mu, basis and intensity probabilities, epsilons)
    reproduce the field-trial throughput and are all overridable.  The
    finite-key constants (:class:`_FiniteKeyConstants`) are built and
    range-checked with the session, so a bad protocol setting is named here.
    """

    detector: DetectorModel
    internal_loss: float = _INTERNAL_LOSS
    r_ref: float = R_REF_DEFAULT  # Hz
    block_size: int | None = None  # bytes of sifted key per processing block
    mu1: float = 0.4
    mu2: float = 0.1
    p_mu1: float = 0.5
    p_z_alice: float = 0.3
    p_z_bob: float = 0.5
    f_ec: float = 1.16
    eps_sec: float = 1e-9
    eps_cor: float = 1e-15
    pulse_rate: float = 1e8  # Hz, source pulses: key_rate_point's noise gate
    intrinsic_qber: float = 0.005  # key_rate_point's QBER of the signal alone

    def __post_init__(self) -> None:
        _check_ratio("internal_loss", self.internal_loss)
        if self.block_size is None:
            if self.detector.label not in BLOCK_SIZE:
                raise ValueError(f"no default block_size for detector {self.detector.label!r}")
            object.__setattr__(self, "block_size", BLOCK_SIZE[self.detector.label])
        _check_integer("block_size", self.block_size, 1)
        if not math.inf > self.mu1 > self.mu2 > 0:
            raise ValueError(f"need finite mu1 > mu2 > 0, got mu1={self.mu1}, mu2={self.mu2}")
        for name in ("p_mu1", "p_z_alice", "p_z_bob", "eps_sec", "eps_cor"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        _check_positive("r_ref", self.r_ref)
        # The detected rate at eta_ch = 1, channel_efficiency_from_rate's divisor:
        # a finite r_ref times two ratios, it can only underflow.
        r_ref, loss, eff = self.r_ref, self.internal_loss, self.detector.efficiency
        factors = (("r_ref", r_ref, 1.0), *_loss_factors(self, 1.0))
        rate_per_eta = _finite_product("rate per eta_ch", factors, lambda: r_ref * loss * eff)
        if not 1 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec}")
        _check_positive("pulse_rate", self.pulse_rate)
        _check_qber("intrinsic_qber", self.intrinsic_qber)
        # Outside the fields: ==, hash, repr and asdict ignore them; replace() rebuilds them.
        object.__setattr__(self, "_rate_per_eta", rate_per_eta)
        object.__setattr__(self, "_finite_key", _FiniteKeyConstants(self))


def _loss_factors(session: QkdSessionModel, exponent: float) -> tuple:
    """The receiver's factors internal_loss and efficiency, to a power, for _finite_product."""
    return (("internal_loss", session.internal_loss, exponent),
            ("efficiency", session.detector.efficiency, exponent))


class _FiniteKeyConstants:
    """Factors of the finite-key bound that depend on the session alone.

    Terms follow Rusca et al., "Finite-key analysis for the 1-decoy state
    QKD protocol", APL 112, 171104 (2018).  Each prefix is the left-most
    part of the product it stands for in :func:`secret_key_rate`, so the
    rate keeps its bits.
    """

    def __init__(self, session: QkdSessionModel) -> None:
        # The terms that one finite field can push out of the float range go
        # through the range rule, naming that field (units._finite_result).
        mu1, mu2 = session.mu1, session.mu2
        self.p1 = p1 = session.p_mu1
        self.p2 = p2 = 1.0 - p1  # p_mu2 = 1 - p_mu1
        # n_Z: block_size bytes of sifted Z key, as bits
        self.n_z = _finite_result(
            "block_size", session.block_size, "n_Z", lambda: float(session.block_size * 8)
        )
        self.p_zz = session.p_z_alice * session.p_z_bob  # share sifted into Z (both chose Z)
        self.p_xx = (1.0 - session.p_z_alice) * (1.0 - session.p_z_bob)  # share sifted into X
        # The eps_sec/19 split: every Hoeffding deviation sqrt(n/2 ln(1/eps0))
        # and gamma's 21^2/a^2 are taken at eps0 = eps_sec/19, one share of the
        # 19 terms behind the 6 log2(19/eps_sec) cost.  Rusca et al. write gamma
        # at a = eps_sec; the smaller a gives the larger gamma, the safe side.
        # Deviation: gamma is 0 where its log2 argument is <= 1 (a large eps_sec):
        # the sampling bound's failure probability falls as gamma grows and is
        # already within its share at gamma = 0.
        eps0 = session.eps_sec / 19.0
        self.gamma_eps_sq = _finite_result(  # gamma: 21^2/a^2 at a = eps0
            "eps_sec", session.eps_sec, "gamma factor", lambda: (21.0 / eps0) ** 2
        )
        self.log_inv_eps0 = math.log(1.0 / eps0)
        self.ln2 = math.log(2.0)  # log 2 in gamma's denominator
        self.pa_cost = 6.0 * math.log2(19.0 / session.eps_sec)  # privacy amplification
        self.ec_cost = _finite_result(  # error-verification hash
            "eps_cor", session.eps_cor, "error-verification cost",
            lambda: math.log2(2.0 / session.eps_cor),
        )
        # Deviation: no per-intensity counts are modeled, so detections (and
        # errors) split across intensities as p_k mu_k, the high-loss limit;
        # w1 + w2 = 1.
        self.w1 = w1 = p1 * mu1 / (p1 * mu1 + p2 * mu2)
        self.w2 = 1.0 - w1
        # tau_0 = sum_k p_k e^-k, vacuum probability; tau_1 = sum_k p_k e^-k k,
        # single-photon probability.
        tau0, tau1 = (
            sum(p * math.exp(-mu) * mu**i / math.factorial(i) for p, mu in ((p1, mu1), (p2, mu2)))
            for i in (0, 1)
        )
        # e^mu1 of n^±_{mu1}, m^±_{mu1}
        self.exp_mu1 = exp_mu1 = _finite_result("mu1", mu1, "e^mu1", math.exp, mu1)
        self.exp_mu2 = exp_mu2 = math.exp(mu2)  # e^mu2 of n^±_{mu2}, m^±_{mu2}
        self.mu1_exp_mu2 = mu1 * exp_mu2  # s_0^-: mu1 e^mu2, prefix of its n^-_{mu2} term
        self.mu2_exp_mu1 = mu2 * exp_mu1  # s_0^-: mu2 e^mu1, prefix of its n^+_{mu1} term
        self.s0m_pre = tau0 / (mu1 - mu2)  # s_0^-
        # Deviation: s_0^+ is the min of 2(tau_0 e^k/p_k m_k^+ + delta) over
        # both intensities k; these are its two prefixes tau_0 e^k/p_k.
        self.s0p_pre1 = _finite_result("p_mu1", p1, "s_0^+ prefix", lambda: tau0 * exp_mu1 / p1)
        self.s0p_pre2 = tau0 * exp_mu2 / p2
        self.s1m_pre = _finite_result(  # s_1^-
            "mu2", mu2, "s_1^- prefix", lambda: tau1 * mu1 / (mu2 * (mu1 - mu2))
        )
        self.mu_ratio_sq_exp_mu1 = mu2**2 / mu1**2 * exp_mu1  # s_1^-: prefix of its n^+_{mu1} term
        self.s0_weight = (mu1**2 - mu2**2) / (mu1**2 * tau0)  # s_1^-: applied to s_0^+
        self.v1p_pre = tau1 / (mu1 - mu2)  # v_1^+
        # Both bases' n side, _n_terms at n = n_Z and n = n_X: the block size
        # fixes them, so each rate pays only the m sides.  d_nz is the
        # Hoeffding deviation of n_Z, s1_nz the n^-_{mu2} and n^+_{mu1} terms
        # of s_1^- at n_Z, s0_z is s_0^- at n_Z, clipped to [0, n_Z]; d_nx and
        # s1_nx are the same at n_X.  n_X, the X detections while n_Z Z bits
        # are sifted, is n_Z p_XX/p_ZZ whatever the signal rate.
        self.d_nz, self.s1_nz, self.s0_z = _n_terms(self, self.n_z)
        p_z = "p_z_alice" if session.p_z_alice <= session.p_z_bob else "p_z_bob"
        self.n_x = _finite_result(
            p_z, getattr(session, p_z), "n_X", lambda: self.n_z * self.p_xx / self.p_zz
        )
        self.d_nx, self.s1_nx, _ = _n_terms(self, self.n_x)


def _check_qber(name: str, value: float) -> None:
    if not 0 <= value <= 0.5:
        raise ValueError(f"{name} must be in [0, 0.5], got {value}")


@dataclass(frozen=True)
class RateObservation:
    """One reporting interval of the platform log."""

    timestamp: float
    signal_rate: float
    noise_rate: float
    qber_z: float
    qber_x: float
    skr: float | None = None

    def __post_init__(self) -> None:
        if not -math.inf < self.timestamp < math.inf:
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")
        for name in ("signal_rate", "noise_rate"):
            _check_non_negative(name, getattr(self, name))
        for name in ("qber_z", "qber_x"):
            _check_qber(name, getattr(self, name))
        if self.skr is not None:
            _check_non_negative("skr", self.skr)


# The key-rate point path (expected_signal_rate, windowed_noise_rate,
# expected_qber, secret_key_rate) tests all of an entry point's inputs in one
# chained condition, each as its checker writes it, and calls the checkers
# only to raise, in argument order (see skylink.units).


def expected_signal_rate(session: QkdSessionModel, eta_ch: float) -> float:
    """Detected signal rate for a given channel efficiency."""
    if not 0 < eta_ch <= 1:  # _check_ratio
        _check_ratio("eta_ch", eta_ch)
    return session.r_ref * eta_ch * session.internal_loss * session.detector.efficiency


def channel_efficiency_from_rate(session: QkdSessionModel, measured_rate: float) -> float:
    """Invert :func:`expected_signal_rate` for a measured detection rate."""
    _check_positive("measured_rate", measured_rate)
    eta = _finite_result(
        "measured_rate", measured_rate, "eta_ch", lambda: measured_rate / session._rate_per_eta
    )
    if eta > 1:
        warnings.warn(
            f"measured rate implies channel efficiency {eta:.3g} > 1; "
            "check the reference-rate calibration",
            stacklevel=2,
        )
    return eta


def calibrate_r_ref(
    session: QkdSessionModel, measured_rate: float, eta_ch: float
) -> QkdSessionModel:
    """Return a session whose r_ref maps eta_ch onto the measured rate.

    r_ref = measured_rate / (eta_ch*internal_loss*efficiency).  A system
    efficiency that underflows names its smallest factor, and an r_ref past
    the float range its largest: measured_rate, or the inverse of eta_ch,
    internal_loss or efficiency.
    """
    _check_positive("measured_rate", measured_rate)
    _check_ratio("eta_ch", eta_ch)
    eta_sys = _finite_product(
        "system efficiency", (("eta_ch", eta_ch, 1.0), *_loss_factors(session, 1.0)),
        lambda: eta_ch * session.internal_loss * session.detector.efficiency,
    )
    factors = (("measured_rate", measured_rate, 1.0), ("eta_ch", eta_ch, -1.0),
               *_loss_factors(session, -1.0))
    r_ref = _finite_product("r_ref", factors, lambda: measured_rate / eta_sys)
    return replace(session, r_ref=r_ref)


def windowed_noise_rate(raw_rate: float, window: float, pulse_rate: float) -> float:
    """Background rate accepted inside the gating window (duty-factor model)."""
    if not (0 <= raw_rate < math.inf and 0 < window < math.inf and 0 < pulse_rate < math.inf):
        _check_non_negative("raw_rate", raw_rate)
        _check_positive("window", window)
        _check_positive("pulse_rate", pulse_rate)
    duty = window * pulse_rate
    duty = 1.0 if 1.0 < duty else duty  # min(duty, 1.0)
    return raw_rate * duty


def expected_qber(signal_rate: float, noise_rate: float, intrinsic_qber: float = 0.0) -> float:
    """QBER of a mixture of signal and in-window noise (noise errs at 1/2).

    noise_rate is the accepted in-window noise; use
    :func:`windowed_noise_rate` first if the log carries the raw rate.
    """
    if not (0 <= signal_rate < math.inf and 0 <= noise_rate < math.inf
            and 0 <= intrinsic_qber <= 0.5):
        _check_non_negative("signal_rate", signal_rate)
        _check_non_negative("noise_rate", noise_rate)
        _check_qber("intrinsic_qber", intrinsic_qber)
    total = signal_rate + noise_rate
    if total == 0:
        raise ValueError("signal and noise rates are both zero; QBER undefined")
    # Written as intrinsic plus a noise share so that zero noise gives
    # intrinsic_qber exactly and the result never leaves [intrinsic, 0.5].
    return intrinsic_qber + (0.5 - intrinsic_qber) * (noise_rate / total)


# The bound's min/max clips, and windowed_noise_rate's duty clip, are
# conditional expressions that pick what the builtins pick, at a fraction of a
# call's cost: max(a, b) is a unless b > a, min(a, b) is a unless b < a.
# max(x, 0.0) and max(0.0, x) differ at -0.0 and nan, so each clip keeps the
# argument order of the call it replaces.


def _n_terms(c: _FiniteKeyConstants, n: float) -> tuple[float, float, float]:
    """(d_n, s1_n, s0_minus) of one basis with n detections.

    d_n is the Hoeffding deviation of n, s1_n the part of s_1^- that depends
    on n alone, and s0_minus is clipped to [0, n].
    """
    d_n = math.sqrt(n / 2.0 * c.log_inv_eps0)
    n1p = n * c.w1 + d_n
    n2m = n * c.w2 - d_n
    n2m = 0.0 if n2m < 0.0 else n2m  # max(n2m, 0.0)
    s0m = c.s0m_pre * (c.mu1_exp_mu2 * n2m / c.p2 - c.mu2_exp_mu1 * n1p / c.p1)
    s0m = s0m if s0m < n else n  # min(n, s0m)
    s1_n = c.exp_mu2 * n2m / c.p2 - c.mu_ratio_sq_exp_mu1 * n1p / c.p1
    return d_n, s1_n, s0m if s0m > 0.0 else 0.0  # max(0.0, s0m)


def secret_key_rate(
    session: QkdSessionModel,
    signal_rate: float,
    qber_z: float,
    qber_x: float,
) -> float:
    """Finite-key secret rate (bit/s) of the 1-decoy protocol.

    Blocks of ``session.block_size`` bytes of sifted Z-basis key are
    processed at the pace set by the detected signal rate; vacuum and
    single-photon contributions are bounded with Hoeffding inequalities and
    the phase error is transferred from the X basis with the usual
    random-sampling correction.  Negative bounds clamp to zero (logged).
    The factors that depend on the session alone, both bases' n side among
    them, are computed once per session (see :class:`_FiniteKeyConstants`);
    each point is one straight-line pass, in which the Z basis pays for
    s_1^- only and the X basis for s_1^- and v_1^+.
    """
    if not (0 < signal_rate < math.inf and 0 <= qber_z <= 0.5 and 0 <= qber_x <= 0.5):
        _check_positive("signal_rate", signal_rate)
        _check_qber("qber_z", qber_z)
        _check_qber("qber_x", qber_x)
    c = session._finite_key

    n_z = c.n_z  # sifted Z bits per block
    try:
        block_time = n_z / (signal_rate * c.p_zz)
    except ZeroDivisionError:  # signal_rate * p_zz underflows to 0
        block_time = math.inf
    if block_time == math.inf:  # decided inline: it runs once per key-rate point
        _check_result("signal_rate", signal_rate, "block time", block_time)

    # Z basis: s_1^- alone, clipped to [0, n_Z]; d_m is the Hoeffding
    # deviation of the m = qber n errors.
    m = qber_z * n_z
    d_m = math.sqrt(m / 2.0 * c.log_inv_eps0) if m > 0 else 0.0
    s0p1 = 2.0 * (c.s0p_pre1 * (m * c.w1 + d_m) + c.d_nz)  # s_0^+ at mu1
    s0p = 2.0 * (c.s0p_pre2 * (m * c.w2 + d_m) + c.d_nz)  # s_0^+ at mu2
    s0p = s0p if s0p < s0p1 else s0p1  # min(s0p1, s0p)
    s0p = s0p if s0p < n_z else n_z  # min(n, s0p)
    s0p = s0p if s0p > 0.0 else 0.0  # max(0.0, s0p)
    s_z1 = c.s1m_pre * (c.s1_nz - c.s0_weight * s0p)
    s_z1 = s_z1 if s_z1 < n_z else n_z  # min(n, s1m)
    s_z1 = s_z1 if s_z1 > 0.0 else 0.0  # max(0.0, s1m)
    if s_z1 <= 0:
        _log().info("secret_key_rate: single-photon bound vanished, clamping to 0")
        return 0.0

    # X basis: s_1^- clipped to [0, n_X] and v_1^+ clipped to [0, m].
    n_x = c.n_x  # X detections per block
    m = qber_x * n_x
    d_m = math.sqrt(m / 2.0 * c.log_inv_eps0) if m > 0 else 0.0
    m1p = m * c.w1 + d_m
    m2 = m * c.w2
    m2m = m2 - d_m
    m2m = 0.0 if m2m < 0.0 else m2m  # max(m2m, 0.0)
    s0p1 = 2.0 * (c.s0p_pre1 * m1p + c.d_nx)
    s0p = 2.0 * (c.s0p_pre2 * (m2 + d_m) + c.d_nx)
    s0p = s0p if s0p < s0p1 else s0p1  # min(s0p1, s0p)
    s0p = s0p if s0p < n_x else n_x  # min(n, s0p)
    s0p = s0p if s0p > 0.0 else 0.0  # max(0.0, s0p)
    s_x1 = c.s1m_pre * (c.s1_nx - c.s0_weight * s0p)
    s_x1 = s_x1 if s_x1 < n_x else n_x  # min(n, s1m)
    s_x1 = s_x1 if s_x1 > 0.0 else 0.0  # max(0.0, s1m)
    if s_x1 <= 0:
        _log().info("secret_key_rate: single-photon bound vanished, clamping to 0")
        return 0.0
    v_x1 = c.v1p_pre * (c.exp_mu1 * m1p / c.p1 - c.exp_mu2 * m2m / c.p2)
    v_x1 = v_x1 if v_x1 < m else m  # min(m, v1p)
    v_x1 = v_x1 if v_x1 > 0.0 else 0.0  # max(0.0, v1p)

    phi_x = v_x1 / s_x1
    phi_x = 0.5 if phi_x > 0.5 else phi_x  # min(phi_x, 0.5)
    b = 1e-12 if phi_x < 1e-12 else phi_x  # max(phi_x, 1e-12); b <= 0.5
    gamma_arg = (s_z1 + s_x1) / (s_z1 * s_x1 * (1.0 - b) * b) * c.gamma_eps_sq
    gamma = (
        math.sqrt(((s_z1 + s_x1) * (1.0 - b) * b) / (s_z1 * s_x1 * c.ln2) * math.log2(gamma_arg))
        if gamma_arg > 1.0
        else 0.0  # see _FiniteKeyConstants
    )
    phi_z = phi_x + gamma
    phi_z = 0.5 if phi_z > 0.5 else phi_z  # min(phi_z, 0.5)

    # Binary entropies h(x), 0 at x <= 0; x <= 0.5 here, a checked QBER or a
    # phase error clipped to 0.5.
    h_z = 0.0 if qber_z <= 0.0 else (
        -qber_z * math.log2(qber_z) - (1.0 - qber_z) * math.log2(1.0 - qber_z)
    )
    h_phi = 0.0 if phi_z <= 0.0 else (
        -phi_z * math.log2(phi_z) - (1.0 - phi_z) * math.log2(1.0 - phi_z)
    )
    leak_ec = n_z * session.f_ec * h_z
    key_len = c.s0_z + s_z1 * (1.0 - h_phi) - leak_ec - c.pa_cost - c.ec_cost
    if key_len <= 0:
        _log().info("secret_key_rate: bound non-positive (%.1f bits), clamping to 0", key_len)
        return 0.0
    return key_len / block_time


class KeyRatePoint(NamedTuple):
    """Detected signal and in-window noise (Hz), QBER of both bases, key rate (bit/s)."""

    signal_hz: float
    noise_hz: float
    qber: float
    skr_bps: float


def key_rate_point(session: QkdSessionModel, eta_ch: float) -> KeyRatePoint:
    """The four key-rate leaves at channel efficiency eta_ch, in order, at the
    session's pulse rate and intrinsic QBER; a block time that leaves the float
    range raises ValueError naming the input behind its largest factor, eta_ch
    or a session field such as r_ref.  Any real scalar eta_ch gives
    Python floats: it is checked as given, so a message keeps a numpy scalar's
    digits, then taken as a float."""
    if not 0 < eta_ch <= 1:  # _check_ratio
        _check_ratio("eta_ch", eta_ch)
    signal = expected_signal_rate(session, float(eta_ch))
    c = session._finite_key
    # secret_key_rate's block time, checked here so that its message names the
    # input behind its largest factor: eta_ch, or a session field
    try:
        block_time = c.n_z / (signal * c.p_zz)
    except ZeroDivisionError:  # signal * p_zz underflows to 0
        block_time = math.inf
    if block_time == math.inf:  # the factors are listed only to name one
        factors = (("block_size", session.block_size, 1.0), ("eta_ch", eta_ch, -1.0),
                   ("r_ref", session.r_ref, -1.0), *_loss_factors(session, -1.0),
                   ("p_z_alice", session.p_z_alice, -1.0), ("p_z_bob", session.p_z_bob, -1.0))
        _finite_product("block time", factors, lambda: block_time)
    det = session.detector
    noise = windowed_noise_rate(det.noise_rate, det.window, session.pulse_rate)
    qber = expected_qber(signal, noise, session.intrinsic_qber)
    return KeyRatePoint(signal, noise, qber, secret_key_rate(session, signal, qber, qber))


def analyze_session_log(records: list[RateObservation]) -> dict[str, dict[str, float]]:
    """Per-field mean/min/max/std summary of a session log."""
    import statistics  # not at module level: it loads decimal and fractions

    if not records:
        raise ValueError("empty session log")
    fields = {
        name: [getattr(r, name) for r in records]
        for name in ("signal_rate", "noise_rate", "qber_z", "qber_x")
    }
    fields["skr"] = [r.skr for r in records if r.skr is not None]
    out: dict[str, dict[str, float]] = {}
    for name, values in fields.items():
        if not values:
            continue
        out[name] = {
            "mean": statistics.fmean(values),
            "min": min(values),
            "max": max(values),
            "std": statistics.pstdev(values),
        }
    return out


def load_session_log(path) -> list[RateObservation]:
    """Read the session-log CSV (t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps)."""
    import csv

    records: list[RateObservation] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty session log") from None
        if [h.strip() for h in header] != _SESSION_LOG_HEADER:
            raise ValueError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                skr = float(row[5]) if row[5].strip() else None
                records.append(RateObservation(*(float(v) for v in row[:5]), skr))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no data rows")
    return records


def write_session_log(records: list[RateObservation], path) -> None:
    """Write the session-log CSV; a missing SKR becomes an empty field."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SESSION_LOG_HEADER)
        for r in records:
            rates = (r.timestamp, r.signal_rate, r.noise_rate, r.qber_z, r.qber_x)
            writer.writerow([*map(repr, rates), "" if r.skr is None else repr(r.skr)])
