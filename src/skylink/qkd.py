"""Detection rates, QBER and secret key rate for 3-state 1-decoy BB84.

The channel model converts efficiency into detection rates (and back); the
finite-key bound follows the standard 1-decoy analysis with Hoeffding
concentration.  Protocol parameters the field logs do not pin down (mean
photon numbers, basis probabilities, security epsilons) are configuration
with documented defaults.
"""

from __future__ import annotations

import csv
import logging
import math
import statistics
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

from .units import _check_integer, _check_non_negative, _check_positive, _check_ratio

__all__ = [
    "DetectorModel",
    "SNSPD",
    "SPAD",
    "BLOCK_SIZE",
    "QkdSessionModel",
    "RateObservation",
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

log = logging.getLogger(__name__)

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

# Reference detected rate at unit channel efficiency, unit detector
# efficiency and no internal loss, calibrated on the SNSPD run
# (20.4 kHz at eta_ch = -29 dB, internal loss -1.2 dB, efficiency 0.80).
R_REF_DEFAULT = 20.4e3 / (10 ** (-2.9) * 10 ** (-0.12) * 0.80)


@dataclass(frozen=True)
class QkdSessionModel:
    """Detector, receiver loss and protocol configuration for one session.

    block_size is in bytes of sifted key, matching how the platform logs it;
    left at None it becomes the detector's field-trial ``BLOCK_SIZE``.
    The protocol defaults (mu, basis and intensity probabilities, epsilons)
    reproduce the field-trial throughput and are all overridable.
    """

    detector: DetectorModel
    internal_loss: float = 10 ** (-0.12)  # -1.2 dB receiver internal optics
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
        if not 1 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec}")

    def with_detector(self, detector: DetectorModel) -> "QkdSessionModel":
        """The same session with another detector.

        A block_size equal to the old detector's ``BLOCK_SIZE`` entry becomes
        the new detector's entry (ValueError if it has none, as in the
        constructor); any other block_size is kept.
        """
        default = self.block_size == BLOCK_SIZE.get(self.detector.label)
        return replace(self, detector=detector, block_size=None if default else self.block_size)

    @cached_property
    def _finite_key(self) -> "_FiniteKeyConstants":
        # Kept in the instance __dict__, outside the dataclass fields, so
        # ==, hash, repr and asdict ignore it and replace() builds afresh.
        return _FiniteKeyConstants.of(self)


@dataclass(frozen=True)
class _FiniteKeyConstants:
    """Factors of the finite-key bound that depend on the session alone.

    Terms follow Rusca et al., "Finite-key analysis for the 1-decoy state
    QKD protocol", APL 112, 171104 (2018).  Each prefix is the left-most
    part of the product it stands for in :func:`secret_key_rate`, so the
    rate keeps its bits.
    """

    mu1: float  # signal intensity
    mu2: float  # decoy intensity
    p1: float  # p_mu1
    p2: float  # p_mu2 = 1 - p_mu1
    n_z: float  # n_Z: block_size bytes of sifted Z key, as bits
    p_zz: float  # share of detections sifted into Z (both chose Z)
    p_xx: float  # share sifted into X
    # The eps_sec/19 split: every Hoeffding deviation sqrt(n/2 ln(1/eps0))
    # and gamma's 21^2/a^2 are taken at eps0 = eps_sec/19, one share of the
    # 19 terms behind the 6 log2(19/eps_sec) cost.  Rusca et al. write gamma
    # at a = eps_sec; the smaller a gives the larger gamma, the safe side.
    eps0: float
    log_inv_eps0: float  # ln(1/eps0)
    # Deviation: no per-intensity counts are modeled, so detections (and
    # errors) split across intensities as p_k mu_k, the high-loss limit;
    # w1 + w2 = 1.
    w1: float
    w2: float
    tau0: float  # tau_0 = sum_k p_k e^-k, vacuum probability
    tau1: float  # tau_1 = sum_k p_k e^-k k, single-photon probability
    exp_mu1: float  # e^mu1 of n^±_{mu1}, m^±_{mu1}
    exp_mu2: float  # e^mu2 of n^±_{mu2}, m^±_{mu2}
    s0m_pre: float  # s_0^-: tau_0/(mu1 - mu2)
    # Deviation: s_0^+ is the min of 2(tau_0 e^k/p_k m_k^+ + delta) over
    # both intensities k; these are its two prefixes tau_0 e^k/p_k.
    s0p_pre1: float
    s0p_pre2: float
    s1m_pre: float  # s_1^-: tau_1 mu1/(mu2 (mu1 - mu2))
    mu_ratio_sq: float  # s_1^-: mu2^2/mu1^2
    s0_weight: float  # s_1^-: (mu1^2 - mu2^2)/(mu1^2 tau_0), applied to s_0^+
    v1p_pre: float  # v_1^+: tau_1/(mu1 - mu2)
    gamma_eps_sq: float  # gamma: 21^2/a^2 at a = eps0
    ln2: float  # log 2 in gamma's denominator
    pa_cost: float  # 6 log2(19/eps_sec), privacy amplification
    ec_cost: float  # log2(2/eps_cor), error-verification hash

    @classmethod
    def of(cls, session: QkdSessionModel) -> "_FiniteKeyConstants":
        mu1, mu2 = session.mu1, session.mu2
        p1 = session.p_mu1
        p2 = 1.0 - p1
        eps0 = session.eps_sec / 19.0
        tau0, tau1 = (
            sum(p * math.exp(-mu) * mu**i / math.factorial(i) for p, mu in ((p1, mu1), (p2, mu2)))
            for i in (0, 1)
        )
        w1 = p1 * mu1 / (p1 * mu1 + p2 * mu2)
        exp_mu1, exp_mu2 = math.exp(mu1), math.exp(mu2)
        return cls(
            mu1=mu1,
            mu2=mu2,
            p1=p1,
            p2=p2,
            n_z=float(session.block_size * 8),
            p_zz=session.p_z_alice * session.p_z_bob,
            p_xx=(1.0 - session.p_z_alice) * (1.0 - session.p_z_bob),
            eps0=eps0,
            log_inv_eps0=math.log(1.0 / eps0),
            w1=w1,
            w2=1.0 - w1,
            tau0=tau0,
            tau1=tau1,
            exp_mu1=exp_mu1,
            exp_mu2=exp_mu2,
            s0m_pre=tau0 / (mu1 - mu2),
            s0p_pre1=tau0 * exp_mu1 / p1,
            s0p_pre2=tau0 * exp_mu2 / p2,
            s1m_pre=tau1 * mu1 / (mu2 * (mu1 - mu2)),
            mu_ratio_sq=mu2**2 / mu1**2,
            s0_weight=(mu1**2 - mu2**2) / (mu1**2 * tau0),
            v1p_pre=tau1 / (mu1 - mu2),
            gamma_eps_sq=(21.0 / eps0) ** 2,
            ln2=math.log(2.0),
            pa_cost=6.0 * math.log2(19.0 / session.eps_sec),
            ec_cost=math.log2(2.0 / session.eps_cor),
        )


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


def expected_signal_rate(session: QkdSessionModel, eta_ch: float) -> float:
    """Detected signal rate for a given channel efficiency."""
    _check_ratio("eta_ch", eta_ch)
    return session.r_ref * eta_ch * session.internal_loss * session.detector.efficiency


def channel_efficiency_from_rate(session: QkdSessionModel, measured_rate: float) -> float:
    """Invert :func:`expected_signal_rate` for a measured detection rate."""
    _check_positive("measured_rate", measured_rate)
    eta = measured_rate / (session.r_ref * session.internal_loss * session.detector.efficiency)
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
    """Return a session whose r_ref maps eta_ch onto the measured rate."""
    _check_positive("measured_rate", measured_rate)
    _check_ratio("eta_ch", eta_ch)
    r_ref = measured_rate / (eta_ch * session.internal_loss * session.detector.efficiency)
    return replace(session, r_ref=r_ref)


def windowed_noise_rate(raw_rate: float, window: float, pulse_rate: float) -> float:
    """Background rate accepted inside the gating window (duty-factor model)."""
    _check_non_negative("raw_rate", raw_rate)
    _check_positive("window", window)
    _check_positive("pulse_rate", pulse_rate)
    duty = min(window * pulse_rate, 1.0)
    return raw_rate * duty

def expected_qber(signal_rate: float, noise_rate: float, intrinsic_qber: float = 0.0) -> float:
    """QBER of a mixture of signal and in-window noise (noise errs at 1/2).

    noise_rate is the accepted in-window noise; use
    :func:`windowed_noise_rate` first if the log carries the raw rate.
    """
    _check_non_negative("signal_rate", signal_rate)
    _check_non_negative("noise_rate", noise_rate)
    _check_qber("intrinsic_qber", intrinsic_qber)
    total = signal_rate + noise_rate
    if total == 0:
        raise ValueError("signal and noise rates are both zero; QBER undefined")
    # Written as intrinsic plus a noise share so that zero noise gives
    # intrinsic_qber exactly and the result never leaves [intrinsic, 0.5].
    return intrinsic_qber + (0.5 - intrinsic_qber) * (noise_rate / total)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _decoy_bounds(
    c: _FiniteKeyConstants, n_tot: float, m_tot: float
) -> tuple[float, float, float]:
    """(s0_minus, s1_minus, v1_plus) of one basis with n_tot detections, m_tot errors.

    Each bound is clipped to [0, n_tot] ([0, m_tot] for v1_plus).
    """
    d_n = math.sqrt(n_tot / 2.0 * c.log_inv_eps0)
    d_m = math.sqrt(m_tot / 2.0 * c.log_inv_eps0) if m_tot > 0 else 0.0
    n1p = n_tot * c.w1 + d_n
    n2m = max(n_tot * c.w2 - d_n, 0.0)
    m1p = m_tot * c.w1 + d_m
    m2p = m_tot * c.w2 + d_m
    m2m = max(m_tot * c.w2 - d_m, 0.0)
    s0m = c.s0m_pre * (c.mu1 * c.exp_mu2 * n2m / c.p2 - c.mu2 * c.exp_mu1 * n1p / c.p1)
    s0p = min(2.0 * (c.s0p_pre1 * m1p + d_n), 2.0 * (c.s0p_pre2 * m2p + d_n))
    s0p = max(0.0, min(n_tot, s0p))
    s1m = c.s1m_pre * (
        c.exp_mu2 * n2m / c.p2 - c.mu_ratio_sq * c.exp_mu1 * n1p / c.p1 - c.s0_weight * s0p
    )
    v1p = c.v1p_pre * (c.exp_mu1 * m1p / c.p1 - c.exp_mu2 * m2m / c.p2)
    return max(0.0, min(n_tot, s0m)), max(0.0, min(n_tot, s1m)), max(0.0, min(m_tot, v1p))


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
    The factors that depend on the session alone are computed once per
    session (see :class:`_FiniteKeyConstants`).
    """
    _check_positive("signal_rate", signal_rate)
    _check_qber("qber_z", qber_z)
    _check_qber("qber_x", qber_x)
    c = session._finite_key

    n_z = c.n_z  # sifted Z bits per block
    block_time = n_z / (signal_rate * c.p_zz)
    n_x = block_time * (signal_rate * c.p_xx)

    s_z0, s_z1, _ = _decoy_bounds(c, n_z, qber_z * n_z)
    _, s_x1, v_x1 = _decoy_bounds(c, n_x, qber_x * n_x)

    if s_z1 <= 0 or s_x1 <= 0:
        log.info("secret_key_rate: single-photon bound vanished, clamping to 0")
        return 0.0

    phi_x = min(v_x1 / s_x1, 0.5)
    b = min(max(phi_x, 1e-12), 1.0 - 1e-12)
    gamma = math.sqrt(
        ((s_z1 + s_x1) * (1.0 - b) * b)
        / (s_z1 * s_x1 * c.ln2)
        * math.log2((s_z1 + s_x1) / (s_z1 * s_x1 * (1.0 - b) * b) * c.gamma_eps_sq)
    )
    phi_z = min(phi_x + gamma, 0.5)

    leak_ec = n_z * session.f_ec * _binary_entropy(qber_z)
    key_len = s_z0 + s_z1 * (1.0 - _binary_entropy(phi_z)) - leak_ec - c.pa_cost - c.ec_cost
    if key_len <= 0:
        log.info("secret_key_rate: bound non-positive (%.1f bits), clamping to 0", key_len)
        return 0.0
    return key_len / block_time


def analyze_session_log(records: list[RateObservation]) -> dict[str, dict[str, float]]:
    """Per-field mean/min/max/std summary of a session log."""
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SESSION_LOG_HEADER)
        for r in records:
            rates = (r.timestamp, r.signal_rate, r.noise_rate, r.qber_z, r.qber_x)
            writer.writerow([*map(repr, rates), "" if r.skr is None else repr(r.skr)])
