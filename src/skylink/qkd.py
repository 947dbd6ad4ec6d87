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

__all__ = [
    "DetectorModel",
    "SNSPD",
    "SPAD",
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
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.noise_rate < 0:
            raise ValueError("noise_rate must be >= 0")
        if self.window <= 0:
            raise ValueError("window must be positive")


SNSPD = DetectorModel(efficiency=0.80, label="snspd")
SPAD = DetectorModel(efficiency=0.15, label="spad")

# Reference detected rate at unit channel efficiency, unit detector
# efficiency and no internal loss, calibrated on the SNSPD run
# (20.4 kHz at eta_ch = -29 dB, internal loss -1.2 dB, efficiency 0.80).
R_REF_DEFAULT = 20.4e3 / (10 ** (-2.9) * 10 ** (-0.12) * 0.80)


@dataclass(frozen=True)
class QkdSessionModel:
    """Detector, receiver loss and protocol configuration for one session.

    block_size is in bytes of sifted key, matching how the platform logs it.
    The protocol defaults (mu, basis and intensity probabilities, epsilons)
    reproduce the field-trial throughput and are all overridable.
    """

    detector: DetectorModel
    internal_loss: float = 10 ** (-0.12)  # -1.2 dB receiver internal optics
    r_ref: float = R_REF_DEFAULT  # Hz
    block_size: int = 250000  # bytes of sifted key per processing block
    mu1: float = 0.4
    mu2: float = 0.1
    p_mu1: float = 0.5
    p_z_alice: float = 0.3
    p_z_bob: float = 0.5
    f_ec: float = 1.16
    eps_sec: float = 1e-9
    eps_cor: float = 1e-15

    def __post_init__(self) -> None:
        if not 0 < self.internal_loss <= 1:
            raise ValueError("internal_loss must be in (0, 1]")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not self.mu1 > self.mu2 >= 0:
            raise ValueError("need mu1 > mu2 >= 0")
        for name in ("p_mu1", "p_z_alice", "p_z_bob", "eps_sec", "eps_cor"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.r_ref <= 0:
            raise ValueError("r_ref must be positive")
        if not 1 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be >= 1 and finite, got {self.f_ec}")

    def with_detector(self, detector: DetectorModel) -> "QkdSessionModel":
        return replace(self, detector=detector)


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
        if self.signal_rate < 0 or self.noise_rate < 0:
            raise ValueError("rates must be >= 0")
        for q in (self.qber_z, self.qber_x):
            if not 0 <= q <= 0.5:
                raise ValueError(f"qber must be in [0, 0.5], got {q}")
        if self.skr is not None and self.skr < 0:
            raise ValueError("skr must be >= 0")


def expected_signal_rate(session: QkdSessionModel, eta_ch: float) -> float:
    """Detected signal rate for a given channel efficiency."""
    if not 0 < eta_ch <= 1:
        raise ValueError(f"eta_ch must be in (0, 1], got {eta_ch}")
    return session.r_ref * eta_ch * session.internal_loss * session.detector.efficiency


def channel_efficiency_from_rate(session: QkdSessionModel, measured_rate: float) -> float:
    """Invert :func:`expected_signal_rate` for a measured detection rate."""
    if measured_rate <= 0:
        raise ValueError("measured_rate must be positive")
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
    if measured_rate <= 0 or not 0 < eta_ch <= 1:
        raise ValueError("need measured_rate > 0 and eta_ch in (0, 1]")
    r_ref = measured_rate / (eta_ch * session.internal_loss * session.detector.efficiency)
    return replace(session, r_ref=r_ref)


def windowed_noise_rate(raw_rate: float, window: float, pulse_rate: float) -> float:
    """Background rate accepted inside the gating window (duty-factor model)."""
    if raw_rate < 0 or window <= 0 or pulse_rate <= 0:
        raise ValueError("invalid windowing parameters")
    duty = min(window * pulse_rate, 1.0)
    return raw_rate * duty

def expected_qber(signal_rate: float, noise_rate: float, intrinsic_qber: float = 0.0) -> float:
    """QBER of a mixture of signal and in-window noise (noise errs at 1/2).

    noise_rate is the accepted in-window noise; use
    :func:`windowed_noise_rate` first if the log carries the raw rate.
    """
    if signal_rate < 0 or noise_rate < 0:
        raise ValueError("rates must be >= 0")
    if not 0 <= intrinsic_qber <= 0.5:
        raise ValueError("intrinsic_qber must be in [0, 0.5]")
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


def _hoeffding(n: float, eps: float) -> float:
    return math.sqrt(n / 2.0 * math.log(1.0 / eps))


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
    """
    if not 0 < signal_rate < math.inf:
        raise ValueError(f"signal_rate must be positive and finite, got {signal_rate}")
    for name, q in (("qber_z", qber_z), ("qber_x", qber_x)):
        if not 0 <= q <= 0.5:
            raise ValueError(f"{name} must be in [0, 0.5], got {q}")

    mu1, mu2 = session.mu1, session.mu2
    p1 = session.p_mu1
    p2 = 1.0 - p1
    p_zz = session.p_z_alice * session.p_z_bob
    p_xx = (1.0 - session.p_z_alice) * (1.0 - session.p_z_bob)
    rate_z = signal_rate * p_zz
    rate_x = signal_rate * p_xx

    n_z = float(session.block_size * 8)  # sifted Z bits per block
    block_time = n_z / rate_z
    n_x = block_time * rate_x

    eps0 = session.eps_sec / 19.0

    def tau(i: int) -> float:
        return sum(
            p * math.exp(-mu) * mu**i / math.factorial(i) for p, mu in ((p1, mu1), (p2, mu2))
        )

    # High-loss regime: detections split across intensities in proportion
    # to p_i * mu_i.
    w1 = p1 * mu1 / (p1 * mu1 + p2 * mu2)
    w2 = 1.0 - w1

    def clip(x: float, hi: float) -> float:
        return max(0.0, min(hi, x))

    def decoy_bounds(n_tot: float, m_tot: float) -> tuple[float, float, float]:
        """(s0_minus, s1_minus, v1_plus) for one basis."""
        d_n = _hoeffding(n_tot, eps0)
        d_m = _hoeffding(m_tot, eps0) if m_tot > 0 else 0.0
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

    s_z0, s_z1, _ = decoy_bounds(n_z, qber_z * n_z)
    _, s_x1, v_x1 = decoy_bounds(n_x, qber_x * n_x)

    if s_z1 <= 0 or s_x1 <= 0:
        log.info("secret_key_rate: single-photon bound vanished, clamping to 0")
        return 0.0

    phi_x = min(v_x1 / s_x1, 0.5)
    b = min(max(phi_x, 1e-12), 1.0 - 1e-12)
    gamma = math.sqrt(
        ((s_z1 + s_x1) * (1.0 - b) * b)
        / (s_z1 * s_x1 * math.log(2.0))
        * math.log2((s_z1 + s_x1) / (s_z1 * s_x1 * (1.0 - b) * b) * (21.0 / eps0) ** 2)
    )
    phi_z = min(phi_x + gamma, 0.5)

    leak_ec = n_z * session.f_ec * _binary_entropy(qber_z)
    key_len = (
        s_z0
        + s_z1 * (1.0 - _binary_entropy(phi_z))
        - leak_ec
        - 6.0 * math.log2(19.0 / session.eps_sec)
        - math.log2(2.0 / session.eps_cor)
    )
    if key_len <= 0:
        log.info("secret_key_rate: bound non-positive (%.1f bits), clamping to 0", key_len)
        return 0.0
    return key_len / block_time


def analyze_session_log(records: list[RateObservation]) -> dict[str, dict[str, float]]:
    """Per-field mean/min/max/std summary of a session log."""
    if not records:
        raise ValueError("empty session log")
    fields = {
        "signal_rate": [r.signal_rate for r in records],
        "noise_rate": [r.noise_rate for r in records],
        "qber_z": [r.qber_z for r in records],
        "qber_x": [r.qber_x for r in records],
        "skr": [r.skr for r in records if r.skr is not None],
    }
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
                records.append(
                    RateObservation(
                        timestamp=float(row[0]),
                        signal_rate=float(row[1]),
                        noise_rate=float(row[2]),
                        qber_z=float(row[3]),
                        qber_x=float(row[4]),
                        skr=skr,
                    )
                )
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
            writer.writerow(
                [
                    repr(r.timestamp),
                    repr(r.signal_rate),
                    repr(r.noise_rate),
                    repr(r.qber_z),
                    repr(r.qber_x),
                    "" if r.skr is None else repr(r.skr),
                ]
            )
