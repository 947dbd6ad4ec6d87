"""Single-mode-fiber coupling efficiency of the receiving system.

The coupling budget factors into a turbulence-independent mode mismatch, a
scintillation term, and the spatial/temporal efficiencies of the adaptive
optics loop; the composition is kept explicit so measured and modeled terms
can be mixed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .units import _check_integer, _check_non_negative, _check_positive, _check_ratio
from .units import _check_result, _finite_result, from_db
from .zernike import ModeVarianceSet, _residual_variance

__all__ = [
    "ReceiverChain",
    "SmfCouplingBreakdown",
    "obscuration_ratio",
    "mode_match_beta",
    "eta0",
    "optimize_beta",
    "eta_phi_on",
    "compose_smf",
    "coupling_from_power",
]

_SMALL_BETA = 1e-3


@dataclass(frozen=True)
class ReceiverChain:
    """Receiving telescope + AO bench + fiber parameters.

    Defaults are the field-trial hardware: 410 mm aperture with 168 mm
    obstruction, ~2 m effective focal length onto a 10.4 um MFD fiber,
    fixed efficiencies -1.4/-4.5/-2.4 dB, 35 corrected modes, 10 Hz loop.
    """

    d_rx: float = 0.41  # m
    d_obs: float = 0.168  # m
    f_eff: float = 2.0  # m
    mfd: float = 10.4e-6  # m
    eta_tel: float = from_db(-1.4)
    eta_optics: float = from_db(-4.5)
    eta_fiber: float = from_db(-2.4)
    ao_modes: int = 35
    f_3db: float = 10.0  # Hz

    def __post_init__(self) -> None:
        for name in ("d_rx", "d_obs", "f_eff", "mfd", "f_3db"):
            _check_positive(name, getattr(self, name))
        if not self.d_obs < self.d_rx:
            raise ValueError(f"need d_obs < d_rx, got d_obs={self.d_obs}, d_rx={self.d_rx}")
        # d_rx^2 in range keeps d_obs^2 below it; an underflowed d_obs^2 is harmless.
        _finite_result("d_rx", self.d_rx, "d_rx^2", lambda: self.d_rx**2)
        for name in ("eta_tel", "eta_optics", "eta_fiber"):
            _check_ratio(name, getattr(self, name))
        _check_integer("ao_modes", self.ao_modes, 2)


def obscuration_ratio(chain: ReceiverChain) -> float:
    """Linear obscuration ratio alpha = D_obs / D_rx."""
    return chain.d_obs / chain.d_rx


def mode_match_beta(chain: ReceiverChain, wavelength: float) -> float:
    """Mode-matching factor beta = (pi*D_rx / 4*lambda) * (MFD / f_eff)."""
    _check_positive("wavelength", wavelength)
    return _finite_result(
        "wavelength", wavelength, "beta",
        lambda: (math.pi * chain.d_rx / (4.0 * wavelength)) * (chain.mfd / chain.f_eff),
    )


def eta0(beta: float, alpha: float) -> float:
    """Turbulence-free fiber mode mismatch of an obstructed aperture.

    eta0 = 2 * [(exp(-beta^2) - exp(-beta^2*alpha^2)) / (beta*sqrt(1-alpha^2))]^2

    Below beta = 1e-3 a second-order series replaces the 0/0-prone bracket.
    """
    _check_positive("beta", beta)
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _finite_result("beta", beta, "eta0", _eta0, beta, alpha)


def _eta0(beta: float, alpha: float) -> float:
    a2 = alpha * alpha
    if beta < _SMALL_BETA:
        b2 = beta * beta
        return 2.0 * b2 * (1.0 - a2) * (1.0 - b2 * (1.0 + a2) / 2.0) ** 2
    b2 = beta * beta
    bracket = (math.exp(-b2) - math.exp(-b2 * a2)) / (beta * math.sqrt(1.0 - a2))
    return 2.0 * bracket * bracket


def optimize_beta(alpha: float) -> tuple[float, float]:
    """Maximize eta0 over beta > 0; returns (beta_opt, eta0_max).

    With u = beta^2 and k = 1 - alpha^2, d ln(eta0)/du = 0 reduces to
    F(u) = (2u + 1) * expm1(-k*u) / k + 2u = 0, whose one root u* rises
    from 0.5 (alpha -> 1) to 1.2564 (alpha = 0).  expm1 keeps F accurate
    as alpha -> 1.

    Newton's method starts from a (2, 2) rational function of k fitted to
    u*(k) (:func:`_u_start`).  A Newton step takes an error e to about
    C*e^2, with C = |F''/2F'| at the root (0.16 at k = 1, rising to 2 as
    k -> 0), so two steps leave about C^3 e0^4 = (C^0.75 e0)^4.  The
    coefficients therefore minimize the largest C^0.75 * |u0 - u*| over
    4000 evenly spaced k in (0, 1] and k = 2**-52 (Nelder-Mead on the
    maximum), and are rounded to 7 digits.  The start is within 2.1e-4 of
    u* on (0, 1]; the first step leaves at most 1.1e-8 and the second at
    most 3.3e-17, below half an ulp of u* >= 0.5, so every alpha takes the
    same two steps to rounding.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    k = 1.0 - alpha * alpha
    u = _u_start(k)
    e = math.expm1(-k * u) / k
    f = (2.0 * u + 1.0) * e + 2.0 * u
    df = 2.0 * e - (2.0 * u + 1.0) * (1.0 + k * e) + 2.0
    u -= f / df
    e = math.expm1(-k * u) / k
    f = (2.0 * u + 1.0) * e + 2.0 * u
    df = 2.0 * e - (2.0 * u + 1.0) * (1.0 + k * e) + 2.0
    u -= f / df
    beta_opt = math.sqrt(u)
    return beta_opt, _eta0(beta_opt, alpha)


def _u_start(k: float) -> float:
    """optimize_beta's fitted (2, 2) rational start, within 2.1e-4 of u*(k) on (0, 1]."""
    return (0.5000446 + k * (-0.4058156 + k * 0.02416603)) / (1.0 + k * (-1.309576 + k * 0.403806))


def eta_phi_on(variances: ModeVarianceSet, J: int) -> float:
    """Closed-loop spatial efficiency of the first J modes.

    Product over j = 1..J of (1 + 2*sigma_j^2)^(-1/2) using the measured
    AO-ON variances.  A product that underflows to 0 raises ValueError
    naming the variance of the mode with the largest, the smallest factor.
    """
    _check_integer("J", J, 1)
    log_sum = 0.0
    for j in range(1, int(J) + 1):
        log_sum += math.log1p(2.0 * variances[j])
    e_on = math.exp(-0.5 * log_sum)
    if not e_on > 0:
        j = max(range(1, int(J) + 1), key=variances.__getitem__)
        _check_result(f"variance of mode {j}", variances[j], "eta_phi_on", e_on)
    return e_on


def _eta_phi_residual(xp, J, d_rx: float, r0):
    """Efficiency lost to uncorrected modes j > J: exp(-sigma_J^2)."""
    return xp.exp(-_residual_variance(J, d_rx, r0))


def _servo_lag_variance(f_g, f_3db: float):
    """Temporal-error phase variance (f_G/f_3dB)^(5/3), in rad^2; f_g may be an array."""
    return (f_g / f_3db) ** (5.0 / 3.0)


def _eta_tau(xp, f_g, f_3db: float):
    """Temporal AO efficiency exp(-(f_G/f_3dB)^(5/3))."""
    return xp.exp(-_servo_lag_variance(f_g, f_3db))


@dataclass(frozen=True)
class SmfCouplingBreakdown:
    """Multiplicative decomposition of the SMF coupling efficiency."""

    eta0: float
    eta_s: float
    eta_phi_on: float
    eta_phi_residual: float
    eta_tau: float
    eta_ao: float
    eta_smf: float


def compose_smf(
    eta0: float,
    eta_s: float,
    eta_phi_on: float,
    eta_phi_residual: float,
    eta_tau: float,
) -> SmfCouplingBreakdown:
    """Compose the coupling terms, measured or modelled; fixed left-to-right evaluation order."""
    factors = (eta0, eta_s, eta_phi_on, eta_phi_residual, eta_tau)
    for name, v in zip(("eta0", "eta_s", "eta_phi_on", "eta_phi_residual", "eta_tau"), factors):
        _check_ratio(name, v)
    return SmfCouplingBreakdown(*factors, *_smf_products(*factors))


def _smf_products(eta0, eta_s, eta_phi_on, eta_phi_residual, eta_tau):
    """(eta_ao, eta_smf); the factors may be arrays."""
    eta_ao = eta_phi_on * eta_phi_residual * eta_tau
    return eta_ao, eta0 * eta_s * eta_ao


def coupling_from_power(p_in: float, p_focus: float, eta_focus_to_fiber: float) -> float:
    """Measured coupling: fiber power over the power in front of the fiber.

    The power in front of the fiber is reconstructed from the primary-focus
    measurement and the fixed focus-to-fiber losses.  A measured efficiency
    above unity is reported with a warning rather than rejected.
    """
    _check_positive("p_focus", p_focus)
    _check_ratio("eta_focus_to_fiber", eta_focus_to_fiber)
    _check_non_negative("p_in", p_in)
    # An underflowed p_front names the smaller factor; an overflowed ratio, p_in.
    low = min(("p_focus", p_focus), ("eta_focus_to_fiber", eta_focus_to_fiber), key=lambda f: f[1])
    p_front = _finite_result(*low, "p_front", lambda: p_focus * eta_focus_to_fiber)
    coupling = p_in / p_front
    if coupling == math.inf:  # p_in = 0 gives a coupling of 0, in range
        _check_result("p_in", p_in, "coupling", coupling)
    if p_in > p_front:
        warnings.warn(
            f"fiber power {p_in} W exceeds reconstructed power in front of the "
            f"fiber {p_front} W; measurement inconsistency",
            stacklevel=2,
        )
    return coupling
