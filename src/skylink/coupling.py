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

from .units import _check_integer, _check_non_negative, _check_positive, _check_ratio, from_db
from .zernike import ModeVarianceSet, _check_residual_args, _residual_variance

__all__ = [
    "ReceiverChain",
    "SmfCouplingBreakdown",
    "obscuration_ratio",
    "mode_match_beta",
    "eta0",
    "optimize_beta",
    "eta_phi_on",
    "eta_phi_residual",
    "eta_tau",
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
        for name in ("eta_tel", "eta_optics", "eta_fiber"):
            _check_ratio(name, getattr(self, name))
        _check_integer("ao_modes", self.ao_modes, 2)


def obscuration_ratio(chain: ReceiverChain) -> float:
    """Linear obscuration ratio alpha = D_obs / D_rx."""
    return chain.d_obs / chain.d_rx


def mode_match_beta(chain: ReceiverChain, wavelength: float) -> float:
    """Mode-matching factor beta = (pi*D_rx / 4*lambda) * (MFD / f_eff)."""
    _check_positive("wavelength", wavelength)
    return (math.pi * chain.d_rx / (4.0 * wavelength)) * (chain.mfd / chain.f_eff)


def eta0(beta: float, alpha: float) -> float:
    """Turbulence-free fiber mode mismatch of an obstructed aperture.

    eta0 = 2 * [(exp(-beta^2) - exp(-beta^2*alpha^2)) / (beta*sqrt(1-alpha^2))]^2

    Below beta = 1e-3 a second-order series replaces the 0/0-prone bracket.
    """
    _check_positive("beta", beta)
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _eta0(beta, alpha)


def _eta0(beta: float, alpha: float) -> float:
    a2 = alpha * alpha
    if beta < _SMALL_BETA:
        b2 = beta * beta
        return 2.0 * b2 * (1.0 - a2) * (1.0 - b2 * (1.0 + a2) / 2.0) ** 2
    b2 = beta * beta
    bracket = (math.exp(-b2) - math.exp(-b2 * a2)) / (beta * math.sqrt(1.0 - a2))
    return 2.0 * bracket * bracket


def optimize_beta(alpha: float) -> tuple[float, float]:
    """Maximize eta0 over beta in [1e-3, 10]; returns (beta_opt, eta0_max)."""
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    beta_opt = _fminbound(lambda b: -_eta0(b, alpha), _SMALL_BETA, 10.0, xatol=1e-6)
    return beta_opt, _eta0(beta_opt, alpha)


def _fminbound(func, a: float, b: float, xatol: float, maxiter: int = 500) -> float:
    """Minimize func on [a, b] by Brent's bounded golden-section/parabolic search.

    A step-for-step port of ``_minimize_scalar_bounded`` from SciPy 1.17
    (scipy/optimize/_optimize.py; BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers) with scalar ``math`` in place of
    numpy.  For finite func it returns the same minimizer bit for bit as
    ``minimize_scalar(func, bounds=(a, b), method="bounded",
    options={"xatol": xatol})`` without importing SciPy.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        # numpy's sign(rat) + (rat == 0): +1 for rat >= 0, else -1
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf



def eta_phi_on(variances: ModeVarianceSet, J: int) -> float:
    """Closed-loop spatial efficiency of the first J modes.

    Product over j = 1..J of (1 + 2*sigma_j^2)^(-1/2) using the measured
    AO-ON variances.
    """
    _check_integer("J", J, 1)
    log_sum = 0.0
    for j in range(1, int(J) + 1):
        if j not in variances:
            raise ValueError(f"variance for mode {j} is missing")
        log_sum += math.log1p(2.0 * variances[j])
    return math.exp(-0.5 * log_sum)


def _eta_phi_residual(xp, J, d_rx: float, r0):
    return xp.exp(-_residual_variance(J, d_rx, r0))


def eta_phi_residual(J: int, d_rx: float, r0: float) -> float:
    """Efficiency lost to uncorrected modes j > J: exp(-sigma_J^2)."""
    _check_residual_args(J, d_rx, r0)
    return _eta_phi_residual(math, J, d_rx, r0)


def _eta_tau(xp, f_g, f_3db: float):
    return xp.exp(-((f_g / f_3db) ** (5.0 / 3.0)))


def eta_tau(f_g: float, f_3db: float) -> float:
    """Temporal AO efficiency exp(-(f_G/f_3dB)^(5/3))."""
    _check_positive("f_3db", f_3db)
    _check_non_negative("f_g", f_g)
    return _eta_tau(math, f_g, f_3db)


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
    """Compose the coupling terms; fixed left-to-right evaluation order."""
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
    p_front = p_focus * eta_focus_to_fiber
    if p_in > p_front:
        warnings.warn(
            f"fiber power {p_in} W exceeds reconstructed power in front of the "
            f"fiber {p_front} W; measurement inconsistency",
            stacklevel=2,
        )
    return p_in / p_front
