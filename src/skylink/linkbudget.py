"""Free-space propagation budget and end-to-end channel composition.

Beam divergence under turbulence, atmospheric absorption, telescope
collection with central obstruction, and the full channel efficiency
eta_ch = eta_focus * eta_optics * eta_smf * eta_fiber.

Each term is written once, as a function of the array module ``xp``: the
scalar entry points pass ``math`` and :func:`sweep_budget` passes numpy, so
a sweep evaluates all of its points in one pass with the same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atmosphere import (
    OpticalPath,
    TurbulenceState,
    _aperture_averaged,
    _check_same_path,
    _cn2_from_r0,
    _greenwood,
)
from .coupling import (
    ReceiverChain,
    SmfCouplingBreakdown,
    _eta_phi_residual,
    _eta_tau,
    _smf_products,
    compose_smf,
    eta0,
    mode_match_beta,
    obscuration_ratio,
)
from .units import _check_non_negative, _check_positive, _is_integer, _is_non_negative
from .units import _is_positive, _is_ratio, to_db
from .zernike import _check_residual_args

__all__ = [
    "LinkGeometry",
    "BudgetReport",
    "beam_divergence",
    "received_waist",
    "absorption_efficiency",
    "collection_efficiency",
    "model_smf_breakdown",
    "full_budget",
    "sweep_budget",
]

# 10*log10(e): dB per neper
_DB_PER_NAT = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class LinkGeometry:
    """Transmit waist plus path and receiver chain."""

    path: OpticalPath
    chain: ReceiverChain
    w0: float = 0.025  # m, collimated transmit waist

    def __post_init__(self) -> None:
        _check_positive("w0", self.w0)

    @property
    def rayleigh_range(self) -> float:
        """z0 = pi * w0^2 / lambda."""
        return math.pi * self.w0 * self.w0 / self.path.wavelength


def _divergence(xp, geom: LinkGeometry, r0):
    lam = geom.path.wavelength
    theta0 = lam / (math.pi * geom.w0)
    rho0 = r0 / 2.1
    theta_turb = lam / (math.pi * rho0)
    return theta0, theta_turb, xp.hypot(theta0, theta_turb)


def beam_divergence(geom: LinkGeometry, r0: float) -> tuple[float, float, float]:
    """(theta0, theta_turb, theta) half-angle divergences in radians.

    theta0 = lambda/(pi*w0), theta_turb = lambda/(pi*rho0) with rho0 = r0/2.1,
    combined in quadrature.
    """
    _check_positive("r0", r0)
    return _divergence(math, geom, r0)


def _received_waist(theta, path: OpticalPath):
    return theta * path.path_length


def received_waist(theta: float, path: OpticalPath) -> float:
    """Beam radius at the receiver, W_L = theta * L."""
    _check_positive("theta", theta)
    return _received_waist(theta, path)


def _absorption(xp, a_coeff_db_km, path: OpticalPath):
    a_nat_per_m = a_coeff_db_km / _DB_PER_NAT / 1e3
    return xp.exp(-a_nat_per_m * path.path_length)


def absorption_efficiency(a_coeff_db_km: float, path: OpticalPath) -> float:
    """Atmospheric absorption eta_A over the path.

    The coefficient is taken in dB/km (engineering convention); internally
    this is the same as exp(-A*L) with A converted to nat/m.
    """
    _check_non_negative("a_coeff_db_km", a_coeff_db_km)
    return _absorption(math, a_coeff_db_km, path)


def _collection(xp, w_l, chain: ReceiverChain):
    two_wl2 = 2.0 * w_l * w_l
    return chain.eta_tel * (xp.exp(-chain.d_obs**2 / two_wl2) - xp.exp(-chain.d_rx**2 / two_wl2))


def collection_efficiency(w_l: float, chain: ReceiverChain) -> float:
    """Obstructed-aperture collection of a Gaussian beam of radius w_l."""
    _check_positive("w_l", w_l)
    return _collection(math, w_l, chain)


def _smf_factors(xp, chain: ReceiverChain, path: OpticalPath, r0, cn2, wind, J, e_on):
    """(eta0, eta_s, eta_phi_on, eta_phi_residual, eta_tau), in compose_smf order."""
    e0 = eta0(mode_match_beta(chain, path.wavelength), obscuration_ratio(chain))
    e_s = _aperture_averaged(xp, cn2, path, chain.d_rx)[-1]
    e_phi_j = _eta_phi_residual(xp, J, chain.d_rx, r0)
    e_tau = _eta_tau(xp, _greenwood(wind, r0), chain.f_3db)
    return e0, e_s, e_on, e_phi_j, e_tau


def model_smf_breakdown(
    chain: ReceiverChain,
    ts: TurbulenceState,
    path: OpticalPath,
    J: int | None = None,
    eta_phi_on: float = 1.0,
) -> SmfCouplingBreakdown:
    """Design-model coupling breakdown (ideal correction of the first J modes).

    The closed-loop term eta_phi_on is 1 for the design model; the estimation
    pipeline passes the value measured from AO-ON variances.  path must be
    ts.path.
    """
    _check_same_path(ts, path)
    J = chain.ao_modes if J is None else J
    _check_residual_args(J, chain.d_rx, ts.fried_r0)
    factors = _smf_factors(math, chain, path, ts.fried_r0, ts.cn2, ts.wind_speed, J, eta_phi_on)
    return compose_smf(*factors)


@dataclass(frozen=True)
class BudgetReport:
    """End-to-end link budget; multiplicative identities hold exactly."""

    theta0: float
    theta_turb: float
    theta: float
    w_l: float
    eta_a: float
    eta_coll: float
    eta_focus: float
    eta_optics: float
    eta_smf: float
    eta_fiber: float
    eta_ch: float

    def db_table(self) -> dict[str, float]:
        """Per-term dB table; the component terms sum to eta_ch."""
        names = ("eta_a", "eta_coll", "eta_focus", "eta_optics", "eta_smf", "eta_fiber", "eta_ch")
        return {name: to_db(getattr(self, name)) for name in names}


def _budget_terms(xp, geom: LinkGeometry, r0, a_coeff_db_km, eta_smf):
    """The BudgetReport fields, in order."""
    chain = geom.chain
    theta0, theta_turb, theta = _divergence(xp, geom, r0)
    w_l = _received_waist(theta, geom.path)
    eta_a = _absorption(xp, a_coeff_db_km, geom.path)
    eta_coll = _collection(xp, w_l, chain)
    eta_focus = eta_a * eta_coll
    eta_ch = eta_focus * chain.eta_optics * eta_smf * chain.eta_fiber
    return (theta0, theta_turb, theta, w_l, eta_a, eta_coll, eta_focus,
            chain.eta_optics, eta_smf, chain.eta_fiber, eta_ch)


def full_budget(
    geom: LinkGeometry,
    ts: TurbulenceState,
    a_coeff_db_km: float,
    smf: SmfCouplingBreakdown,
) -> BudgetReport:
    """Compose the channel budget from geometry, turbulence and coupling.

    eta_smf is injected rather than recomputed so measured and modeled terms
    can be mixed.  geom.path must be ts.path.
    """
    _check_same_path(ts, geom.path, "geom.path")
    _check_non_negative("a_coeff_db_km", a_coeff_db_km)
    return BudgetReport(*_budget_terms(math, geom, ts.fried_r0, a_coeff_db_km, smf.eta_smf))


_SWEEP_KEYS = ("r0_m", "w_l_m", "eta_a", "eta_coll", "eta_focus", "eta0", "eta_s",
               "eta_phi_residual", "eta_tau", "eta_smf", "eta_ch")


def sweep_budget(geom: LinkGeometry, r0_values, wind_speed, a_coeff_db_km, J=None) -> list[dict]:
    """Evaluate the modeled budget at many points in one vectorised pass.

    Each of r0_values, wind_speed, a_coeff_db_km and J (None: the chain's
    ao_modes) may be a scalar or a 1-D sequence; they broadcast together by
    numpy rules, so one array sweeps that quantity and equal-length arrays
    give one point per index.  Returns one row of Python floats per point,
    in index order (no points: []).  Each point must pass the checks of the
    scalar path (``model_smf_breakdown`` then ``full_budget``): the first
    point that fails raises that path's ValueError, naming the point.
    numpy's exp, log, pow and hypot round differently from ``math``, so
    values may differ from the scalar path by a few ulp.
    """
    import numpy as np

    chain, path = geom.chain, geom.path
    inputs = (r0_values, wind_speed, a_coeff_db_km, chain.ao_modes if J is None else J)
    raw = np.broadcast_arrays(*(np.atleast_1d(x) for x in inputs))
    if raw[0].ndim != 1:
        raise ValueError("r0_values, wind_speed, a_coeff_db_km and J must be scalars or 1-D")
    r0, wind, a_coeff, modes = (x.astype(float) for x in raw)
    with np.errstate(all="ignore"):
        cn2 = _cn2_from_r0(r0, path)
        factors = _smf_factors(np, chain, path, r0, cn2, wind, modes, 1.0)
        eta_smf = _smf_products(*factors)[1]
        _, _, _, w_l, eta_a, eta_coll, eta_focus, _, _, _, eta_ch = _budget_terms(
            np, geom, r0, a_coeff, eta_smf
        )
        ok = _is_positive(r0) & _is_positive(cn2) & _is_non_negative(wind) & _is_integer(modes, 1)
        ok &= _is_non_negative(a_coeff)
        for factor in factors:  # compose_smf's (0, 1] check
            ok &= _is_ratio(factor)
    if not ok.all():
        i = int(np.argmin(ok))
        r0_i, wind_i, a_i, J_i = (x[i].item() for x in raw)
        try:  # re-run the scalar path at the point for its error message
            ts = TurbulenceState.from_r0(r0_i, path, wind_i)
            full_budget(geom, ts, a_i, model_smf_breakdown(chain, ts, path, J_i))
        except ValueError as exc:
            raise ValueError(f"{exc} (sweep point {i})") from None
        raise ValueError(f"sweep point {i} is outside the model's domain")
    e0, e_s, _, e_phi_j, e_tau = factors
    columns = (r0, w_l, eta_a, eta_coll, eta_focus, e0, e_s, e_phi_j, e_tau, eta_smf, eta_ch)
    values = [np.broadcast_to(c, r0.shape).tolist() for c in columns]
    return [dict(zip(_SWEEP_KEYS, row)) for row in zip(*values)]
