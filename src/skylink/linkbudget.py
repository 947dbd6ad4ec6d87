"""Free-space propagation budget and end-to-end channel composition.

Beam divergence under turbulence, atmospheric absorption, telescope
collection with central obstruction, and the full channel efficiency
eta_ch = eta_focus * eta_optics * eta_smf * eta_fiber.

Each term is written once, as a function of the array module ``xp``, and
is read from the report built on it: :func:`full_budget` (a
:class:`BudgetReport`) and :func:`model_smf_breakdown` (a
``SmfCouplingBreakdown``) pass ``math``, and :func:`sweep_columns` passes
numpy, so a sweep evaluates all of its points in one pass with the same
formulas and returns one array per term; :func:`sweep_budget` gives the same
sweep as one row per point.
"""

from __future__ import annotations

import math
import numbers
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
from .units import _check_integer, _check_non_negative, _check_positive, _check_ratio
from .units import _check_result, _finite_result, _is_integer, _is_non_negative, _is_positive, to_db

__all__ = [
    "LinkGeometry",
    "BudgetReport",
    "model_smf_breakdown",
    "full_budget",
    "sweep_columns",
    "sweep_budget",
]

# 10*log10(e): dB per neper
_DB_PER_NAT = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class LinkGeometry:
    """Transmit waist plus path and receiver chain.

    ``rayleigh_range``, z0 = pi * w0^2 / lambda, is set when the geometry is
    built.  A w0 whose Rayleigh range leaves the float range, or for which no
    r0 gives a positive eta_coll, raises ValueError naming w0.
    """

    path: OpticalPath
    chain: ReceiverChain
    w0: float = 0.025  # m, collimated transmit waist

    def __post_init__(self) -> None:
        _check_positive("w0", self.w0)
        w0, lam = self.w0, self.path.wavelength
        z0 = _finite_result("w0", w0, "rayleigh range", lambda: math.pi * w0 * w0 / lam)
        object.__setattr__(self, "rayleigh_range", z0)
        # Every r0 gives a received radius above its r0 -> inf limit L*theta0, so
        # the best eta_coll any r0 can give is at max(L*theta0, w*).
        theta0 = _divergence(math, self, math.inf)[0]
        w_l = max(_received_waist(theta0, self.path), _peak_collection_radius(self.chain))
        _finite_result("w0", self.w0, "eta_coll", _collection, math, w_l, self.chain, on_error=0.0)


def _divergence(xp, geom: LinkGeometry, r0):
    """(theta0, theta_turb, theta): lambda/(pi*w0) and lambda/(pi*r0/2.1) in quadrature."""
    lam = geom.path.wavelength
    theta0 = lam / (math.pi * geom.w0)
    rho0 = r0 / 2.1
    theta_turb = lam / (math.pi * rho0)
    return theta0, theta_turb, xp.hypot(theta0, theta_turb)


def _received_waist(theta, path: OpticalPath):
    return theta * path.path_length


def _absorption(xp, a_coeff_db_km, path: OpticalPath):
    """eta_A = exp(-A*L), A given in dB/km and taken in nat/m."""
    a_nat_per_m = a_coeff_db_km / _DB_PER_NAT / 1e3
    return xp.exp(-a_nat_per_m * path.path_length)


def _collection(xp, w_l, chain: ReceiverChain):
    """Obstructed-aperture collection of a Gaussian beam of radius w_l."""
    two_wl2 = 2.0 * w_l * w_l
    return chain.eta_tel * (xp.exp(-chain.d_obs**2 / two_wl2) - xp.exp(-chain.d_rx**2 / two_wl2))


def _peak_collection_radius(chain: ReceiverChain) -> float:
    """The beam radius w* of largest collection.

    w*^2 = (d_rx^2 - d_obs^2) / (2 ln(d_rx^2 / d_obs^2)), where the two
    exponentials of :func:`_collection` have equal slopes in 1/w^2.
    """
    d_rx, d_obs = chain.d_rx, chain.d_obs
    return math.sqrt((d_rx - d_obs) * (d_rx + d_obs) / (4.0 * math.log(d_rx / d_obs)))


def _unchecked(name, value, what, compute, *args, on_error=None):
    """compute(*args), called as :func:`_finite_result` is but without its check."""
    return compute(*args)


def _smf_factors(xp, chain: ReceiverChain, path: OpticalPath, r0, cn2, wind, J):
    """(eta0, eta_s, eta_phi_on = 1.0, eta_phi_residual, eta_tau), in compose_smf order.

    At one point (xp is math) each modelled term follows the range rule,
    eta_s through sigma_R^2 as scintillation_report does, eta_phi_residual and
    eta_tau naming the inputs _residual_input and _tau_input name; a sweep
    tests its eta_ch instead.
    """
    d_rx, f_g = chain.d_rx, _greenwood(wind, r0)
    term = _finite_result if xp is math else _unchecked
    residual = _residual_input(d_rx, r0) if xp is math else (None, None)
    tau = _tau_input(wind, f_g, chain) if xp is math else (None, None)
    e0 = eta0(mode_match_beta(chain, path.wavelength), obscuration_ratio(chain))
    e_s = _aperture_averaged(xp, r0, cn2, path, d_rx)[-1]
    e_phi_j = term(*residual, "eta_phi_residual", _eta_phi_residual, xp, J, d_rx, r0, on_error=0.0)
    e_tau = term(*tau, "eta_tau", _eta_tau, xp, f_g, chain.f_3db, on_error=0.0)
    return e0, e_s, 1.0, e_phi_j, e_tau


def _residual_input(d_rx: float, r0: float) -> tuple[str, float]:
    """(name, value) of the input behind eta_phi_residual = exp(-Delta_J (d_rx/r0)^(5/3)).

    The larger factor of d_rx*(1/r0): d_rx where d_rx*r0 >= 1, else r0.
    """
    return ("d_rx", d_rx) if d_rx * r0 >= 1.0 else ("r0", r0)


def _tau_input(wind: float, f_g: float, chain: ReceiverChain) -> tuple[str, float]:
    """(name, value) of the input behind eta_tau = exp(-(f_G/f_3dB)^(5/3)).

    The larger factor of f_G*(1/f_3dB): wind_speed (through f_G) where
    f_G*f_3dB >= 1, else f_3db.
    """
    return ("wind_speed", wind) if f_g * chain.f_3db >= 1.0 else ("f_3db", chain.f_3db)


def model_smf_breakdown(
    chain: ReceiverChain, ts: TurbulenceState, path: OpticalPath, J: int | None = None
) -> SmfCouplingBreakdown:
    """Design-model coupling breakdown (ideal correction of the first J modes).

    The design model's eta_phi_on is 1; measured terms meet it in compose_smf.
    path must be ts.path.  eta_s is scintillation_report's.  A term or an
    eta_smf that leaves the float range raises ValueError naming r0, or the
    input behind it: for sigma_R^2 wavelength or path_length, for
    eta_phi_residual d_rx, for eta_tau wind_speed or f_3db.
    """
    _check_same_path(ts, path)
    J = chain.ao_modes if J is None else J
    _check_integer("J", J, 1)  # chain and ts checked d_rx and r0 when they were built
    smf = compose_smf(*_smf_factors(math, chain, path, ts.fried_r0, ts.cn2, ts.wind_speed, J))
    if not smf.eta_smf > 0:
        _check_result(*_smf_input(chain, ts, smf), "eta_smf", smf.eta_smf)
    return smf


def _smf_input(
    chain: ReceiverChain, ts: TurbulenceState, smf: SmfCouplingBreakdown
) -> tuple[str, float]:
    """(name, value) of the input behind the smallest factor of smf.eta_smf.

    eta_s names r0, eta_phi_residual and eta_tau the inputs _residual_input
    and _tau_input name; eta0 and a measured eta_phi_on name themselves, and
    so does an eta_smf that its terms do not compose to, set apart from them
    (``budget --eta-smf``).
    """
    terms = (smf.eta0, smf.eta_s, smf.eta_phi_on, smf.eta_phi_residual, smf.eta_tau)
    if _smf_products(*terms)[1] != smf.eta_smf:
        return "eta_smf", smf.eta_smf
    r0, wind = ts.fried_r0, ts.wind_speed
    inputs = (("eta0", smf.eta0), ("r0", r0), ("eta_phi_on", smf.eta_phi_on),
              _residual_input(chain.d_rx, r0), _tau_input(wind, _greenwood(wind, r0), chain))
    return inputs[terms.index(min(terms))]


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
    """The BudgetReport fields, in order.

    At one point (xp is math) eta_a and eta_coll follow the range rule,
    naming a_coeff_db_km and r0; a sweep tests its eta_ch instead.
    """
    term = _finite_result if xp is math else _unchecked
    chain = geom.chain
    theta0, theta_turb, theta = _divergence(xp, geom, r0)
    w_l = _received_waist(theta, geom.path)
    eta_a = term("a_coeff_db_km", a_coeff_db_km, "eta_a", _absorption, xp, a_coeff_db_km, geom.path)
    # a w_l whose square underflows divides by 0: eta_coll counts as 0.0
    eta_coll = term("r0", r0, "eta_coll", _collection, xp, w_l, chain, on_error=0.0)
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
    can be mixed, and must be in (0, 1].  geom.path must be ts.path.  An eta_a
    or eta_coll that underflows to 0 raises ValueError naming a_coeff_db_km
    or r0; an eta_ch names the input behind its smallest factor (eta_smf's:
    see _smf_input).
    """
    _check_same_path(ts, geom.path, "geom.path")
    _check_non_negative("a_coeff_db_km", a_coeff_db_km)
    _check_ratio("eta_smf", smf.eta_smf)  # a breakdown compose_smf did not build
    report = BudgetReport(*_budget_terms(math, geom, ts.fried_r0, a_coeff_db_km, smf.eta_smf))
    if not report.eta_ch > 0:  # named for its smallest factor
        c = geom.chain
        terms = (report.eta_a, report.eta_coll, c.eta_optics, report.eta_smf, c.eta_fiber)
        inputs = (("a_coeff_db_km", a_coeff_db_km), ("r0", ts.fried_r0),
                  ("eta_optics", c.eta_optics), _smf_input(c, ts, smf), ("eta_fiber", c.eta_fiber))
        _check_result(*inputs[terms.index(min(terms))], "eta_ch", report.eta_ch)
    return report


def sweep_columns(
    geom: LinkGeometry, r0_values, wind_speed, a_coeff_db_km, J=None
) -> dict[str, np.ndarray]:
    """Evaluate the modeled budget at many points in one vectorised pass.

    Each of r0_values, wind_speed, a_coeff_db_km and J (None: the chain's
    ao_modes) may be a scalar or a 1-D sequence; they broadcast together by
    numpy rules, so one array sweeps that quantity and equal-length arrays
    give one point per index.  Returns the budget terms as a dict of 1-D
    float64 arrays, one entry per point in index order (no points: arrays of
    length 0).  Each point must pass the checks of the scalar path
    (``model_smf_breakdown`` then ``full_budget``): the first point that
    fails raises that path's ValueError, naming the point, and its value as
    numpy holds the input: a float32 -0.05 as -0.05, but a list mixing float32
    and float is promoted to float64, so -0.05000000074505806.  numpy's exp,
    log, pow and hypot round differently from ``math``, so values may differ
    from the scalar path by a few ulp.
    """
    import numpy as np

    chain, path = geom.chain, geom.path
    inputs = (r0_values, wind_speed, a_coeff_db_km, chain.ao_modes if J is None else J)
    arrays = [np.array(x, dtype=float, ndmin=1) for x in inputs]
    shape = np.broadcast(*arrays).shape
    if len(shape) != 1:
        raise ValueError("r0_values, wind_speed, a_coeff_db_km and J must be scalars or 1-D")
    # Each column a C-contiguous array of its own: numpy may round a
    # transcendental function differently on a strided or broadcast view.
    r0, wind, a_coeff, modes = (x if x.shape == shape else np.repeat(x, shape[0]) for x in arrays)
    with np.errstate(all="ignore"):
        cn2 = _cn2_from_r0(r0, path)
        factors = _smf_factors(np, chain, path, r0, cn2, wind, modes)
        eta_smf = _smf_products(*factors)[1]
        _, _, _, w_l, eta_a, eta_coll, eta_focus, _, _, _, eta_ch = _budget_terms(
            np, geom, r0, a_coeff, eta_smf
        )
        # The inputs (r0's domain: a finite, positive Cn2) and eta_ch: every term
        # lies in [0, 1] or is nan, so eta_ch > 0 exactly where each is in range.
        ok = _is_positive(cn2) & _is_non_negative(wind) & _is_integer(modes, 1)
        ok &= _is_non_negative(a_coeff) & _is_positive(eta_ch)
    if not ok.all():
        i = int(np.argmin(ok))
        # The raw element as the number it is (a Python or numpy scalar), so that
        # the scalar path sees (and names) J = 35, not 35.0, and a float32 -0.05
        # as -0.05; any other object (None) as the float column has it.
        raw = (np.broadcast_to(np.asarray(x), shape)[i] for x in inputs)
        r0_i, wind_i, a_i, J_i = (
            v if isinstance(v, numbers.Real) else float(col[i])
            for v, col in zip(raw, (r0, wind, a_coeff, modes))
        )
        try:  # re-run the scalar path at the point for its error message
            with np.errstate(all="ignore"):  # numpy scalar overflow: let the checks name it
                ts = TurbulenceState.from_r0(r0_i, path, wind_i)
                full_budget(geom, ts, a_i, model_smf_breakdown(chain, ts, path, J_i))
        except ValueError as exc:
            raise ValueError(f"{exc} (sweep point {i})") from None
        raise ValueError(f"sweep point {i} is outside the model's domain")
    e0, e_s, _, e_phi_j, e_tau = factors
    return {"r0_m": r0, "w_l_m": w_l, "eta_a": eta_a, "eta_coll": eta_coll, "eta_focus": eta_focus,
            "eta0": np.full(r0.shape, e0), "eta_s": e_s, "eta_phi_residual": e_phi_j,
            "eta_tau": e_tau, "eta_smf": eta_smf, "eta_ch": eta_ch}


def sweep_budget(geom: LinkGeometry, r0_values, wind_speed, a_coeff_db_km, J=None) -> list[dict]:
    """:func:`sweep_columns` as rows: one dict of Python floats per point (no points: []).

    The row keys are the column names, in the same order.
    """
    cols = sweep_columns(geom, r0_values, wind_speed, a_coeff_db_km, J)
    return [
        {"r0_m": r0, "w_l_m": w_l, "eta_a": a, "eta_coll": coll, "eta_focus": focus, "eta0": e0,
         "eta_s": e_s, "eta_phi_residual": phi, "eta_tau": tau, "eta_smf": smf, "eta_ch": ch}
        for r0, w_l, a, coll, focus, e0, e_s, phi, tau, smf, ch in zip(
            *(c.tolist() for c in cols.values())
        )
    ]
