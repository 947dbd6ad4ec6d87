"""Scalar turbulence statistics for a horizontal spherical-wave link.

Covers the Fried parameter / structure-constant conversion, Rytov variance,
aperture-averaged scintillation, irradiance correlation widths and the
Greenwood frequency.  Everything here is a pure function of its inputs.

Terms shared with the array evaluation in ``linkbudget.sweep_columns`` are
private functions of their numbers; those that call exp/log take the array
module ``xp`` (``math`` for scalars, numpy for arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import _check_non_negative, _check_positive, _check_result, _finite_product
from .units import _finite_result

__all__ = [
    "OpticalPath",
    "TurbulenceState",
    "ScintillationReport",
    "r0_from_cn2",
    "cn2_from_r0",
    "scintillation_report",
    "greenwood_frequency",
    "scale_r0_to_wavelength",
]


@dataclass(frozen=True)
class OpticalPath:
    """Wavelength and length of the free-space propagation path.

    Defaults are the field trial's 1555 nm over 18 km.  ``wavenumber``,
    k = 2*pi/lambda in 1/m, is set when the path is built, outside the fields.
    """

    wavelength: float = 1.555e-6  # m
    path_length: float = 18e3  # m

    def __post_init__(self) -> None:
        for name in ("wavelength", "path_length"):
            _check_positive(name, getattr(self, name))
        lam = self.wavelength
        k = _finite_result("wavelength", lam, "wavenumber", lambda: 2.0 * math.pi / lam)
        object.__setattr__(self, "wavenumber", k)


def _r0_from_cn2(cn2, path: OpticalPath):
    k = path.wavenumber
    return (0.16 * cn2 * k * k * path.path_length) ** (-3.0 / 5.0)


def _cn2_from_r0(r0, path: OpticalPath):
    k = path.wavenumber
    return r0 ** (-5.0 / 3.0) / (0.16 * k * k * path.path_length)


def r0_from_cn2(cn2: float, path: OpticalPath) -> float:
    """Fried parameter of a spherical wave on a horizontal path.

    r0 = (0.16 * Cn2 * k^2 * L)^(-3/5), with k = 2*pi/lambda.  An r0 out of
    the float range names cn2, wavelength or path_length (the extreme factor).
    """
    _check_positive("cn2", cn2)
    factors = (("cn2", cn2, -3.0 / 5.0), ("wavelength", path.wavelength, 6.0 / 5.0),
               ("path_length", path.path_length, -3.0 / 5.0))
    return _finite_product("r0", factors, _r0_from_cn2, cn2, path)


def cn2_from_r0(r0: float, path: OpticalPath) -> float:
    """Exact algebraic inverse of :func:`r0_from_cn2`.

    A Cn2 out of the float range names r0, wavelength or path_length.
    """
    _check_positive("r0", r0)
    factors = (("r0", r0, -5.0 / 3.0), ("wavelength", path.wavelength, 2.0),
               ("path_length", path.path_length, -1.0))
    return _finite_product("Cn2", factors, _cn2_from_r0, r0, path)


def scale_r0_to_wavelength(r0: float, wavelength_from: float, wavelength_to: float) -> float:
    """Rescale r0 between wavelengths at fixed Cn2 (lambda^(6/5) law)."""
    factors = (("r0", r0, 1.0), ("wavelength_from", wavelength_from, -6.0 / 5.0),
               ("wavelength_to", wavelength_to, 6.0 / 5.0))
    for name, v, _ in factors:
        _check_positive(name, v)
    return _finite_product(
        "rescaled r0", factors, lambda: r0 * (wavelength_to / wavelength_from) ** (6.0 / 5.0)
    )


@dataclass(frozen=True)
class TurbulenceState:
    """Turbulence strength as the Fried parameter on a path, plus wind.

    ``cn2``, the refractive-index structure constant in m^(-2/3), is set
    from r0 and the path when the state is built, so the two cannot disagree.
    """

    fried_r0: float  # m, at path.wavelength
    wind_speed: float  # m/s, mean transverse
    path: OpticalPath

    def __post_init__(self) -> None:
        cn2_from_r0(self.fried_r0, self.path)
        _check_non_negative("wind_speed", self.wind_speed)
        # Stored as Python floats once checked (the messages above keep a
        # numpy scalar's own digits), so a float32 r0 runs the budget in float64.
        object.__setattr__(self, "fried_r0", float(self.fried_r0))
        object.__setattr__(self, "wind_speed", float(self.wind_speed))
        object.__setattr__(self, "cn2", _cn2_from_r0(self.fried_r0, self.path))

    @classmethod
    def from_r0(cls, r0: float, path: OpticalPath, wind_speed: float = 0.0) -> "TurbulenceState":
        return cls(r0, wind_speed, path)

    @classmethod
    def from_cn2(cls, cn2: float, path: OpticalPath, wind_speed: float = 0.0) -> "TurbulenceState":
        return cls(r0_from_cn2(cn2, path), wind_speed, path)


def _check_same_path(ts: TurbulenceState, path: OpticalPath, name: str = "path") -> None:
    """ValueError unless the path given beside a turbulence state is the state's own."""
    if ts.path != path:
        raise ValueError(f"ts.path {ts.path} differs from {name} {path}")


def _rytov(cn2, path: OpticalPath):
    """sigma_R^2 = 1.23 * Cn2 * k^(7/6) * L^(11/6); cn2 may be an array.

    Where L^(11/6) leaves the float range (Python's float ** raises), it is
    taken as L * L^(5/6), so that a Cn2 ~ 1/L keeps sigma_R^2 in range; a
    sigma_R^2 still past the range is inf.
    """
    k, length = path.wavenumber, path.path_length
    try:
        return 1.23 * cn2 * k ** (7.0 / 6.0) * length ** (11.0 / 6.0)
    except OverflowError:
        return 1.23 * cn2 * k ** (7.0 / 6.0) * length * length ** (5.0 / 6.0)


@dataclass(frozen=True)
class ScintillationReport:
    """Aperture-averaged scintillation figures for one link configuration.

    Internal identities (checked by the test suite, not re-derived here):
    sigmaI2 = exp(T1+T2)-1, sigma_chi2 = ln(sigmaI2+1)/4, eta_s = exp(-sigma_chi2).
    """

    rytov_sigmaR2: float
    beta0: float
    aperture_d: float
    T1: float
    T2: float
    sigmaI2: float
    sigma_chi2: float
    eta_s: float
    rho_c_weak: float  # m
    rho_c_strong: float  # m


def _aperture_averaged(xp, r0, cn2, path: OpticalPath, d_rx: float):
    """ScintillationReport's first eight fields, in order; r0 and cn2 may be arrays.

    At one point (xp is math) sigma_R^2 follows the range rule; a sweep tests
    its eta_ch instead.
    """
    if xp is math:
        # sigma_R^2 = (1.23/0.16) r0^(-5/3) k^(-5/6) L^(5/6), with k = 2*pi/lambda
        factors = (("r0", r0, -5.0 / 3.0), ("wavelength", path.wavelength, 5.0 / 6.0),
                   ("path_length", path.path_length, 5.0 / 6.0))
        sigma_r2 = _finite_product("sigma_R^2", factors, _rytov, cn2, path)
    else:
        sigma_r2 = _rytov(cn2, path)
    beta0 = 0.4065 * sigma_r2
    d = math.sqrt(path.wavenumber * d_rx * d_rx / (4.0 * path.path_length))
    try:  # a float power past the range (math only: numpy gives inf)
        beta0_sq, beta0_12_5 = beta0**2, beta0 ** (12.0 / 5.0)
    except OverflowError:
        t1, t2 = 0.0, 0.51 / 0.69 ** (5.0 / 6.0)  # beta0 -> inf, exact to float precision here
    else:
        t1_base = 1.0 + 0.18 * d * d + 0.56 * beta0_12_5
        try:  # t1_base's power past the range (math only) leaves t1 at 0
            t1 = 0.49 * beta0_sq / t1_base ** (7.0 / 6.0)
        except OverflowError:
            t1 = 0.0
        t2 = 0.51 * beta0_sq / (1.0 + 0.90 * d * d + 0.69 * beta0_12_5) ** (5.0 / 6.0)
    sigma_i2 = xp.exp(t1 + t2) - 1.0
    sigma_chi2 = 0.25 * xp.log(sigma_i2 + 1.0)
    return sigma_r2, beta0, d, t1, t2, sigma_i2, sigma_chi2, xp.exp(-sigma_chi2)


def scintillation_report(ts: TurbulenceState, path: OpticalPath, d_rx: float) -> ScintillationReport:
    """Aperture-averaged scintillation for a receiver of diameter d_rx.

    beta0 = 0.4065*sigma_R^2 is the spherical-wave Rytov variance; T1/T2 are
    the aperture-averaging terms; both weak- and strong-regime correlation
    widths are reported (the caller picks the branch via sigma_R^2 <= 1).
    path must be ts.path.  Past a beta0 whose powers leave the float range
    (r0 ~ 1e-78 m on the default path, or a path past ~1e158 m at r0 = 8.75 cm)
    it takes the beta0 -> inf limit: T1 = 0, T2 = 0.51/0.69^(5/6), so eta_s
    stays in range.  A sigma_R^2 out of the float range raises ValueError
    naming r0, wavelength or path_length (the extreme factor), and an
    aperture_d out of the float range names d_rx.
    """
    _check_same_path(ts, path)
    _check_positive("d_rx", d_rx)
    terms = _aperture_averaged(math, ts.fried_r0, ts.cn2, path, d_rx)
    _check_result("d_rx", d_rx, "aperture_d", terms[2])
    sqrt_ll = math.sqrt(path.wavelength * path.path_length)
    rho_strong = 0.36 * terms[0] ** (-3.0 / 10.0) * sqrt_ll  # sigma_R^(-3/5) on the amplitude
    return ScintillationReport(*terms, rho_c_weak=sqrt_ll, rho_c_strong=rho_strong)


def _greenwood(wind_speed, r0):
    return 0.43 * wind_speed / r0


def greenwood_frequency(ts: TurbulenceState) -> float:
    """f_G = 0.43 * w / r0, in Hz.

    An f_G past the float range raises ValueError naming wind_speed.
    """
    f_g = _greenwood(ts.wind_speed, ts.fried_r0)
    if f_g == math.inf:  # f_G = 0 at no wind is in range
        _check_result("wind_speed", ts.wind_speed, "f_G", f_g)
    return f_g
