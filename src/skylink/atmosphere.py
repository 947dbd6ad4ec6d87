"""Scalar turbulence statistics for a horizontal spherical-wave link.

Covers the Fried parameter / structure-constant conversion, Rytov variance,
aperture-averaged scintillation, irradiance correlation widths and the
Greenwood frequency.  Everything here is a pure function of its inputs.

Terms shared with the array evaluation in ``linkbudget.sweep_budget`` are
private functions of their numbers; those that call exp/log take the array
module ``xp`` (``math`` for scalars, numpy for arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import _check_non_negative, _check_positive

__all__ = [
    "OpticalPath",
    "TurbulenceState",
    "ScintillationReport",
    "r0_from_cn2",
    "cn2_from_r0",
    "rytov_variance",
    "scintillation_report",
    "greenwood_frequency",
    "scale_r0_to_wavelength",
]


@dataclass(frozen=True)
class OpticalPath:
    """Wavelength and length of the free-space propagation path.

    Defaults are the field trial's 1555 nm over 18 km.
    """

    wavelength: float = 1.555e-6  # m
    path_length: float = 18e3  # m

    def __post_init__(self) -> None:
        for name in ("wavelength", "path_length"):
            _check_positive(name, getattr(self, name))

    @property
    def wavenumber(self) -> float:
        """k = 2*pi/lambda, in 1/m."""
        return 2.0 * math.pi / self.wavelength


def _r0_from_cn2(cn2, path: OpticalPath):
    k = path.wavenumber
    return (0.16 * cn2 * k * k * path.path_length) ** (-3.0 / 5.0)


def _cn2_from_r0(r0, path: OpticalPath):
    k = path.wavenumber
    return r0 ** (-5.0 / 3.0) / (0.16 * k * k * path.path_length)


def r0_from_cn2(cn2: float, path: OpticalPath) -> float:
    """Fried parameter of a spherical wave on a horizontal path.

    r0 = (0.16 * Cn2 * k^2 * L)^(-3/5)
    """
    _check_positive("cn2", cn2)
    return _r0_from_cn2(cn2, path)


def cn2_from_r0(r0: float, path: OpticalPath) -> float:
    """Exact algebraic inverse of :func:`r0_from_cn2`."""
    _check_positive("r0", r0)
    return _cn2_from_r0(r0, path)


def scale_r0_to_wavelength(r0: float, wavelength_from: float, wavelength_to: float) -> float:
    """Rescale r0 between wavelengths at fixed Cn2 (lambda^(6/5) law)."""
    args = (("r0", r0), ("wavelength_from", wavelength_from), ("wavelength_to", wavelength_to))
    for name, v in args:
        _check_positive(name, v)
    return r0 * (wavelength_to / wavelength_from) ** (6.0 / 5.0)


@dataclass(frozen=True)
class TurbulenceState:
    """Turbulence strength as the Fried parameter on a path, plus wind.

    Cn2 is derived from r0 and the path, so the two cannot disagree.
    """

    fried_r0: float  # m, at path.wavelength
    wind_speed: float  # m/s, mean transverse
    path: OpticalPath

    def __post_init__(self) -> None:
        _check_positive("r0", self.fried_r0)
        _check_positive("cn2", self.cn2)
        _check_non_negative("wind_speed", self.wind_speed)

    @classmethod
    def from_r0(cls, r0: float, path: OpticalPath, wind_speed: float = 0.0) -> "TurbulenceState":
        return cls(r0, wind_speed, path)

    @classmethod
    def from_cn2(cls, cn2: float, path: OpticalPath, wind_speed: float = 0.0) -> "TurbulenceState":
        return cls(r0_from_cn2(cn2, path), wind_speed, path)

    @property
    def cn2(self) -> float:
        """Refractive-index structure constant, in m^(-2/3)."""
        return _cn2_from_r0(self.fried_r0, self.path)

    def r0_at(self, wavelength: float) -> float:
        """Fried parameter rescaled to another wavelength."""
        return scale_r0_to_wavelength(self.fried_r0, self.path.wavelength, wavelength)


def _check_same_path(ts: TurbulenceState, path: OpticalPath, name: str = "path") -> None:
    """ValueError unless the path given beside a turbulence state is the state's own."""
    if ts.path != path:
        raise ValueError(f"ts.path {ts.path} differs from {name} {path}")


def _rytov(cn2, path: OpticalPath):
    k = path.wavenumber
    return 1.23 * cn2 * k ** (7.0 / 6.0) * path.path_length ** (11.0 / 6.0)


def rytov_variance(ts: TurbulenceState, path: OpticalPath) -> float:
    """sigma_R^2 = 1.23 * Cn2 * k^(7/6) * L^(11/6); path must be ts.path."""
    _check_same_path(ts, path)
    return _rytov(ts.cn2, path)


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


def _aperture_averaged(xp, cn2, path: OpticalPath, d_rx: float):
    """ScintillationReport's first eight fields, in order; cn2 may be an array."""
    sigma_r2 = _rytov(cn2, path)
    beta0 = 0.4065 * sigma_r2
    d = math.sqrt(path.wavenumber * d_rx * d_rx / (4.0 * path.path_length))
    t1 = 0.49 * beta0**2 / (1.0 + 0.18 * d * d + 0.56 * beta0 ** (12.0 / 5.0)) ** (7.0 / 6.0)
    t2 = 0.51 * beta0**2 / (1.0 + 0.90 * d * d + 0.69 * beta0 ** (12.0 / 5.0)) ** (5.0 / 6.0)
    sigma_i2 = xp.exp(t1 + t2) - 1.0
    sigma_chi2 = 0.25 * xp.log(sigma_i2 + 1.0)
    return sigma_r2, beta0, d, t1, t2, sigma_i2, sigma_chi2, xp.exp(-sigma_chi2)


def scintillation_report(ts: TurbulenceState, path: OpticalPath, d_rx: float) -> ScintillationReport:
    """Aperture-averaged scintillation for a receiver of diameter d_rx.

    beta0 = 0.4065*sigma_R^2 is the spherical-wave Rytov variance; T1/T2 are
    the aperture-averaging terms; both weak- and strong-regime correlation
    widths are reported (the caller picks the branch via sigma_R^2 <= 1).
    path must be ts.path.
    """
    _check_same_path(ts, path)
    _check_positive("d_rx", d_rx)
    terms = _aperture_averaged(math, ts.cn2, path, d_rx)
    sqrt_ll = math.sqrt(path.wavelength * path.path_length)
    rho_strong = 0.36 * terms[0] ** (-3.0 / 10.0) * sqrt_ll  # sigma_R^(-3/5) on the amplitude
    return ScintillationReport(*terms, rho_c_weak=sqrt_ll, rho_c_strong=rho_strong)


def _greenwood(wind_speed, r0):
    return 0.43 * wind_speed / r0


def greenwood_frequency(ts: TurbulenceState) -> float:
    """f_G = 0.43 * w / r0, in Hz."""
    return _greenwood(ts.wind_speed, ts.fried_r0)
