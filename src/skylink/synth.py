"""Synthetic Kolmogorov-consistent Zernike time series.

Oracle generator for round-trip testing of the estimation pipeline: AO-OFF
modes are stationary zero-mean Gaussian AR(1) processes at the open-loop
variances; AO-ON applies an idealized closed-loop rejection factor to the
corrected modes.  Identical configs produce bit-identical output (PCG64
streams spawned per mode from the master seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atmosphere import OpticalPath, _greenwood
from .coupling import ReceiverChain
from .zernike import ZernikeSeries, turbulence_variance

__all__ = ["SynthConfig", "generate_series"]


@dataclass(frozen=True)
class SynthConfig:
    """Series shape, turbulence and AO loop; hardware defaults are the field trial's."""

    r0: float  # m
    d_rx: float = ReceiverChain.d_rx  # m
    j_max: int = 35
    n_samples: int = 10000
    sample_rate: float = 100.0  # Hz
    wind_speed: float = 0.0  # m/s
    ao_on: bool = False
    ao_modes: int = ReceiverChain.ao_modes
    f_3db: float = ReceiverChain.f_3db  # Hz
    wavelength: float = OpticalPath.wavelength  # m
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("r0", "d_rx", "sample_rate", "f_3db", "wavelength"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not 0 <= self.wind_speed < math.inf:
            raise ValueError(f"wind_speed must be finite and >= 0, got {self.wind_speed}")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.j_max < 2:
            raise ValueError("j_max must be >= 2")


def generate_series(cfg: SynthConfig) -> ZernikeSeries:
    """Generate a Zernike coefficient series for the given configuration.

    Temporal correlation: AR(1) with lag-1 autocorrelation
    exp(-2*pi*f_G/sample_rate); white noise when the wind (hence f_G) is
    zero.  AO-ON multiplies corrected-mode variances by
    min(1, (f_G/f_3dB)^(5/3)).
    """
    f_g = _greenwood(cfg.wind_speed, cfg.r0)
    phi = math.exp(-2.0 * math.pi * f_g / cfg.sample_rate) if f_g > 0 else 0.0
    rejection = min(1.0, (f_g / cfg.f_3db) ** (5.0 / 3.0)) if cfg.ao_on else 1.0

    n = cfg.n_samples
    coeffs = np.empty((n, cfg.j_max))
    for j in range(1, cfg.j_max + 1):
        var = turbulence_variance(j, cfg.d_rx, cfg.r0)
        if cfg.ao_on and j <= cfg.ao_modes:
            var *= rejection
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(j,))))
        eps = rng.standard_normal(n)
        if phi == 0.0:
            x = eps
        else:
            from scipy.signal import lfilter  # deferred: SciPy loads on first AR(1) use only

            u = math.sqrt(1.0 - phi * phi) * eps
            u[0] = eps[0]  # stationary start at unit marginal variance
            x = lfilter([1.0], [1.0, -phi], u)
        coeffs[:, j - 1] = math.sqrt(var) * x
    timestamps = np.arange(n) / cfg.sample_rate
    mask = np.ones((n, cfg.j_max), dtype=bool)
    return ZernikeSeries(timestamps, coeffs, mask, cfg.wavelength)
