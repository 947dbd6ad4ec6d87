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

from .atmosphere import OpticalPath, _greenwood
from .coupling import ReceiverChain, _servo_lag_variance
from .units import _check_integer, _check_non_negative, _check_positive, _finite_result
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
            _check_positive(name, getattr(self, name))
        _check_non_negative("wind_speed", self.wind_speed)
        for name, minimum in (("n_samples", 2), ("j_max", 2), ("ao_modes", 0), ("seed", 0)):
            _check_integer(name, getattr(self, name), minimum)
        _finite_result(  # the last timestamp, (n - 1) / sample_rate
            "sample_rate", self.sample_rate, "last timestamp",
            lambda: (int(self.n_samples) - 1) / self.sample_rate,
        )


def generate_series(cfg: SynthConfig) -> ZernikeSeries:
    """Generate a Zernike coefficient series for the given configuration.

    Temporal correlation: AR(1) with lag-1 autocorrelation
    exp(-2*pi*f_G/sample_rate); white noise when the wind (hence f_G) is
    zero.  AO-ON multiplies corrected-mode variances by
    min(1, (f_G/f_3dB)^(5/3)).
    """
    import numpy as np

    f_g = _greenwood(cfg.wind_speed, cfg.r0)
    phi = math.exp(-2.0 * math.pi * f_g / cfg.sample_rate) if f_g > 0 else 0.0
    # min(1, (f_G/f_3dB)^(5/3)): at f_G >= f_3dB the power is not needed (and may overflow)
    rejection = _servo_lag_variance(f_g, cfg.f_3db) if cfg.ao_on and f_g < cfg.f_3db else 1.0

    n, j_max, seed = int(cfg.n_samples), int(cfg.j_max), int(cfg.seed)
    sigma = np.empty(j_max)
    eps = np.empty((n, j_max))
    for j in range(1, j_max + 1):
        var = turbulence_variance(j, cfg.d_rx, cfg.r0)
        if cfg.ao_on and j <= cfg.ao_modes:
            var *= rejection
        sigma[j - 1] = math.sqrt(var)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
        eps[:, j - 1] = rng.standard_normal(n)
    # x[i] = phi*x[i-1] + sqrt(1-phi^2)*eps[i], from x[0] = eps[0] (stationary
    # start), by prefix doubling: after the pass at lag, x[i] holds the sum
    # over the last 2*lag inputs.  Terms weighted below phi^lag < 2^-53 fall
    # under the rounding of a unit-variance sample, so the passes stop there;
    # at phi = 0 none runs and x is eps.
    x = math.sqrt(1.0 - phi * phi) * eps
    x[0] = eps[0]
    lag, weight = 1, phi
    while lag < n and weight >= 2.0**-53:
        x[lag:] += weight * x[:-lag]
        lag, weight = 2 * lag, weight * weight
    timestamps = np.arange(n) / cfg.sample_rate
    return ZernikeSeries(timestamps, x * sigma, np.ones(n, dtype=bool), cfg.wavelength)
