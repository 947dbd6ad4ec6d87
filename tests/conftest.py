import math

import numpy as np
import pytest

from skylink.atmosphere import OpticalPath
from skylink.coupling import ReceiverChain
from skylink.linkbudget import LinkGeometry
from skylink.zernike import ModeVarianceSet, ZernikeSeries, turbulence_variance


@pytest.fixture
def path():
    return OpticalPath(wavelength=1.555e-6, path_length=18e3)


@pytest.fixture
def chain():
    return ReceiverChain()


@pytest.fixture
def geom(path, chain):
    return LinkGeometry(path, chain)


def analytic_variances(r0, d_rx, j_max, attenuation=1.0, ao_modes=None):
    """Open-loop Kolmogorov per-mode variances, optionally attenuated on
    the first ao_modes (idealized closed loop)."""
    variances = {}
    for j in range(1, j_max + 1):
        v = turbulence_variance(j, d_rx, r0)
        if ao_modes is not None and j <= ao_modes:
            v *= attenuation
        variances[j] = v
    return ModeVarianceSet(variances)


def series_with_exact_variances(targets, n=512, seed=123, sample_rate=100.0, wavelength=1.555e-6):
    """Gaussian series whose per-mode sample variance (ddof=1) equals the
    target exactly (columns standardized after drawing)."""
    rng = np.random.default_rng(seed)
    j_max = max(targets)
    coeffs = np.zeros((n, j_max))
    for j, var in targets.items():
        x = rng.standard_normal(n)
        x = x - x.mean()
        x = x / x.std(ddof=1)
        coeffs[:, j - 1] = math.sqrt(var) * x
    timestamps = np.arange(n) / sample_rate
    mask = np.ones(n, dtype=bool)
    return ZernikeSeries(timestamps, coeffs, mask, wavelength)
