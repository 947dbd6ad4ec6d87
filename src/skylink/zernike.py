"""Zernike-mode statistics of Kolmogorov turbulence.

Mode indexing starts at j=1 (tip); piston is excluded throughout.  Per-mode
variance weights follow the Gamma-function expression of the Zernike/
Kolmogorov expansion, and the residual variance after perfect correction of
the first J modes uses the classic 0.2944 * J^(-sqrt(3)/2) closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .units import _check_integer, _check_non_negative, _check_positive, _finite_product

__all__ = [
    "radial_order",
    "noll_weight",
    "turbulence_variance",
    "residual_variance",
    "ZernikeSeries",
    "ModeVarianceSet",
    "empirical_variances",
]


def radial_order(j: int) -> int:
    """Radial order n of mode j, n = ceil((-3 + sqrt(9+8j)) / 2).

    Exact integer arithmetic: n is the smallest integer with
    n*(n+3)/2 >= j (there are n+1 modes of radial order n).
    """
    _check_integer("j", j, 1)
    j = int(j)
    n = max(1, (math.isqrt(9 + 8 * j) - 3) // 2)
    while n * (n + 3) // 2 < j:
        n += 1
    return n


@lru_cache(maxsize=None)
def _weight_for_order(n: int) -> float:
    log_g = (
        math.log(n + 1.0)
        - math.log(math.pi)
        + math.lgamma(n - 5.0 / 6.0)
        + math.lgamma(23.0 / 6.0)
        + math.lgamma(11.0 / 6.0)
        - math.lgamma(n + 23.0 / 6.0)
    )
    return math.exp(log_g) * math.sin(5.0 * math.pi / 6.0)


def noll_weight(j: int) -> float:
    """Per-mode variance weight g(j); depends on j only through its radial order."""
    return _weight_for_order(radial_order(j))


def turbulence_variance(j: int, d_rx: float, r0: float) -> float:
    """Open-loop variance of mode j: (D/r0)^(5/3) * g(j), in rad^2."""
    _check_positive("d_rx", d_rx)
    _check_positive("r0", r0)
    return _finite_product(
        "phase variance", _aperture_factors(d_rx, r0),
        lambda: (d_rx / r0) ** (5.0 / 3.0) * noll_weight(j),
    )


def _aperture_factors(d_rx, r0):
    """The factors r0^(-5/3) and D^(5/3) of (D/r0)^(5/3), for _finite_product."""
    return ("r0", r0, -5.0 / 3.0), ("d_rx", d_rx, 5.0 / 3.0)


def _residual_variance(J, d_rx, r0):
    """Unchecked residual variance; J and r0 may be arrays."""
    return 0.2944 * J ** (-math.sqrt(3.0) / 2.0) * (d_rx / r0) ** (5.0 / 3.0)


def residual_variance(J: int, d_rx: float, r0: float) -> float:
    """Phase variance left after perfect correction of modes 1..J, in rad^2."""
    _check_integer("J", J, 1)
    _check_positive("d_rx", d_rx)
    _check_positive("r0", r0)
    return _finite_product(
        "phase variance", _aperture_factors(d_rx, r0), _residual_variance, J, d_rx, r0
    )


@dataclass(frozen=True)
class ZernikeSeries:
    """Time-stamped Zernike coefficient vectors from a wavefront sensor.

    coefficients[i, j-1] is mode j at timestamps[i], in radians of phase at
    wavelength_tag.  valid_mask marks the usable samples: a WFS frame is
    usable for all of its modes or for none.
    """

    timestamps: np.ndarray  # (N,) seconds, strictly increasing
    coefficients: np.ndarray  # (N, J_max) radians
    valid_mask: np.ndarray  # (N,) bool
    wavelength_tag: float  # m

    def __post_init__(self) -> None:
        import numpy as np

        t = np.asarray(self.timestamps, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        m = np.asarray(self.valid_mask, dtype=bool)
        if t.ndim != 1 or c.ndim != 2 or c.shape[0] != t.shape[0] or m.shape != t.shape:
            raise ValueError("inconsistent series shapes")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        _check_positive("wavelength_tag", self.wavelength_tag)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "valid_mask", m)

    @property
    def n_samples(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def j_max(self) -> int:
        return int(self.coefficients.shape[1])


class ModeVarianceSet(dict):
    """Per-mode sample variances: a dict from mode j to its variance in rad^2.

    A variance that is not finite or is below 0 raises ValueError naming
    its mode, and so does ``s[j]`` for a mode j the set does not hold
    (``s.get(j)`` gives None, as on any dict).
    """

    def __init__(self, variances=()) -> None:
        super().__init__(variances)
        for j, v in self.items():
            _check_non_negative(f"variance of mode {j}", v)

    def __missing__(self, j):
        raise ValueError(f"variance for mode {j} is missing")

    @property
    def modes(self) -> tuple:
        return tuple(sorted(self))


def empirical_variances(series: ZernikeSeries) -> ModeVarianceSet:
    """Unbiased per-mode sample variance over the valid samples, for every mode.

    Fewer than 2 valid samples raise ValueError naming the count.  A nan or
    inf among the valid samples gives a variance that
    :class:`ModeVarianceSet` rejects, naming the mode.
    """
    import numpy as np

    rows = series.coefficients[series.valid_mask]
    n = rows.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 valid samples, got {n}")
    # inf - inf, or a square past 1e308: ModeVarianceSet's ValueError says it
    with np.errstate(invalid="ignore", over="ignore"):
        # one contiguous row per mode: numpy sums it pairwise, as it does a lone column
        var = np.var(np.ascontiguousarray(rows.T), axis=1, ddof=1)
    return ModeVarianceSet(zip(range(1, series.j_max + 1), var.tolist()))
