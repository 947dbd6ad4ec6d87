"""Zernike-mode statistics of Kolmogorov turbulence.

Mode indexing starts at j=1 (tip); piston is excluded throughout.  Per-mode
variance weights follow the Gamma-function expression of the Zernike/
Kolmogorov expansion, and the residual variance after perfect correction of
the first J modes uses the classic 0.2944 * J^(-sqrt(3)/2) closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .units import _check_integer, _check_non_negative, _check_positive

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
    return (d_rx / r0) ** (5.0 / 3.0) * noll_weight(j)


def _check_residual_args(J: int, d_rx: float, r0: float) -> None:
    _check_integer("J", J, 1)
    _check_positive("d_rx", d_rx)
    _check_positive("r0", r0)


def _residual_variance(J, d_rx, r0):
    """Unchecked residual variance; J and r0 may be arrays."""
    return 0.2944 * J ** (-math.sqrt(3.0) / 2.0) * (d_rx / r0) ** (5.0 / 3.0)


def residual_variance(J: int, d_rx: float, r0: float) -> float:
    """Phase variance left after perfect correction of modes 1..J, in rad^2."""
    _check_residual_args(J, d_rx, r0)
    return _residual_variance(J, d_rx, r0)


@dataclass(frozen=True)
class ZernikeSeries:
    """Time-stamped Zernike coefficient vectors from a wavefront sensor.

    coefficients[i, j-1] is mode j at timestamps[i], in radians of phase at
    wavelength_tag.  valid_mask marks usable entries per sample and mode.
    """

    timestamps: np.ndarray  # (N,) seconds, strictly increasing
    coefficients: np.ndarray  # (N, J_max) radians
    valid_mask: np.ndarray  # (N, J_max) bool
    wavelength_tag: float  # m

    def __post_init__(self) -> None:
        import numpy as np

        t = np.asarray(self.timestamps, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        m = np.asarray(self.valid_mask, dtype=bool)
        if t.ndim != 1 or c.ndim != 2 or c.shape[0] != t.shape[0] or m.shape != c.shape:
            raise ValueError("inconsistent series shapes")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
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

    def to_wavelength(self, wavelength: float) -> "ZernikeSeries":
        """Re-express phase coefficients at another wavelength."""
        _check_positive("wavelength", wavelength)
        scale = self.wavelength_tag / wavelength
        return ZernikeSeries(self.timestamps, self.coefficients * scale, self.valid_mask, wavelength)


@dataclass(frozen=True)
class ModeVarianceSet:
    """Per-mode sample variances (rad^2); modes without enough data are absent.

    A variance that is not finite or is below 0 raises ValueError naming
    its mode.
    """

    variances: dict = field(default_factory=dict)  # j -> rad^2
    sample_counts: dict = field(default_factory=dict)  # j -> N used

    def __post_init__(self) -> None:
        for j, v in self.variances.items():
            _check_non_negative(f"variance of mode {j}", v)

    def __contains__(self, j: int) -> bool:
        return j in self.variances

    def __getitem__(self, j: int) -> float:
        return self.variances[j]

    @property
    def modes(self) -> tuple:
        return tuple(sorted(self.variances))


def empirical_variances(series: ZernikeSeries) -> ModeVarianceSet:
    """Unbiased per-mode sample variance over valid samples.

    Modes with fewer than 2 valid samples are omitted, not reported as zero.
    A nan or inf among a mode's valid samples gives a variance that
    :class:`ModeVarianceSet` rejects, naming the mode.
    """
    import numpy as np

    variances: dict = {}
    counts: dict = {}
    for col in range(series.j_max):
        mask = series.valid_mask[:, col]
        n = int(mask.sum())
        if n < 2:
            continue
        j = col + 1
        with np.errstate(invalid="ignore"):  # inf - inf: ModeVarianceSet's ValueError says it
            variances[j] = float(np.var(series.coefficients[mask, col], ddof=1))
        counts[j] = n
    return ModeVarianceSet(variances, counts)
