"""Output checks for the benchmark, computed apart from skylink.

Every check recomputes its reference from a closed form or a property the
method must have (identity, monotonicity, bit-exact round trip); none
compares against a stored copy of earlier output.  A violated check raises
CheckError; :class:`Ledger` turns that into a failed, incorrect operation.
"""

from __future__ import annotations

import math

import numpy as np

# Field-trial calibration stated in the paper: 20.4 kHz detected by the
# SNSPD (efficiency 0.80) at eta_ch = -29 dB behind -1.2 dB internal loss.
INTERNAL_LOSS = 10 ** (-1.2 / 10)
DETECTOR_EFFICIENCY = {"snspd": 0.80, "spad": 0.15}
R_REF_HZ = 20.4e3 / (10 ** (-29 / 10) * INTERNAL_LOSS * DETECTOR_EFFICIENCY["snspd"])

REL = 1e-12  # identities that hold up to rounding in the evaluation order


class CheckError(Exception):
    """An output of skylink disagrees with the benchmark's own computation."""


class Ledger:
    """Counts operations; an exception marks one failed, a CheckError also incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.errors: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckError as exc:
            self.failed += 1
            self.violations.append(f"{name}: {exc}")
        except Exception as exc:  # an operation that raises is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return None

    @property
    def correct(self) -> bool:
        return not self.violations


def close(name: str, got: float, want: float, rel: float = REL) -> None:
    if not (math.isfinite(got) and math.isclose(got, want, rel_tol=rel, abs_tol=0.0)):
        raise CheckError(f"{name} = {got!r}, expected {want!r} (rel {rel:g})")


def within(name: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        raise CheckError(f"{name} = {value!r} outside [{lo!r}, {hi!r}]")


def monotone(name: str, values, increasing: bool = True, rel: float = REL) -> None:
    """Non-decreasing (or non-increasing) up to a relative rounding slack."""
    v = np.asarray(values, dtype=float)
    step = np.diff(v) if increasing else -np.diff(v)
    slack = rel * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    bad = np.flatnonzero(step < -slack)
    if v.size == 0 or not np.all(np.isfinite(v)) or bad.size:
        where = int(bad[0]) if bad.size else -1
        raise CheckError(f"{name} not {'non-decreasing' if increasing else 'non-increasing'} at {where}")


def same_bytes(name: str, a: bytes, b: bytes) -> None:
    if a != b:
        raise CheckError(f"{name}: repeated call wrote different bytes")


def bit_identical(name: str, got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.shape != want.shape or got.dtype != want.dtype or got.tobytes() != want.tobytes():
        raise CheckError(f"{name}: round trip is not bit-identical")


# --- closed forms ---------------------------------------------------------


def absorption(a_db_per_km: float, path_m: float) -> float:
    return 10 ** (-a_db_per_km * (path_m / 1e3) / 10)


def received_radius(path_m: float, wavelength: float, w0: float, r0: float) -> float:
    return path_m * math.hypot(wavelength / (math.pi * w0), 2.1 * wavelength / (math.pi * r0))


def eta_phi_residual(J, d_rx, r0):
    return np.exp(-0.2944 * np.power(J, -math.sqrt(3) / 2) * np.power(d_rx / r0, 5 / 3))


def eta_tau(wind, r0, f_3db):
    return np.exp(-np.power(0.43 * wind / r0 / f_3db, 5 / 3))


def eta0_grid(alpha: float, beta: np.ndarray) -> np.ndarray:
    b2 = beta * beta
    bracket = (np.exp(-b2) - np.exp(-b2 * alpha * alpha)) / (beta * math.sqrt(1 - alpha * alpha))
    return 2 * bracket * bracket


def eta_phi_on(coeffs: np.ndarray, J: int) -> float:
    var = np.var(coeffs[:, :J], axis=0, ddof=1)
    return float(np.prod(np.power(1 + 2 * var, -0.5)))


# --- composite checks -----------------------------------------------------


def budget(b: dict, *, r0: float, a_coeff: float, path_m: float, wavelength: float, w0: float) -> None:
    """Budget identities plus eta_a and W_L against their closed forms."""
    close("eta_focus", b["eta_focus"], b["eta_a"] * b["eta_coll"])
    close("eta_ch", b["eta_ch"], b["eta_focus"] * b["eta_optics"] * b["eta_smf"] * b["eta_fiber"])
    close("eta_a", b["eta_a"], absorption(a_coeff, path_m))
    close("w_l", b["w_l"], received_radius(path_m, wavelength, w0, r0))


def smf_product(s: dict) -> None:
    close("eta_ao", s["eta_ao"], s["eta_phi_on"] * s["eta_phi_residual"] * s["eta_tau"])
    close(
        "eta_smf",
        s["eta_smf"],
        s["eta0"] * s["eta_s"] * s["eta_phi_on"] * s["eta_phi_residual"] * s["eta_tau"],
    )


def signal_rate(signal_hz: float, eta_ch: float, detector: str) -> None:
    close("signal_hz", signal_hz, R_REF_HZ * eta_ch * INTERNAL_LOSS * DETECTOR_EFFICIENCY[detector])


def fried_fit(r0_hat: float, r0_true: float, slope: float | None = None) -> None:
    within("r0_hat / r0_true", r0_hat / r0_true, 0.95, 1.05)
    if slope is not None:
        within("fit_exponent_check", slope, 0.95, 1.05)


def skr_curve(name: str, skr) -> None:
    """Non-decreasing in eta_ch, and the grid spans the clamp-to-zero edge."""
    skr = np.asarray(skr, dtype=float)
    if np.any(skr < 0):
        raise CheckError(f"{name}: negative secret key rate")
    monotone(name, skr)
    if not (skr[0] == 0.0 and skr[-1] > 0.0):
        raise CheckError(f"{name}: grid does not span the clamp-to-zero edge")


def beta_optimum(alpha: float, eta_max: float) -> None:
    """optimize_beta must reach at least the best eta0 on a dense beta grid."""
    grid = float(eta0_grid(alpha, np.linspace(1e-3, 10.0, 5001)).max())
    if not eta_max >= grid * (1 - REL):
        raise CheckError(f"optimize_beta({alpha!r}) = {eta_max!r} below dense-grid max {grid!r}")


def budget_grid(eta_ch: np.ndarray) -> None:
    """eta_ch on an (r0, wind, J) grid: up in r0 and J, down in wind."""
    for axis, up in ((0, True), (2, True), (1, False)):
        lines = np.moveaxis(eta_ch, axis, -1).reshape(-1, eta_ch.shape[axis])
        for line in lines:
            monotone(f"eta_ch along axis {axis}", line, increasing=up)
