"""Field-data pipeline: WFS log ingestion, Fried-parameter fit, coupling prediction.

The fit inverts the per-mode Kolmogorov variance law in log domain with r0 as
the single free parameter; an auxiliary two-parameter fit provides a
spectrum-consistency diagnostic (slope 1 for Kolmogorov data).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .atmosphere import OpticalPath, TurbulenceState
from .coupling import ReceiverChain, SmfCouplingBreakdown, eta_phi_on
from .linkbudget import model_smf_breakdown
from .units import _check_positive
from .zernike import ModeVarianceSet, ZernikeSeries, empirical_variances, noll_weight

__all__ = [
    "FriedFit",
    "load_wfs_log",
    "write_wfs_log",
    "fit_fried",
    "predict_eta_smf",
]


@dataclass(frozen=True)
class FriedFit:
    """Result of the single-parameter Fried fit."""

    r0_hat: float  # m
    r0_sigma: float  # m, robust (MAD-based) spread of per-mode estimates
    fit_exponent_check: float  # slope of log sigma^2 vs log g(j); 1 for Kolmogorov
    residual_rms: float  # rms of log-domain residuals
    modes_used: tuple

    def __post_init__(self) -> None:
        _check_positive("r0_hat", self.r0_hat)
        if not self.modes_used:
            raise ValueError("modes_used must be non-empty")


def fit_fried(variances: ModeVarianceSet, d_rx: float, modes=None) -> FriedFit:
    """Estimate r0 from per-mode variances.

    Model: log sigma_j^2 = (5/3) log(d_rx/r0) + log g(j).  The single-offset
    least-squares solution is closed form; non-positive variances are
    excluded with a warning.  A mode listed twice raises ValueError, since
    it would count twice in the mean.
    """
    import numpy as np

    _check_positive("d_rx", d_rx)
    if modes is None:
        modes = variances.modes
    usable, seen = [], set()
    for j in modes:
        if j in seen:
            raise ValueError(f"mode {j} is listed twice")
        seen.add(j)
        if j not in variances:
            raise ValueError(f"variance for mode {j} is missing")
        if variances[j] <= 0:
            warnings.warn(f"mode {j} has non-positive variance; excluded from fit", stacklevel=2)
            continue
        usable.append(j)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 usable modes, got {len(usable)}")

    log_resid = np.array([math.log(variances[j]) - math.log(noll_weight(j)) for j in usable])
    # offset c = (5/3) log(d_rx/r0)
    c = float(np.mean(log_resid))
    r0_hat = d_rx * math.exp(-0.6 * c)
    residual_rms = float(np.sqrt(np.mean((log_resid - c) ** 2)))

    per_mode_r0 = d_rx * np.exp(-0.6 * log_resid)
    mad = float(np.median(np.abs(per_mode_r0 - np.median(per_mode_r0))))
    r0_sigma = 1.4826 * mad

    log_g = np.array([math.log(noll_weight(j)) for j in usable])
    log_s = np.array([math.log(variances[j]) for j in usable])
    if float(np.ptp(log_g)) > 0:
        slope = float(np.polyfit(log_g, log_s, 1)[0])
    else:
        slope = float("nan")

    return FriedFit(
        r0_hat=r0_hat,
        r0_sigma=r0_sigma,
        fit_exponent_check=slope,
        residual_rms=residual_rms,
        modes_used=tuple(usable),
    )


def predict_eta_smf(
    ao_on: ZernikeSeries,
    fried: FriedFit,
    wind_speed: float,
    chain: ReceiverChain,
    path: OpticalPath,
) -> SmfCouplingBreakdown:
    """Predict the SMF coupling from AO-ON data plus the AO-OFF Fried estimate.

    eta_phi_on comes from the measured closed-loop variances, the residual and
    temporal terms from the fitted r0, scintillation from the turbulence state
    implied by r0, and the mode mismatch from the receiver chain.
    """
    e_on = eta_phi_on(empirical_variances(ao_on), chain.ao_modes)
    ts = TurbulenceState.from_r0(fried.r0_hat, path, wind_speed)
    return model_smf_breakdown(chain, ts, path, eta_phi_on=e_on)


def write_wfs_log(series: ZernikeSeries, d_rx: float, path) -> None:
    """Write a WFS log CSV.

    Format: `# wavelength_m=<float> d_rx_m=<float>` then
    `t_s,valid,b1,...,bJ`; per-sample valid flag in {0,1}.  The format has
    one flag per row, so a row whose mask is valid for some modes only
    raises ValueError instead of losing its valid cells, and so does a nan
    or inf cell, which :func:`load_wfs_log` would reject.
    """
    import numpy as np

    _check_positive("d_rx", d_rx)
    cells = np.column_stack((series.timestamps, series.coefficients))
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        row, col = (int(k) for k in bad[0])
        cell = "t_s" if col == 0 else f"mode {col}"
        value = float(cells[row, col])
        raise ValueError(f"row {row} {cell} is {value}; the WFS log holds finite values only")
    row_valid = series.valid_mask.all(axis=1)
    partial = np.flatnonzero(series.valid_mask.any(axis=1) & ~row_valid)
    if partial.size:
        raise ValueError(
            f"row {int(partial[0])} is valid for some modes only; "
            "the WFS log holds one valid flag per row"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# wavelength_m={series.wavelength_tag!r} d_rx_m={d_rx!r}\n")
        fh.write("t_s,valid," + ",".join(f"b{j}" for j in range(1, series.j_max + 1)) + "\n")
        for i in range(series.n_samples):
            valid = 1 if row_valid[i] else 0
            coeffs = ",".join(repr(float(v)) for v in series.coefficients[i])
            fh.write(f"{float(series.timestamps[i])!r},{valid},{coeffs}\n")


def load_wfs_log(path) -> tuple[ZernikeSeries, float]:
    """Read a WFS log CSV; returns the series and the receiver diameter.

    Rows with valid=0 are kept but masked out for all modes.  Malformed
    content, including nan or inf cells, raises ValueError with the
    offending line number.
    """
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty WFS log")
    header = lines[0]
    if not header.startswith("# "):
        raise ValueError(f"{path}:1: expected '# wavelength_m=... d_rx_m=...' header")
    meta = {}
    for token in header[2:].split():
        if "=" not in token:
            raise ValueError(f"{path}:1: bad header token {token!r}")
        key, _, value = token.partition("=")
        try:
            meta[key] = float(value)
        except ValueError:
            raise ValueError(f"{path}:1: bad header value {token!r}") from None
        if not math.isfinite(meta[key]):
            raise ValueError(f"{path}:1: non-finite header value {token!r}")
    for key in ("wavelength_m", "d_rx_m"):
        if key not in meta:
            raise ValueError(f"{path}:1: missing header key {key}")
    if len(lines) < 2:
        raise ValueError(f"{path}: missing column header")
    columns = lines[1].split(",")
    if columns[:2] != ["t_s", "valid"] or len(columns) < 3:
        raise ValueError(f"{path}:2: bad column header {lines[1]!r}")
    j_max = len(columns) - 2
    if columns[2:] != [f"b{j}" for j in range(1, j_max + 1)]:
        raise ValueError(f"{path}:2: bad coefficient columns")

    times = []
    valid = []
    coeffs = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != j_max + 2:
            raise ValueError(f"{path}:{lineno}: expected {j_max + 2} fields, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            flag = int(parts[1])
            if flag not in (0, 1):
                raise ValueError(f"valid flag must be 0 or 1, got {parts[1]}")
            valid.append(bool(flag))
            coeffs.append([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not times:
        raise ValueError(f"{path}: no data rows")
    t = np.array(times)
    b = np.array(coeffs)
    finite = np.isfinite(t) & np.isfinite(b).all(axis=1)
    if not finite.all():
        data_lines = [n for n, line in enumerate(lines[2:], start=3) if line.strip()]
        lineno = data_lines[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: non-finite value (nan or inf)")
    if t.size >= 2 and not np.all(np.diff(t) > 0):
        raise ValueError(f"{path}: timestamps not strictly increasing")
    mask = np.repeat(np.array(valid)[:, None], j_max, axis=1)
    series = ZernikeSeries(t, b, mask, meta["wavelength_m"])
    return series, meta["d_rx_m"]
