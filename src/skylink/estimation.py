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
from .coupling import ReceiverChain, SmfCouplingBreakdown, compose_smf, eta_phi_on
from .linkbudget import _smf_input, model_smf_breakdown
from .units import _check_positive, _check_result, _finite_result, _is_positive
from .zernike import ModeVarianceSet, ZernikeSeries, empirical_variances, noll_weight, radial_order

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
    it would count twice in the mean, and so do usable modes of one radial
    order, which leave the exponent check without a slope.  An r0_hat out of
    the float range raises ValueError naming d_rx.
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
        if variances[j] <= 0:
            warnings.warn(f"mode {j} has non-positive variance; excluded from fit", stacklevel=2)
            continue
        usable.append(j)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 usable modes, got {len(usable)}")

    log_g = np.array([math.log(noll_weight(j)) for j in usable])
    if np.ptp(log_g) == 0:  # g(j) depends on j only through its radial order
        raise ValueError(
            f"every usable mode has radial order {radial_order(usable[0])}; "
            "the exponent check needs modes of two radial orders or more"
        )
    log_s = np.array([math.log(variances[j]) for j in usable])
    log_resid = log_s - log_g
    # offset c = (5/3) log(d_rx/r0)
    c = float(np.mean(log_resid))
    r0_hat = _finite_result("d_rx", d_rx, "r0_hat", lambda: d_rx * math.exp(-0.6 * c))
    residual_rms = float(np.sqrt(np.mean((log_resid - c) ** 2)))

    per_mode_r0 = d_rx * np.exp(-0.6 * log_resid)
    mad = float(_median(np.abs(per_mode_r0 - _median(per_mode_r0))))
    r0_sigma = 1.4826 * mad

    return FriedFit(
        r0_hat=r0_hat,
        r0_sigma=r0_sigma,
        fit_exponent_check=float(np.polyfit(log_g, log_s, 1)[0]),
        residual_rms=residual_rms,
        modes_used=tuple(usable),
    )


def _median(x):
    """np.median of a 1-D array, bit for bit, without the numpy.ma np.median imports."""
    s = x.copy()
    s.sort()
    h = len(s) // 2
    if s[-1] != s[-1]:  # nan sorts last, and np.median returns it
        return s[-1]
    return s[h] if len(s) % 2 else s[h - 1 : h + 1].mean()


def predict_eta_smf(
    ao_on: ZernikeSeries,
    fried: FriedFit,
    wind_speed: float,
    chain: ReceiverChain,
    path: OpticalPath,
) -> SmfCouplingBreakdown:
    """Predict the SMF coupling from AO-ON data plus the AO-OFF Fried estimate.

    The measured closed-loop eta_phi_on meets the design model's other terms
    (residual, temporal and scintillation at the fitted r0, mode mismatch from
    the chain) in :func:`compose_smf`.
    """
    e_on = eta_phi_on(empirical_variances(ao_on), chain.ao_modes)
    ts = TurbulenceState.from_r0(fried.r0_hat, path, wind_speed)
    m = model_smf_breakdown(chain, ts, path)
    smf = compose_smf(m.eta0, m.eta_s, e_on, m.eta_phi_residual, m.eta_tau)
    if not smf.eta_smf > 0:
        _check_result(*_smf_input(chain, ts, smf), "eta_smf", smf.eta_smf)
    return smf


def write_wfs_log(series: ZernikeSeries, d_rx: float, path) -> None:
    """Write a WFS log CSV.

    Format: `# wavelength_m=<float> d_rx_m=<float>` then
    `t_s,valid,b1,...,bJ`; per-sample valid flag in {0,1}.  A nan or inf
    cell, which :func:`load_wfs_log` would reject, raises ValueError.
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
    # Python floats and ints: repr is the shortest round-trip text, where a
    # numpy scalar's repr is "np.float64(...)" under numpy 2.
    times, flags = series.timestamps.tolist(), series.valid_mask.astype(int).tolist()
    rows = zip(times, flags, series.coefficients.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# wavelength_m={float(series.wavelength_tag)!r} d_rx_m={float(d_rx)!r}\n")
        fh.write("t_s,valid," + ",".join(f"b{j}" for j in range(1, series.j_max + 1)) + "\n")
        fh.writelines(",".join(map(repr, (t, valid, *coeffs))) + "\n" for t, valid, coeffs in rows)


_HEADER_KEYS = ("wavelength_m", "d_rx_m")


def load_wfs_log(path) -> tuple[ZernikeSeries, float]:
    """Read a WFS log CSV; returns the series and the receiver diameter.

    Rows with valid=0 are kept but masked out.  Malformed content,
    including nan or inf cells and header values not > 0, raises ValueError
    naming its line; times that do not strictly increase raise ValueError
    naming the file only.
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
        if key in _HEADER_KEYS and not _is_positive(meta[key]):
            raise ValueError(f"{path}:1: non-positive header value {token!r}")
    for key in _HEADER_KEYS:
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

    rows = [line for line in lines[2:] if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    parsed = _parse_rows(rows, j_max)
    t, b, valid = parsed if parsed is not None else _parse_lines(path, lines, j_max)
    finite = np.isfinite(t) & np.isfinite(b).all(axis=1)
    if not finite.all():
        data_lines = [n for n, line in enumerate(lines[2:], start=3) if line.strip()]
        lineno = data_lines[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: non-finite value (nan or inf)")
    if not np.all(t[1:] > t[:-1]):
        raise ValueError(f"{path}: timestamps not strictly increasing")
    series = ZernikeSeries(t, b, valid, meta["wavelength_m"])
    return series, meta["d_rx_m"]


def _parse_rows(rows: list, j_max: int):
    """Data rows through numpy's C parser: (t, coefficients, valid), or None.

    None means numpy does not read a row as float() and int() would: a parse
    error, a wrong field count, a flag token other than exactly 0 or 1
    (numpy would read "1.0" as 1), or a \x1f (numpy strips it around a
    number, float() does not).  :func:`_parse_lines` then reads the rows or
    names the bad line.  numpy converts each cell with the same correctly
    rounded routine as float(), so the values are bit-identical to the
    per-line path's.
    """
    import numpy as np

    if any("\x1f" in row for row in rows):
        return None
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != j_max + 2 or not {row.split(",", 2)[1] for row in rows} <= {"0", "1"}:
        return None
    return data[:, 0], data[:, 2:], data[:, 1] == 1


def _parse_lines(path, lines: list, j_max: int):
    """Data rows one line at a time: (t, coefficients, valid) or ValueError naming the line."""
    import numpy as np

    times, valid, coeffs = [], [], []
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
    return np.array(times), np.array(coeffs), np.array(valid)
