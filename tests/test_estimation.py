import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylink import estimation, synth
from skylink.atmosphere import TurbulenceState, greenwood_frequency, scintillation_report
from skylink.coupling import eta_phi_on
from skylink.zernike import ZernikeSeries, empirical_variances, residual_variance

from conftest import analytic_variances, series_with_exact_variances


def test_noiseless_fit_is_exact():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
    assert fit.fit_exponent_check == pytest.approx(1.0, abs=1e-8)


def test_noiseless_fit_mode_exclusion_invariance():
    """Perfect-model data: dropping any one mode leaves r0_hat unchanged."""
    variances = analytic_variances(0.08, 0.41, 35)
    full = estimation.fit_fried(variances, 0.41).r0_hat
    for excluded in (1, 7, 35):
        modes = tuple(j for j in range(1, 36) if j != excluded)
        partial = estimation.fit_fried(variances, 0.41, modes).r0_hat
        assert partial == pytest.approx(full, rel=1e-12)


def test_fit_recovers_synthetic_r0():
    cfg = synth.SynthConfig(r0=0.05, j_max=35, n_samples=10000, seed=42)
    series = synth.generate_series(cfg)
    fit = estimation.fit_fried(empirical_variances(series), 0.41)
    assert fit.r0_hat == pytest.approx(0.05, rel=0.05)
    assert fit.fit_exponent_check == pytest.approx(1.0, abs=0.1)
    assert fit.residual_rms < 0.2


def test_fit_subset_of_modes():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41, modes=tuple(range(3, 36)))
    assert fit.modes_used == tuple(range(3, 36))
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)


def test_fit_excludes_nonpositive_variance():
    variances = analytic_variances(0.08, 0.41, 10)
    variances[4] = 0.0  # a dict item set after the constructor's check
    with pytest.warns(UserWarning, match="mode 4"):
        fit = estimation.fit_fried(variances, 0.41)
    assert 4 not in fit.modes_used
    assert fit.r0_hat == pytest.approx(0.08, rel=1e-10)


def test_fit_errors():
    variances = analytic_variances(0.08, 0.41, 5)
    with pytest.raises(ValueError, match=r"^variance for mode 6 is missing$"):
        estimation.fit_fried(variances, 0.41, modes=(1, 2, 6))
    with pytest.raises(ValueError, match="at least 3"):
        estimation.fit_fried(variances, 0.41, modes=(1, 2))
    with pytest.raises(ValueError, match="mode 3 is listed twice"):
        estimation.fit_fried(variances, 0.41, modes=(3, 3, 4))
    with pytest.raises(ValueError):
        estimation.fit_fried(variances, -0.41)
    with pytest.raises(ValueError, match=r"^modes_used must be non-empty$"):
        estimation.FriedFit(0.08, 0.0, 1.0, 0.0, modes_used=())


@pytest.mark.parametrize(
    "modes, order", [((3, 4, 5), 2), ((6, 7, 8, 9), 3)], ids=["order 2", "order 3"]
)
def test_fit_needs_two_radial_orders(modes, order):
    """One radial order leaves the exponent check undefined: no nan slope, a ValueError."""
    variances = analytic_variances(0.08, 0.41, 10)
    with pytest.raises(ValueError, match=f"radial order {order}; the exponent check needs"):
        estimation.fit_fried(variances, 0.41, modes=modes)


def test_fit_flags_non_kolmogorov_spectrum():
    """Closed-loop (AO-ON) statistics break the open-loop variance law; the
    slope diagnostic and residuals must show it."""
    variances = analytic_variances(0.08, 0.41, 35, attenuation=0.05, ao_modes=20)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.residual_rms > 0.5
    assert abs(fit.fit_exponent_check - 1.0) > 0.1


def test_fit_uncertainty_zero_for_perfect_data():
    variances = analytic_variances(0.08, 0.41, 35)
    fit = estimation.fit_fried(variances, 0.41)
    assert fit.r0_sigma == pytest.approx(0.0, abs=1e-12)


# fit_fried's medians see values in [0, inf], and nan where inf - inf meets
_MEDIAN_INPUTS = st.lists(st.one_of(st.floats(min_value=0.0), st.just(math.nan)), min_size=1,
                          max_size=79)


@settings(max_examples=400, deadline=None)
@given(values=_MEDIAN_INPUTS)
def test_median_is_np_median_bit_for_bit(values):
    x = np.array(values)
    with np.errstate(over="ignore"):  # both add the middle two of [8.9e307, 9e307]
        assert estimation._median(x).tobytes() == np.median(x).tobytes()
    assert x.tobytes() == np.array(values).tobytes()  # the input is left as it was


def test_predict_eta_smf_composition(path, chain):
    r0, wind = 0.0875, 0.556
    targets = {j: 0.02 for j in range(1, 36)}
    ao_on = series_with_exact_variances(targets, n=256, seed=7)
    fit = estimation.FriedFit(r0, 0.0, 1.0, 0.0, tuple(range(1, 36)))
    out = estimation.predict_eta_smf(ao_on, fit, wind, chain, path)

    assert out.eta_phi_on == pytest.approx(
        eta_phi_on(empirical_variances(ao_on), 35), rel=1e-12
    )
    residual = math.exp(-residual_variance(35, chain.d_rx, r0))
    assert out.eta_phi_residual == pytest.approx(residual, rel=1e-12)
    ts = TurbulenceState.from_r0(r0, path, wind)
    assert out.eta_s == pytest.approx(scintillation_report(ts, path, chain.d_rx).eta_s, rel=1e-12)
    servo_lag = (greenwood_frequency(ts) / chain.f_3db) ** (5 / 3)
    assert out.eta_tau == pytest.approx(math.exp(-servo_lag), rel=1e-12)
    assert out.eta_smf == pytest.approx(
        out.eta0 * out.eta_s * out.eta_phi_on * out.eta_phi_residual * out.eta_tau, rel=1e-12
    )


def test_predict_eta_smf_names_the_measured_term_when_the_product_underflows(path, chain):
    """eta_phi_on ~1e-215 (AO-ON variances of 1e12 rad^2) times a design eta_smf ~1e-206."""
    ao_on = series_with_exact_variances({j: 1e12 for j in range(1, 36)}, n=256, seed=7)
    fit = estimation.FriedFit(0.001, 0.0, 1.0, 0.0, tuple(range(1, 36)))
    form = r"^eta_phi_on must give a finite, positive eta_smf, got .+ \(eta_smf = 0\.0\)$"
    with pytest.raises(ValueError, match=form):
        estimation.predict_eta_smf(ao_on, fit, 0.5, chain, path)


def test_wfs_log_round_trip_bit_identical(tmp_path):
    cfg = synth.SynthConfig(r0=0.08, j_max=6, n_samples=50, seed=3, wind_speed=1.0)
    series = synth.generate_series(cfg)
    p1 = tmp_path / "wfs.csv"
    estimation.write_wfs_log(series, 0.41, p1)
    loaded, d_rx = estimation.load_wfs_log(p1)
    assert d_rx == 0.41
    assert np.array_equal(loaded.timestamps, series.timestamps)
    assert np.array_equal(loaded.coefficients, series.coefficients)
    assert np.array_equal(loaded.valid_mask, series.valid_mask)
    assert loaded.wavelength_tag == series.wavelength_tag
    p2 = tmp_path / "wfs2.csv"
    estimation.write_wfs_log(loaded, d_rx, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # A "+1" flag sends the rows through the per-line pass, which skips a blank line.
    lines = p1.read_text().splitlines(keepends=True)
    t_s, _, cells = lines[3].split(",", 2)
    lines[3] = f"{t_s},+1,{cells}"
    plus, blank = tmp_path / "plus.csv", tmp_path / "blank.csv"
    plus.write_text("".join(lines))
    blank.write_text("".join([*lines[:4], "\n", *lines[4:]]))
    assert _outcome(estimation.load_wfs_log, blank) == _outcome(estimation.load_wfs_log, plus)


def test_wfs_log_invalid_rows_masked(tmp_path):
    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1)
    mask = series.valid_mask.copy()
    mask[3] = False
    from skylink.zernike import ZernikeSeries

    masked = ZernikeSeries(series.timestamps, series.coefficients, mask, series.wavelength_tag)
    p = tmp_path / "wfs.csv"
    estimation.write_wfs_log(masked, 0.41, p)
    loaded, _ = estimation.load_wfs_log(p)
    assert not loaded.valid_mask[3]
    assert loaded.valid_mask.sum() == mask.sum()


def test_wfs_log_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("no header\n")
    with pytest.raises(ValueError, match=":1"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n0.01,2,0.2\n")
    with pytest.raises(ValueError, match=":4"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1,9.9\n")
    with pytest.raises(ValueError, match="fields"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06\nt_s,valid,b1\n0.0,1,0.1\n")
    with pytest.raises(ValueError, match="d_rx_m"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n")
    with pytest.raises(ValueError, match="no data"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n\n0.01,1,nan\n")
    with pytest.raises(ValueError, match=r":5: non-finite"):
        estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=inf\nt_s,valid,b1\n0.0,1,0.1\n")
    with pytest.raises(ValueError, match=":1: non-finite"):
        estimation.load_wfs_log(p)
    for token in ("d_rx_m=0", "d_rx_m=-0.41"):
        p.write_text(f"# wavelength_m=1.5e-06 {token}\nt_s,valid,b1\n0.0,1,0.1\n")
        with pytest.raises(ValueError, match=f":1: non-positive header value '{token}'"):
            estimation.load_wfs_log(p)
    p.write_text("# wavelength_m=-1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n")
    with pytest.raises(ValueError, match=":1: non-positive header value 'wavelength_m=-1.5e-06'"):
        estimation.load_wfs_log(p)


_WFS_HEADER = "# wavelength_m=1.5e-06 d_rx_m=0.41\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty WFS log"),
        ("# wavelength_m=1.5e-06 d_rx_m\nt_s,valid,b1\n0.0,1,0.1\n",
         "{path}:1: bad header token 'd_rx_m'"),
        ("# wavelength_m=1.5um d_rx_m=0.41\nt_s,valid,b1\n0.0,1,0.1\n",
         "{path}:1: bad header value 'wavelength_m=1.5um'"),
        (_WFS_HEADER, "{path}: missing column header"),
        (_WFS_HEADER + "t,valid,b1\n0.0,1,0.1\n", "{path}:2: bad column header 't,valid,b1'"),
        (_WFS_HEADER + "t_s,valid\n0.0,1\n", "{path}:2: bad column header 't_s,valid'"),
        (_WFS_HEADER + "t_s,valid,b1,b3\n0.0,1,0.1,0.2\n", "{path}:2: bad coefficient columns"),
    ],
    ids=["empty", "header token", "header value", "no columns", "column header", "no modes",
         "coefficient columns"],
)
def test_wfs_log_header_errors_name_the_file_and_line(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        estimation.load_wfs_log(p)
    assert str(err.value) == message.format(path=p)


@pytest.mark.parametrize(
    "row, col, value, cell",
    [(3, 1, np.nan, "row 3 mode 2 is nan"), (9, -1, np.inf, "row 9 t_s is inf")],
)
def test_wfs_log_rejects_non_finite_cells_before_writing(tmp_path, row, col, value, cell):
    """The writer refuses what load_wfs_log would reject, and leaves no file."""
    from skylink.zernike import ZernikeSeries

    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1)
    t, b = series.timestamps.copy(), series.coefficients.copy()
    if col < 0:
        t[row] = value  # the last timestamp, so the times still increase
    else:
        b[row, col] = value
    bad = ZernikeSeries(t, b, series.valid_mask, series.wavelength_tag)
    p = tmp_path / "wfs.csv"
    with pytest.raises(ValueError, match=cell):
        estimation.write_wfs_log(bad, 0.41, p)
    assert not p.exists()


def test_wfs_log_header_takes_numpy_scalars(tmp_path):
    wavelength = np.float64(1.5e-6)
    series = series_with_exact_variances({1: 0.1, 2: 0.05}, n=10, seed=1, wavelength=wavelength)
    p = tmp_path / "wfs.csv"
    estimation.write_wfs_log(series, np.float64(0.4), p)
    assert p.read_text().startswith("# wavelength_m=1.5e-06 d_rx_m=0.4\n")
    loaded, d_rx = estimation.load_wfs_log(p)
    assert (d_rx, loaded.wavelength_tag) == (0.4, 1.5e-6)


@pytest.mark.parametrize("flag", ["1", "+1"])  # "+1" takes the per-line path
def test_wfs_log_loads_times_a_float_range_apart(tmp_path, flag):
    """Increasing times whose difference overflows a float still load."""
    p = tmp_path / "wfs.csv"
    p.write_text(
        "# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1,b2,b3\n"
        f"-1e308,{flag},0.1,0.2,0.3\n1e308,1,0.4,0.5,0.6\n"
    )
    loaded, _ = estimation.load_wfs_log(p)
    assert loaded.timestamps.tolist() == [-1e308, 1e308]
    assert loaded.coefficients.shape == (2, 3)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.0,1,0.1\n0.01,1,0.2\n\n0.02,0,nan\n", ":6: non-finite value (nan or inf)"),
        ("0.0,1,0.1\n0.01,1,0.2\n0.01,1,0.3\n", ": timestamps not strictly increasing"),
    ],
    ids=["nan cell", "repeated time"],
)
def test_wfs_log_checks_numpy_read_rows_on_arrays(tmp_path, monkeypatch, rows, message):
    """A nan cell or an out-of-order time in rows numpy reads is decided on its arrays."""

    def per_line_pass(*args):
        raise AssertionError("the per-line pass ran")

    monkeypatch.setattr(estimation, "_parse_lines", per_line_pass)
    p = tmp_path / "wfs.csv"
    p.write_text("# wavelength_m=1.5e-06 d_rx_m=0.41\nt_s,valid,b1\n" + rows)
    with pytest.raises(ValueError) as exc:
        estimation.load_wfs_log(p)
    assert str(exc.value) == f"{p}{message}"


# --- load_wfs_log and write_wfs_log against their per-line references ---


def _reference_write_wfs_log(series, d_rx, path):
    """The per-cell writer whose bytes write_wfs_log must reproduce."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# wavelength_m={series.wavelength_tag!r} d_rx_m={d_rx!r}\n")
        fh.write("t_s,valid," + ",".join(f"b{j}" for j in range(1, series.j_max + 1)) + "\n")
        for i in range(series.n_samples):
            valid = 1 if series.valid_mask[i] else 0
            coeffs = ",".join(repr(float(v)) for v in series.coefficients[i])
            fh.write(f"{float(series.timestamps[i])!r},{valid},{coeffs}\n")


def _reference_load_wfs_log(path):
    """The per-line loader whose arrays and error messages load_wfs_log must reproduce."""
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
    series = ZernikeSeries(t, b, np.array(valid), meta["wavelength_m"])
    return series, meta["d_rx_m"]


def _bits(array):
    return array.dtype.str, array.shape, array.tobytes()


def _outcome(load, path):
    """What a loader makes of a file: its arrays bit for bit, or its ValueError text."""
    try:
        series, d_rx = load(path)
    except ValueError as exc:
        return str(exc)
    arrays = (series.timestamps, series.coefficients, series.valid_mask)
    return [_bits(a) for a in arrays], series.wavelength_tag, d_rx


def _assert_load_matches_the_reference(path):
    assert _outcome(estimation.load_wfs_log, path) == _outcome(_reference_load_wfs_log, path)


@st.composite
def _series(draw):
    """n 1-50 samples of J 1-8 finite modes, some rows masked."""
    n, j_max = draw(st.integers(1, 50)), draw(st.integers(1, 8))
    times = draw(st.lists(st.floats(-1e9, 1e9), min_size=n, max_size=n, unique=True))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    coeffs = draw(st.lists(cells, min_size=n * j_max, max_size=n * j_max))
    masked = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return ZernikeSeries(np.array(sorted(times)), np.reshape(coeffs, (n, j_max)), ~masked, 1.555e-6)


# Cell text a data row may hold instead of the writer's; the loader's per-line
# path must accept "1_0" and a non-ASCII digit (float() and int() do, numpy's
# parser does not) and name the line of every other.
_CELL_EDITS = {
    "flag 1.0": (1, "1.0"),
    "flag space": (1, " 1"),
    "flag plus": (1, "+1"),
    "flag 2": (1, "2"),
    "hash": (None, "0.5#1"),
    "nan": (None, "nan"),
    "inf": (None, "inf"),
    "underscore": (None, "1_0"),
    "non-ASCII digit": (None, "\u0661"),  # ARABIC-INDIC DIGIT ONE
    "no-break space": (None, "\xa00.5"),
    "unit separator": (None, "\x1f0.5"),  # whitespace to numpy, not to float()
}
_LINE_EDITS = (
    "none",
    "blank line",
    "whitespace line",
    "CRLF",
    "ragged",
    "trailing comma",
    "every row short",
    "repeat time",
    "decrease time",
)


def _mutate(text: str, edit: str, row: int, col: int) -> str:
    lines = text.splitlines()
    i = 2 + row
    cells = lines[i].split(",")
    prev = lines[i - 1].split(",")[0] if row else cells[0]
    if edit in _CELL_EDITS:
        where, token = _CELL_EDITS[edit]
        cells[col if where is None else where] = token
        lines[i] = ",".join(cells)
    elif edit == "blank line":
        lines.insert(i, "")
    elif edit == "whitespace line":
        lines.insert(i, " \t")
    elif edit == "CRLF":
        return "\r\n".join(lines) + "\r\n"
    elif edit == "ragged":
        lines[i] = ",".join(cells[:-1])
    elif edit == "trailing comma":
        lines[i] += ","
    elif edit == "every row short":  # one field fewer than the column header
        lines[2:] = [line.rpartition(",")[0] for line in lines[2:]]
    elif edit == "repeat time":
        lines[i] = ",".join([prev, *cells[1:]])
    elif edit == "decrease time":
        lines[i] = ",".join([repr(float(prev) - 1.0), *cells[1:]])
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(series=_series(), edit=st.sampled_from([*_LINE_EDITS, *_CELL_EDITS]), data=st.data())
def test_wfs_log_reader_matches_the_per_line_reference(series, edit, data):
    row = data.draw(st.integers(0, series.n_samples - 1))
    col = data.draw(st.integers(0, series.j_max + 1))
    with tempfile.TemporaryDirectory() as tmp:
        written, reference = Path(tmp, "wfs.csv"), Path(tmp, "ref.csv")
        estimation.write_wfs_log(series, 0.41, written)
        _reference_write_wfs_log(series, 0.41, reference)
        assert written.read_bytes() == reference.read_bytes()
        _assert_load_matches_the_reference(written)
        mutated = Path(tmp, "mutated.csv")
        mutated.write_bytes(_mutate(written.read_text(), edit, row, col).encode())
        _assert_load_matches_the_reference(mutated)


def test_wfs_log_field_size_matches_the_reference(tmp_path):
    cfg = synth.SynthConfig(r0=0.08, j_max=35, n_samples=10000, seed=5, wind_speed=0.5)
    series = synth.generate_series(cfg)
    ours, reference = tmp_path / "wfs.csv", tmp_path / "ref.csv"
    estimation.write_wfs_log(series, 0.41, ours)
    _reference_write_wfs_log(series, 0.41, reference)
    assert ours.read_bytes() == reference.read_bytes()
    _assert_load_matches_the_reference(ours)
    arrays = _outcome(estimation.load_wfs_log, ours)[0]
    assert arrays[:2] == [_bits(series.timestamps), _bits(series.coefficients)]
