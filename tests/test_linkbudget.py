import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylink.atmosphere import OpticalPath, TurbulenceState, scintillation_report
from skylink.coupling import ReceiverChain
from skylink.linkbudget import (
    LinkGeometry,
    full_budget,
    model_smf_breakdown,
    sweep_budget,
    sweep_columns,
)
from skylink.units import to_db


def _budget(geom, r0, a_coeff=0.2):
    """The modelled budget report at r0 on geom's path."""
    ts = TurbulenceState.from_r0(r0, geom.path)
    return full_budget(geom, ts, a_coeff, model_smf_breakdown(geom.chain, ts, geom.path))


def test_rayleigh_range(geom):
    assert geom.rayleigh_range == math.pi * 0.025 * 0.025 / 1.555e-6
    assert "rayleigh_range" in vars(geom) and not hasattr(LinkGeometry, "rayleigh_range")
    assert geom.rayleigh_range == pytest.approx(1.26e3, rel=0.05)


def test_beam_divergence_quadrature(geom):
    rep = _budget(geom, 0.15)
    lam = geom.path.wavelength
    assert rep.theta0 == pytest.approx(lam / (math.pi * 0.025), rel=1e-12)
    assert rep.theta_turb == pytest.approx(lam / (math.pi * (0.15 / 2.1)), rel=1e-12)
    assert rep.theta == pytest.approx(math.hypot(rep.theta0, rep.theta_turb), rel=1e-12)
    assert rep.w_l == rep.theta * geom.path.path_length


def test_stronger_turbulence_spreads_beam(geom):
    weak, strong = _budget(geom, 0.15), _budget(geom, 0.03)
    assert strong.theta > weak.theta
    assert strong.w_l > weak.w_l


def test_received_waist_band(geom):
    """Design discussion: W_L spans roughly 0.4 m to 1 m over the r0 band."""
    assert _budget(geom, 0.15).w_l == pytest.approx(0.38, rel=0.10)
    assert 0.6 < _budget(geom, 0.03).w_l < 1.1


def test_absorption_efficiency(geom):
    # dB/km times km must come back out exactly in dB
    assert to_db(_budget(geom, 0.15, 0.2).eta_a) == pytest.approx(-3.6, abs=1e-12)
    assert _budget(geom, 0.15, 0.0).eta_a == 1.0
    with pytest.raises(ValueError, match="a_coeff_db_km must be finite and >= 0"):
        _budget(geom, 0.15, -0.1)


def test_collection_efficiency_formula(geom, chain):
    w_l = _budget(geom, 0.15).w_l
    expected = chain.eta_tel * (
        math.exp(-(0.168**2) / (2 * w_l**2)) - math.exp(-(0.41**2) / (2 * w_l**2))
    )
    assert _budget(geom, 0.15).eta_coll == pytest.approx(expected, rel=1e-12)


def test_collection_reference_points(geom, path):
    assert to_db(_budget(geom, 0.15).eta_coll) == pytest.approx(-6.0, abs=0.5)
    # the r0 whose received radius is W_L = 1 m
    theta_turb = math.sqrt((1.0 / path.path_length) ** 2 - _budget(geom, 0.15).theta0**2)
    one_metre = _budget(geom, 2.1 * path.wavelength / (math.pi * theta_turb))
    assert one_metre.w_l == pytest.approx(1.0, rel=1e-12)
    assert to_db(one_metre.eta_coll) == pytest.approx(-13.2, abs=0.5)


def test_model_breakdown_design_route(geom, path, chain):
    ts = TurbulenceState.from_r0(0.0875, path, 0.556)
    smf = model_smf_breakdown(chain, ts, path)
    assert smf.eta_phi_on == 1.0
    assert smf.eta_smf == pytest.approx(
        smf.eta0 * smf.eta_s * smf.eta_phi_residual * smf.eta_tau, rel=1e-12
    )


def test_full_budget_identity(geom, path, chain):
    ts = TurbulenceState.from_r0(0.0875, path, 0.556)
    smf = model_smf_breakdown(chain, ts, path)
    rep = full_budget(geom, ts, 0.2, smf)
    assert rep.eta_focus == pytest.approx(rep.eta_a * rep.eta_coll, rel=1e-12)
    assert rep.eta_ch == pytest.approx(
        rep.eta_focus * rep.eta_optics * rep.eta_smf * rep.eta_fiber, rel=1e-12
    )
    table = rep.db_table()
    parts = table["eta_focus"] + table["eta_optics"] + table["eta_smf"] + table["eta_fiber"]
    assert table["eta_ch"] == pytest.approx(parts, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(r0=st.floats(0.03, 0.15), a=st.floats(0.1, 0.3), wind=st.floats(0.0, 5.0))
def test_budget_identity_randomized(r0, a, wind):
    from skylink.atmosphere import OpticalPath
    from skylink.coupling import ReceiverChain

    path = OpticalPath(1.555e-6, 18e3)
    chain = ReceiverChain()
    geom = LinkGeometry(path, chain)
    ts = TurbulenceState.from_r0(r0, path, wind)
    smf = model_smf_breakdown(chain, ts, path)
    rep = full_budget(geom, ts, a, smf)
    assert rep.eta_ch == pytest.approx(
        rep.eta_a * rep.eta_coll * rep.eta_optics * rep.eta_smf * rep.eta_fiber, rel=1e-12
    )
    for name in ("eta_a", "eta_coll", "eta_focus", "eta_optics", "eta_smf", "eta_fiber", "eta_ch"):
        v = getattr(rep, name)
        assert 0 < v <= 1


def test_sweep_budget_rows(geom):
    rows = sweep_budget(geom, [0.03, 0.09, 0.15], wind_speed=0.556, a_coeff_db_km=0.2)
    assert [r["r0_m"] for r in rows] == [0.03, 0.09, 0.15]
    for row in rows:
        assert row["eta_ch"] == pytest.approx(
            row["eta_a"] * row["eta_coll"] * row["eta_smf"]
            * geom.chain.eta_optics * geom.chain.eta_fiber,
            rel=1e-12,
        )
    # weaker turbulence, better channel
    assert rows[2]["eta_ch"] > rows[0]["eta_ch"]


def _scalar_row(geom, r0, wind, a, J):
    """One sweep row from the scalar path: model_smf_breakdown then full_budget."""
    ts = TurbulenceState.from_r0(r0, geom.path, wind)
    smf = model_smf_breakdown(geom.chain, ts, geom.path, J)
    rep = full_budget(geom, ts, a, smf)
    return {
        "r0_m": r0,
        "w_l_m": rep.w_l,
        "eta_a": rep.eta_a,
        "eta_coll": rep.eta_coll,
        "eta_focus": rep.eta_focus,
        "eta0": smf.eta0,
        "eta_s": smf.eta_s,
        "eta_phi_residual": smf.eta_phi_residual,
        "eta_tau": smf.eta_tau,
        "eta_smf": smf.eta_smf,
        "eta_ch": rep.eta_ch,
    }


def _assert_rows_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for key, value in w.items():
            assert g[key] == pytest.approx(value, rel=1e-12, abs=0), key


GEOM = LinkGeometry(OpticalPath(1.555e-6, 18e3), ReceiverChain())
_NAMES = ("r0", "wind", "a", "J")  # _scalar_row's argument order
_points = st.lists(
    st.tuples(
        st.floats(0.02, 0.2), st.floats(0.0, 5.0), st.floats(0.0, 0.5), st.integers(1, 100)
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(points=_points)
def test_sweep_array_path_matches_scalar_path(points):
    r0, wind, a, J = (np.array(col) for col in zip(*points))
    got = sweep_budget(GEOM, r0, wind, a, J)
    _assert_rows_close(got, [_scalar_row(GEOM, *p) for p in points])
    assert all(type(v) is float for row in got for v in row.values())


@settings(max_examples=40, deadline=None)
@given(points=_points, which=st.sampled_from(_NAMES))
def test_sweep_mixed_scalar_and_array_arguments(points, which):
    first = dict(zip(_NAMES, points[0]))
    swept = [dict(zip(_NAMES, p))[which] for p in points]
    got = sweep_budget(GEOM, *{**first, which: swept}.values())
    _assert_rows_close(got, [_scalar_row(GEOM, *{**first, which: v}.values()) for v in swept])


@settings(max_examples=40, deadline=None)
@given(
    points=_points,
    at=st.integers(0, 19),
    bad=st.sampled_from(
        [
            ("r0", float("nan")), ("r0", 1e-300), ("J", 0), ("wind", -0.5), ("a", float("inf")),
            ("a", 1e3),  # eta_a underflows to 0
            ("r0", 1e-80), ("wind", 1e300),  # an overflowed power in eta_s, in eta_tau
            ("r0", 1e-4), ("wind", 1e5),  # eta_phi_residual, eta_tau underflow to 0
        ]
    ),
)
def test_sweep_bad_point_raises_the_scalar_error(points, at, bad):
    at %= len(points)
    cols = {name: [p[k] for p in points] for k, name in enumerate(_NAMES)}
    cols[bad[0]][at] = bad[1]
    with pytest.raises(ValueError) as scalar:
        _scalar_row(GEOM, *(col[at] for col in cols.values()))
    for sweep in (sweep_budget, sweep_columns):
        with pytest.raises(ValueError) as array:
            sweep(GEOM, *(np.array(col) for col in cols.values()))
        assert str(array.value) == f"{scalar.value} (sweep point {at})"


@pytest.mark.parametrize(
    "at, value, message",
    [
        (0, [0.05, None], "r0 must be finite and positive, got nan (sweep point 1)"),
        (1, [0.5, None], "wind_speed must be finite and >= 0, got nan (sweep point 1)"),
        (2, [0.2, None], "a_coeff_db_km must be finite and >= 0, got nan (sweep point 1)"),
        (3, [35, None], "J must be an integer >= 1, got nan (sweep point 1)"),
        (3, [0, None], "J must be an integer >= 1, got 0 (sweep point 0)"),
        (3, [np.int64(0), None], "J must be an integer >= 1, got 0 (sweep point 0)"),
        (0, [np.float32(-0.05), None], "r0 must be finite and positive, got -0.05 (sweep point 0)"),
        (0, np.float32(-0.05), "r0 must be finite and positive, got -0.05 (sweep point 0)"),
        (
            0, np.array([0.05, -0.05], dtype=np.float32),
            "r0 must be finite and positive, got -0.05 (sweep point 1)",
        ),
        (  # float32 r0**(-5/3) overflows: the scalar path's Cn2 error, not a RuntimeWarning
            0, np.float32(1e-30),
            "r0 must give a finite, positive Cn2, got 1.0000000031710769e-30 (Cn2 = inf) "
            "(sweep point 0)",
        ),
    ],
    ids=[
        *_NAMES, "J-bad-before-None", "J-int64-bad-before-None", "r0-float32-bad-before-None",
        "r0-float32-scalar", "r0-float32-array", "r0-float32-overflow",
    ],
)
def test_sweep_none_in_a_list_raises_a_value_error_naming_the_point(at, value, message):
    """None in a list input reaches the scalar path as nan, and a bad number as the
    number numpy holds, numpy scalars included (J = 0, not 0.0; a float32 r0 = -0.05,
    alone, in an array or before None, not -0.05000000074505806); the point is named."""
    args = [0.05, 0.5, 0.2, 35]
    args[at] = value
    with pytest.raises(ValueError) as exc:
        sweep_columns(GEOM, *args)
    assert str(exc.value) == message


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_wide_points = st.lists(
    st.tuples(
        _log_uniform(1e-5, 10.0),
        st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)),
        st.one_of(st.just(0.0), _log_uniform(1e-3, 3000.0)),
        _log_uniform(1, 1e4).map(round),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(points=_wide_points)
def test_sweep_raises_exactly_where_the_scalar_path_raises(points):
    """Far past the link's range the sweep's mask, its inputs and eta_ch > 0, accepts
    just the points the scalar path accepts, and names the first one it rejects."""
    want = None
    for i, point in enumerate(points):
        try:
            _scalar_row(GEOM, *point)
        except ValueError as exc:
            want = f"{exc} (sweep point {i})"
            break
    cols = [np.array(col) for col in zip(*points)]
    if want is None:
        eta_ch = sweep_columns(GEOM, *cols)["eta_ch"]
        assert ((eta_ch > 0) & (eta_ch <= 1)).all()
    else:
        with pytest.raises(ValueError) as got:
            sweep_columns(GEOM, *cols)
        assert str(got.value) == want


_REFERENCE_KEYS = ("r0_m", "w_l_m", "eta_a", "eta_coll", "eta_focus", "eta0", "eta_s",
                   "eta_phi_residual", "eta_tau", "eta_smf", "eta_ch")


def _reference_sweep_budget(geom, r0_values, wind_speed, a_coeff_db_km, J=None):
    """sweep_budget as it was before the columnar split: rows by dict(zip(...))."""
    from skylink.atmosphere import _cn2_from_r0
    from skylink.coupling import _smf_products
    from skylink.linkbudget import _budget_terms, _smf_factors

    chain, path = geom.chain, geom.path
    inputs = (r0_values, wind_speed, a_coeff_db_km, chain.ao_modes if J is None else J)
    raw = np.broadcast_arrays(*(np.atleast_1d(x) for x in inputs))
    r0, wind, a_coeff, modes = (x.astype(float) for x in raw)
    cn2 = _cn2_from_r0(r0, path)
    factors = _smf_factors(np, chain, path, r0, cn2, wind, modes)
    eta_smf = _smf_products(*factors)[1]
    _, _, _, w_l, eta_a, eta_coll, eta_focus, _, _, _, eta_ch = _budget_terms(
        np, geom, r0, a_coeff, eta_smf
    )
    e0, e_s, _, e_phi_j, e_tau = factors
    columns = (r0, w_l, eta_a, eta_coll, eta_focus, e0, e_s, e_phi_j, e_tau, eta_smf, eta_ch)
    values = [np.broadcast_to(c, r0.shape).tolist() for c in columns]
    return [dict(zip(_REFERENCE_KEYS, row)) for row in zip(*values)]


def _bits(rows):
    """Rows as (key, float.hex) pairs: equal only if keys, order, types and bits all match."""
    return [[(k, v.hex()) for k, v in row.items()] for row in rows]


@settings(max_examples=80, deadline=None)
@given(points=_points, kinds=st.tuples(*[st.sampled_from(["scalar", "list", "array"])] * 4))
def test_sweep_rows_match_the_reference_row_builder_bit_for_bit(points, kinds):
    cols = [[p[k] for p in points] for k in range(4)]
    args = [
        col[0] if kind == "scalar" else col if kind == "list" else np.array(col)
        for col, kind in zip(cols, kinds)
    ]
    assert _bits(sweep_budget(GEOM, *args)) == _bits(_reference_sweep_budget(GEOM, *args))


def test_sweep_rows_and_columns_share_their_keys_in_order(geom):
    cols = sweep_columns(geom, [0.03, 0.09], 0.556, 0.2)
    rows = sweep_budget(geom, [0.03, 0.09], 0.556, 0.2)
    assert list(cols) == list(_REFERENCE_KEYS)
    assert all(list(row) == list(_REFERENCE_KEYS) for row in rows)
    assert rows == [{k: c[i] for k, c in cols.items()} for i in range(2)]


def test_sweep_columns_shapes(geom):
    for args, n in (
        (([0.03, 0.09, 0.15], 0.556, 0.2), 3),
        ((0.09, [0.0, 1.0], [0.1, 0.2], np.array([10, 35])), 2),
        (([], 0.5, 0.2), 0),
        ((np.array([]), [], 0.2, []), 0),
        ((0.09, 0.556, 0.2, 35), 1),
        ((0.09, 0.556, 0.2), 1),
    ):
        for key, col in sweep_columns(geom, *args).items():
            assert isinstance(col, np.ndarray), key
            assert (col.dtype, col.shape) == (np.float64, (n,)), key
    one = sweep_columns(geom, 0.09, 0.556, 0.2, 35)
    want = [_scalar_row(geom, 0.09, 0.556, 0.2, 35)]
    _assert_rows_close([{k: c[0] for k, c in one.items()}], want)
    with pytest.raises(ValueError, match="1-D"):
        sweep_columns(geom, [[0.05, 0.09]], 0.5, 0.2)


def test_sweep_budget_shapes(geom):
    assert sweep_budget(geom, [], 0.5, 0.2) == []
    assert sweep_budget(geom, np.array([]), [], 0.2, []) == []
    one = sweep_budget(geom, 0.09, 0.556, 0.2, 35)
    assert len(one) == 1
    _assert_rows_close(one, [_scalar_row(geom, 0.09, 0.556, 0.2, 35)])
    with pytest.raises(ValueError):
        sweep_budget(geom, [0.05, 0.09], 0.5, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="1-D"):
        sweep_budget(geom, [[0.05, 0.09]], 0.5, 0.2)
    with pytest.raises(ValueError, match=r"J must be an integer >= 1, got 12.5 \(sweep point 1\)"):
        sweep_budget(geom, 0.09, 0.5, 0.2, [12.0, 12.5])
    with pytest.raises(ValueError, match=r"^r0 must give a finite, positive Cn2, got 1e-300 .*\(sweep point 1\)$"):
        sweep_budget(geom, [0.1, 1e-300], 0.5, 0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_name_the_input(path, chain, bad):
    with pytest.raises(ValueError, match="w0 must be finite"):
        LinkGeometry(path, chain, w0=bad)
    for field in ("wavelength", "path_length"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OpticalPath(**{"wavelength": 1.555e-6, "path_length": 18e3, field: bad})
    for field in ("d_rx", "d_obs", "f_eff", "mfd", "f_3db"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ReceiverChain(**{field: bad})
    for field in ("eta_tel", "eta_optics", "eta_fiber"):
        with pytest.raises(ValueError, match=field):
            ReceiverChain(**{field: bad})


def test_a_waist_that_no_r0_can_collect_is_named_as_w0(path, chain):
    with pytest.raises(
        ValueError, match=r"^w0 must give a finite, positive eta_coll, got 1e-150 \(eta_coll = 0\.0\)$"
    ):
        LinkGeometry(path, chain, w0=1e-150)
    ts = TurbulenceState.from_r0(0.09, path, 0.556)
    for w0 in (1e-9, 0.025, 10.0, 1e6):  # far from the default, but some r0 collects
        geom = LinkGeometry(path, chain, w0=w0)
        assert full_budget(geom, ts, 0.2, model_smf_breakdown(chain, ts, path)).eta_coll > 0


_OTHER_PATH = OpticalPath(path_length=1000.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda ts, chain, path: scintillation_report(ts, path, chain.d_rx),
        lambda ts, chain, path: model_smf_breakdown(chain, ts, path),
        lambda ts, chain, path: full_budget(
            LinkGeometry(path, chain), ts, 0.2, model_smf_breakdown(chain, ts, ts.path)
        ),
    ],
    ids=["scintillation_report", "model_smf_breakdown", "full_budget"],
)
def test_a_second_path_must_match_the_turbulence_state(call, chain):
    """The path given beside a TurbulenceState is checked against its own, not mixed in."""
    ts = TurbulenceState.from_r0(0.0875, OpticalPath(), 0.556)
    call(ts, chain, OpticalPath())  # an equal path is accepted
    with pytest.raises(ValueError, match=r"ts\.path OpticalPath\(.*18000\.0\) differs .*1000\.0\)"):
        call(ts, chain, _OTHER_PATH)


def test_numpy_scalar_inputs_run_the_scalar_budget_in_float64():
    path = OpticalPath(1.555e-6, 18e3)
    chain = ReceiverChain()
    geom = LinkGeometry(path, chain)

    def eta_ch(r0, wind):
        ts = TurbulenceState.from_r0(r0, path, wind)
        assert type(ts.fried_r0) is float and type(ts.wind_speed) is float
        return full_budget(geom, ts, 0.0, model_smf_breakdown(chain, ts, path)).eta_ch

    r0 = float(np.float32(0.08))
    assert eta_ch(np.float32(0.08), np.float32(0.556)) == eta_ch(r0, float(np.float32(0.556)))
    assert eta_ch(np.float32(0.08), 0.556) == eta_ch(r0, 0.556) == 0.014533038647076339
