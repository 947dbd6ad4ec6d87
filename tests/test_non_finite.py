"""The domain table: every public callable that takes a number, driven one
numeric argument at a time over extreme values, must reject nan and +-inf with
a ValueError naming that argument, and a finite extreme with that ValueError
or a result whose floats are all finite.  Below it, inputs whose result leaves
the float range, each pinned to the one message form of units._check_result."""

import importlib
import inspect
import math
import numbers
import os
import pkgutil
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import skylink
from skylink import qkd, synth
from skylink.atmosphere import OpticalPath, ScintillationReport, TurbulenceState
from skylink.atmosphere import cn2_from_r0, greenwood_frequency, r0_from_cn2
from skylink.atmosphere import scale_r0_to_wavelength, scintillation_report
from skylink.cli import main
from skylink.coupling import ReceiverChain, SmfCouplingBreakdown, compose_smf, coupling_from_power
from skylink.coupling import eta0, eta_phi_on, mode_match_beta, obscuration_ratio, optimize_beta
from skylink.estimation import FriedFit, fit_fried, load_wfs_log, predict_eta_smf, write_wfs_log
from skylink.linkbudget import BudgetReport, LinkGeometry, full_budget, model_smf_breakdown
from skylink.linkbudget import sweep_budget, sweep_columns
from skylink.units import format_db, from_db, to_db
from skylink.zernike import ModeVarianceSet, ZernikeSeries, empirical_variances, noll_weight
from skylink.zernike import radial_order, residual_variance, turbulence_variance

from conftest import series_with_exact_variances

_PATH = OpticalPath(1.555e-6, 18e3)
_CHAIN = ReceiverChain()
_GEOM = LinkGeometry(_PATH, _CHAIN)
_TURB = TurbulenceState.from_r0(0.0875, _PATH, 0.556)
_SMF = model_smf_breakdown(_CHAIN, _TURB, _PATH)
_SESSION = qkd.QkdSessionModel(qkd.SNSPD)
_VARIANCES = ModeVarianceSet({j: turbulence_variance(j, 0.41, 0.1) for j in range(1, 8)})
_SERIES = ZernikeSeries(np.arange(3.0), np.zeros((3, 4)), np.ones(3, dtype=bool), 1.555e-6)
_OBSERVATION = dict(timestamp=0.0, signal_rate=1e4, noise_rate=1e2, qber_z=0.01, qber_x=0.01)
_AO_ON = synth.generate_series(synth.SynthConfig(r0=0.08, n_samples=50, wind_speed=0.5, ao_on=True))
_FIT = FriedFit(0.08, 0.0, 1.0, 0.0, ("manual",))

_EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e30, 1e100, 1e200, 1e300,
             1.7e308, math.nan, math.inf, -math.inf, -1, 0.5, 1, 1.5]

# The over-unity warnings that coupling_from_power and
# channel_efficiency_from_rate document; any other warning fails a case.
_OVER_UNITY = r"fiber power .* exceeds|measured rate implies channel efficiency"


def _row(func, call=None, names=None, exempt=(), **nominal):
    """One table row: func called as call (func itself unless given) with the
    nominal arguments, defaults included.  names maps an argument to the name
    its messages use (a regex alternation), where that differs; exempt lists
    numeric arguments that are not driven."""
    call = call or func
    bound = inspect.signature(call).bind(**nominal)
    bound.apply_defaults()
    return func, call, bound.arguments, names or {}, exempt


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# One row per public callable that takes a number.
_TABLE = [
    _row(to_db, ratio=0.5),
    _row(format_db, ratio=0.5),
    _row(OpticalPath),
    _row(TurbulenceState, fried_r0=0.0875, wind_speed=0.556, path=_PATH, names={"fried_r0": "r0"}),
    _row(r0_from_cn2, cn2=1.2e-15, path=_PATH),
    _row(cn2_from_r0, r0=0.0875, path=_PATH),
    _row(scintillation_report, ts=_TURB, path=_PATH, d_rx=0.41),
    _row(scale_r0_to_wavelength, r0=0.1, wavelength_from=1.5e-6, wavelength_to=1.6e-6),
    _row(radial_order, j=5),
    _row(noll_weight, j=5),
    _row(turbulence_variance, j=5, d_rx=0.41, r0=0.1),
    _row(residual_variance, J=35, d_rx=0.41, r0=0.1),
    _row(ZernikeSeries, timestamps=_SERIES.timestamps, coefficients=_SERIES.coefficients,
         valid_mask=_SERIES.valid_mask, wavelength_tag=1.555e-6),
    _row(ModeVarianceSet, call=lambda mode_2: ModeVarianceSet({1: 0.1, 2: mode_2, 3: 0.1}),
         mode_2=0.1, names={"mode_2": "mode 2"}),
    _row(ReceiverChain),
    _row(mode_match_beta, chain=_CHAIN, wavelength=1.555e-6),
    _row(eta0, beta=1.1, alpha=0.41),
    _row(optimize_beta, alpha=0.41),
    # J past the modes the set holds is named as the missing mode
    _row(eta_phi_on, variances=ModeVarianceSet({j: 0.01 for j in range(1, 36)}), J=35,
         names={"J": "J|mode"}),
    _row(compose_smf, eta0=0.8, eta_s=0.9, eta_phi_on=0.7, eta_phi_residual=0.9, eta_tau=0.95),
    _row(coupling_from_power, p_in=1e-4, p_focus=1e-3, eta_focus_to_fiber=0.5),
    _row(LinkGeometry, path=_PATH, chain=_CHAIN),
    _row(model_smf_breakdown, chain=_CHAIN, ts=_TURB, path=_PATH, J=35),
    _row(full_budget, geom=_GEOM, ts=_TURB, a_coeff_db_km=0.2, smf=_SMF),
    *[
        _row(sweep, geom=_GEOM, r0_values=0.0875, wind_speed=0.556, a_coeff_db_km=0.2, J=35,
             names={"r0_values": "r0"})
        for sweep in (sweep_columns, sweep_budget)
    ],
    # the CLI's stub FriedFit carries r0 alone and sets the diagnostics to nan
    _row(FriedFit, r0_hat=0.08, r0_sigma=0.0, fit_exponent_check=1.0, residual_rms=0.0,
         modes_used=("manual",), exempt=("r0_sigma", "fit_exponent_check", "residual_rms")),
    _row(write_wfs_log, series=_SERIES, d_rx=0.41, path=os.devnull),
    _row(fit_fried, variances=_VARIANCES, d_rx=0.41),
    _row(predict_eta_smf, ao_on=_AO_ON, fried=_FIT, wind_speed=0.5, chain=_CHAIN, path=_PATH),
    _row(qkd.DetectorModel, efficiency=0.5),
    _row(qkd.QkdSessionModel, detector=qkd.SNSPD, block_size=250000),
    _row(qkd.RateObservation, **_OBSERVATION, skr=1.0),
    _row(qkd.expected_signal_rate, session=_SESSION, eta_ch=1e-3),
    _row(qkd.channel_efficiency_from_rate, session=_SESSION, measured_rate=2e4),
    _row(qkd.calibrate_r_ref, session=_SESSION, measured_rate=2e4, eta_ch=1e-3),
    _row(qkd.windowed_noise_rate, raw_rate=2e3, window=600e-12, pulse_rate=1e8),
    _row(qkd.expected_qber, signal_rate=1e4, noise_rate=1e2),
    _row(qkd.secret_key_rate, session=_SESSION, signal_rate=2e4, qber_z=0.01, qber_x=0.01),
    _row(qkd.key_rate_point, session=_SESSION, eta_ch=1e-3),
    _row(synth.SynthConfig, r0=0.08),
]

# Public callables that take no number of their own, and those left out:
# the output records, and from_db, a presentation helper that maps nan to nan.
_NO_NUMBER = [greenwood_frequency, obscuration_ratio, empirical_variances, load_wfs_log,
              synth.generate_series, qkd.analyze_session_log, qkd.load_session_log,
              qkd.write_session_log, main]
_EXEMPT = [BudgetReport, ScintillationReport, SmfCouplingBreakdown, qkd.KeyRatePoint, from_db]

# (id, call, arguments, argument, the name its messages use)
_CASES = {
    f"{func.__name__}-{arg}": (call, arguments, arg, names.get(arg, arg))
    for func, call, arguments, names, exempt in _TABLE
    for arg, v in arguments.items()
    if _is_number(v) and arg not in exempt
}


def _floats(obj):
    """Every float a result holds: in containers, arrays and object attributes."""
    if _is_number(obj):
        yield float(obj)
    elif isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats(v)
    elif hasattr(obj, "__dict__") and not isinstance(obj, (str, type)):
        yield from _floats(vars(obj))


def _failure(call, arguments, name, value):
    """None if the call raises a ValueError naming name or, for a finite value,
    returns finite floats only."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", _OVER_UNITY, UserWarning)
        try:
            result = call(**arguments)
        except ValueError as exc:
            return None if re.search(rf"\b(?:{name})\b", str(exc)) else f"ValueError: {exc}"
        except Exception as exc:  # a RuntimeWarning among them
            return f"{type(exc).__name__}: {exc}"
    if not math.isfinite(value):
        return f"returned a {type(result).__name__}"
    bad = [x for x in _floats(result) if not math.isfinite(x)]
    return f"returned {bad[0]}" if bad else None


@pytest.mark.parametrize("call, arguments, arg, name", _CASES.values(), ids=_CASES.keys())
def test_public_callable_names_or_stays_finite(call, arguments, arg, name):
    failures = {}
    for value in _EXTREMES:
        failure = _failure(call, {**arguments, arg: value}, name, value)
        if failure is not None:
            failures[value] = failure
    assert failures == {}


def test_every_public_callable_has_one_place_in_the_table():
    """A row, the no-number list or the exemptions; a new public name fails
    here until it has one, and a row drives every argument that takes a number."""
    modules = [importlib.import_module(f"skylink.{m.name}")
               for m in pkgutil.iter_modules(skylink.__path__)]
    public = [getattr(m, name) for m in modules for name in m.__all__]
    placed = [row[0] for row in _TABLE] + _NO_NUMBER + _EXEMPT
    key = lambda f: f"{f.__module__}.{f.__qualname__}"  # noqa: E731
    assert sorted(map(key, placed)) == sorted(key(f) for f in public if callable(f))
    for func, call, arguments, _, exempt in _TABLE:
        annotated = {p.name for p in inspect.signature(call).parameters.values()
                     if re.search(r"\b(?:float|int)\b", str(p.annotation))}
        driven = {arg for arg, v in arguments.items() if _is_number(v)}
        assert annotated <= driven | set(exempt), func.__name__
    for func in _NO_NUMBER:
        assert not any(re.search(r"\b(?:float|int)\b", str(p.annotation)) or _is_number(p.default)
                       for p in inspect.signature(func).parameters.values()), func.__name__


# The nan and ±inf cases as this file numbered them before the table, "<i>-<name>":
# each is the table case named here, kept under its old id.  None stands for
# the deleted ZernikeSeries.to_wavelength.
_NUMBERED = [
    "DetectorModel-noise_rate", "DetectorModel-window", "RateObservation-timestamp",
    "RateObservation-signal_rate", "RateObservation-noise_rate", "RateObservation-qber_z",
    "RateObservation-qber_x", "RateObservation-skr", "QkdSessionModel-block_size",
    "QkdSessionModel-mu1", "QkdSessionModel-r_ref", "channel_efficiency_from_rate-measured_rate",
    "calibrate_r_ref-measured_rate", "calibrate_r_ref-eta_ch", "windowed_noise_rate-raw_rate",
    "windowed_noise_rate-window", "windowed_noise_rate-pulse_rate", "expected_qber-signal_rate",
    "expected_qber-noise_rate", "expected_qber-intrinsic_qber", "to_db-ratio",
    "model_smf_breakdown-J", "ReceiverChain-f_3db", "residual_variance-d_rx",
    "residual_variance-r0", "scale_r0_to_wavelength-r0", "scale_r0_to_wavelength-wavelength_from",
    "scale_r0_to_wavelength-wavelength_to", "scintillation_report-d_rx",
    "mode_match_beta-wavelength", "eta0-beta", "TurbulenceState-fried_r0",
    "full_budget-a_coeff_db_km", "TurbulenceState-wind_speed", "coupling_from_power-p_in",
    "coupling_from_power-p_focus", "coupling_from_power-eta_focus_to_fiber", "SynthConfig-r0",
    "SynthConfig-d_rx", "SynthConfig-sample_rate", "SynthConfig-wind_speed", "SynthConfig-f_3db",
    "SynthConfig-wavelength", "fit_fried-d_rx", "FriedFit-r0_hat", "write_wfs_log-d_rx",
    "ZernikeSeries-wavelength_tag", None, "ModeVarianceSet-mode_2", "radial_order-j",
    "noll_weight-j", "turbulence_variance-j",
]
_NUMBERED_CASES = {f"{i}-{_CASES[case][3]}": _CASES[case]
                   for i, case in enumerate(_NUMBERED) if case is not None}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("call, arguments, arg, name", _NUMBERED_CASES.values(),
                         ids=_NUMBERED_CASES.keys())
def test_rejects_non_finite_input(call, arguments, arg, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(**{**arguments, arg: value})


def _first_key_rate(**fields):
    """The first rate of a session; the session builds and checks its
    finite-key constants when it is built, so a bad field raises there."""
    return qkd.secret_key_rate(qkd.QkdSessionModel(qkd.SNSPD, **fields), 2e4, 0.01, 0.01)


# (id, input name, call, a finite value in range whose result overflows or
# underflows).  Each row's id is its own, so removing a row renames no other:
# rows 0-63 keep the numbers they have always been reported under, and a later
# row is labelled with the callable it drives.
_OUT_OF_RANGE = [
    (0, "signal_rate", lambda v: qkd.secret_key_rate(_SESSION, v, 0.01, 0.01), 5e-324),
    (1, "signal_rate", lambda v: qkd.secret_key_rate(_SESSION, v, 0.01, 0.01), 1e-305),
    (2, "r0", lambda v: TurbulenceState.from_r0(v, _PATH), 5e-324),
    (3, "r0", lambda v: _budget_at(v, 0.556), 1e-315),
    (4, "r_ref", lambda v: qkd.QkdSessionModel(qkd.SPAD, r_ref=v), 5e-324),  # r_ref * 0.11 -> 0
    (5, "r0", lambda v: residual_variance(35, 0.41, v), 1e-300),
    (6, "r0", lambda v: _smf_at(v, 0.556), 1e-300),
    (7, "r0", lambda v: turbulence_variance(2, 0.41, v), 1e-300),
    (8, "wavelength", lambda v: mode_match_beta(_CHAIN, v), 1e-320),
    (9, "r0", lambda v: scale_r0_to_wavelength(v, 1e-9, 1.0), 1e300),
    (10, "r0", lambda v: scale_r0_to_wavelength(v, 1.0, 1e-9), 5e-324),
    (11, "r0", lambda v: turbulence_variance(2, 0.41, v), 1e300),
    (12, "cn2", lambda v: r0_from_cn2(v, _PATH), 1e300),
    (13, "cn2", lambda v: r0_from_cn2(v, _PATH), 5e-324),
    (14, "internal_loss",
     lambda v: qkd.QkdSessionModel(qkd.SNSPD, internal_loss=1e-300, r_ref=v), 1e-30),
    (15, "wavelength", lambda v: OpticalPath(wavelength=v), 1e-320),
    (16, "r0", lambda v: _smf_at(v, 0.556), 1e-5),
    (17, "wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [v], 0.2), 1e5),  # eta_tau underflows
    (18, "wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [0.5, v], 0.2), 107.5),  # in eta_ch
    (19, "a_coeff_db_km", lambda v: sweep_columns(_GEOM, 0.0875, 0.556, v), 1e3),
    (20, "r0", lambda v: sweep_columns(_GEOM, [0.0875, v], 0.556, 0.2), 1e-180),  # eta_coll
    (21, "beta", lambda v: eta0(v, 0.4), 100.0),
    (22, "a_coeff_db_km", lambda v: full_budget(_GEOM, _TURB, v, _SMF), 1e3),
    (23, "r0", lambda v: full_budget(_GEOM, TurbulenceState.from_r0(v, _PATH), 0.2, _SMF), 1e-180),
    (24, "a_coeff_db_km", lambda v: sweep_columns(_GEOM, [0.09, 0.09], 0.5, [0.2, v]), 1e3),
    (25, "w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-200),
    (26, "w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-320),
    (27, "r0", lambda v: cn2_from_r0(v, _PATH), np.float32(1e-30)),  # numpy warns; the rule raises
    (28, "w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-150),  # no r0 gives an eta_coll
    (29, "w0", lambda v: LinkGeometry(_PATH, _CHAIN, w0=v), 1e-20),
    (30, "eps_sec", lambda v: _first_key_rate(eps_sec=v), 1e-300),
    (31, "mu1", lambda v: _first_key_rate(mu1=v), 800.0),
    (32, "eps_sec", lambda v: _first_key_rate(eps_sec=v), 5e-324),
    (33, "mu2", lambda v: _first_key_rate(mu1=1e-300, mu2=v), 5e-324),
    (34, "eps_cor", lambda v: _first_key_rate(eps_cor=v), 1e-320),
    (35, "p_mu1", lambda v: _first_key_rate(p_mu1=v), 1e-320),
    (36, "p_z_alice", lambda v: _first_key_rate(p_z_alice=v), 1e-320),
    (37, "d_rx", lambda v: ReceiverChain(d_rx=v, d_obs=v / 10), 1e200),  # d_rx^2 overflows
    (38, "d_rx", lambda v: ReceiverChain(d_rx=v, d_obs=v / 10), 1e-200),  # d_rx^2 underflows
    (39, "r0", lambda v: _smf_at(v, 0.0), 1e-80),  # eta_phi_residual; eta_s takes the beta0 limit
    (41, "r0", lambda v: sweep_columns(_GEOM, [v], 0.5, 0.2), 1e-80),
    (42, "r0", lambda v: _smf_at(v, 0.556), 1e-4),  # eta_phi_residual
    (43, "r0", lambda v: _smf_at(v, 0.72), 7.8e-4),  # eta_smf
    (44, "r0", lambda v: _budget_at(v, 0.556), 7.97e-4),  # eta_ch
    (45, "wind_speed", lambda v: _smf_at(0.0875, v), 1e300),  # the servo-lag power overflows
    (46, "wind_speed", lambda v: _smf_at(0.0875, v), 1e5),  # eta_tau underflows
    (47, "wind_speed", lambda v: sweep_columns(_GEOM, 0.0875, [v], 0.2), 1e300),
    (48, "wind_speed", lambda v: predict_eta_smf(_AO_ON, _FIT, v, _CHAIN, _PATH), 1e300),
    (49, "sample_rate", lambda v: synth.SynthConfig(r0=0.08, n_samples=3, sample_rate=v), 1e-320),
    (50, "a_coeff_db_km", lambda v: full_budget(_GEOM, _TURB, v, _SMF), 179.0),  # eta_a ~6e-323
    (51, "eta_smf", lambda v: full_budget(_GEOM, _TURB, 0.2, replace(_SMF, eta_smf=v)), 1e-323),
    (52, "wind_speed", lambda v: _smf_at(0.0875, v), 107.53),  # eta_tau, in eta_smf
    (53, "wind_speed", lambda v: _budget_at(0.0875, v), 107.5),  # eta_tau, in eta_ch
    (54, "variance of mode 7", lambda v: eta_phi_on(_variances_1e30(v), 35), 1e31),
    (55, "variance of mode 7", lambda v: predict_eta_smf(
        series_with_exact_variances(_variances_1e30(v), n=64), _FIT, 0.5, _CHAIN, _PATH), 1e31),
    (56, "wind_speed", lambda v: greenwood_frequency(TurbulenceState.from_r0(0.0875, _PATH, v)),
     1.7e308),
    (57, "p_in", lambda v: coupling_from_power(v, 1e-3, 0.5), 1.7e308),
    (58, "p_focus", lambda v: coupling_from_power(1e-4, v, 0.5), 5e-324),
    (59, "eta_focus_to_fiber", lambda v: coupling_from_power(1e-4, 1e-3, v), 5e-324),
    (60, "eta_ch", lambda v: qkd.calibrate_r_ref(_SESSION, 2e4, v), 5e-324),  # r_ref = inf
    (61, "eta_ch", lambda v: qkd.calibrate_r_ref(qkd.QkdSessionModel(qkd.SPAD), 2e4, v), 5e-324),
    (62, "measured_rate", lambda v: qkd.calibrate_r_ref(_SESSION, v, 1e-3), 1.7e308),
    (63, "measured_rate", lambda v: qkd.channel_efficiency_from_rate(_SESSION, v), 5e-324),
    ("full_budget", "r0", lambda v: _budget_at(0.0875, 0.556, OpticalPath(path_length=v)),
     1e-158),
    ("sweep_columns", "r0", lambda v: sweep_columns(
        LinkGeometry(OpticalPath(path_length=v), _CHAIN), 0.0875, 0.556, 0.2), 1e-158),
    *[
        ("scintillation_report", "path_length",
         lambda v: _scintillation_on(OpticalPath(path_length=v)), length)
        for length in (1e-200, 1e-300)  # at 1e-300 the aperture power overflows first
    ],
    ("scintillation_report", "d_rx", lambda v: scintillation_report(_TURB, _PATH, v), 1e160),
    ("fit_fried", "d_rx", lambda v: fit_fried(_VARIANCES, v), 5e-324),
    ("model_smf_breakdown", "f_3db",
     lambda v: model_smf_breakdown(ReceiverChain(f_3db=v), _TURB, _PATH), 1e-3),
    ("model_smf_breakdown", "d_rx",  # eta_phi_residual: d_rx, not r0, is the larger factor
     lambda v: model_smf_breakdown(ReceiverChain(d_rx=v, d_obs=0.168), _TURB, _PATH), 1e30),
    ("calibrate_r_ref", "internal_loss", lambda v: qkd.calibrate_r_ref(
        qkd.QkdSessionModel(qkd.SNSPD, internal_loss=v), 2e4, 1e-30), 1e-300),
    ("noll_weight", "j", noll_weight, 1e200),  # g(j) ~ 1e-367
    ("key_rate_point", "eta_ch", lambda v: qkd.key_rate_point(_SESSION, v), 5e-324),  # block time
    ("key_rate_point", "r_ref",
     lambda v: qkd.key_rate_point(qkd.QkdSessionModel(qkd.SNSPD, r_ref=v), 1e-3), 1e-300),
    # a path field behind Cn2 or r0 is named, not the nominal r0 or Cn2
    ("TurbulenceState", "path_length",
     lambda v: TurbulenceState.from_r0(0.0875, OpticalPath(path_length=v)), 1e300),
    ("TurbulenceState", "wavelength",
     lambda v: TurbulenceState.from_r0(0.0875, OpticalPath(wavelength=v)), 1e-200),
    ("r0_from_cn2", "path_length", lambda v: r0_from_cn2(1.2e-15, OpticalPath(path_length=v)),
     5e-324),
    ("turbulence_variance", "j", lambda v: turbulence_variance(v, 0.41, 0.1), 1e200),
]


def _variances_1e30(variance_of_mode_7):
    """AO-ON variances of 1e30 rad^2 for modes 1-35, mode 7's the largest."""
    return ModeVarianceSet({j: 1e30 for j in range(1, 36)} | {7: variance_of_mode_7})


def _smf_at(r0, wind):
    """The design coupling breakdown at r0 and wind on the default path."""
    return model_smf_breakdown(_CHAIN, TurbulenceState.from_r0(r0, _PATH, wind), _PATH)


def _budget_at(r0, wind, path=_PATH):
    """The design budget at r0 and wind, 0.2 dB/km, on the default chain and waist."""
    ts = TurbulenceState.from_r0(r0, path, wind)
    geom = _GEOM if path is _PATH else LinkGeometry(path, _CHAIN)
    return full_budget(geom, ts, 0.2, model_smf_breakdown(_CHAIN, ts, path))


def _scintillation_on(path, r0=0.0875):
    """The scintillation report of r0 (default 0.0875 m) and the default aperture on path."""
    return scintillation_report(TurbulenceState.from_r0(r0, path), path, 0.41)


@pytest.mark.parametrize(
    "name, call, value",
    [row[1:] for row in _OUT_OF_RANGE],
    ids=[f"{label}-{name}-{value:g}" for label, name, _, value in _OUT_OF_RANGE],
)
def test_rejects_input_whose_result_leaves_the_float_range(name, call, value):
    """Every row raises the one message form of units._check_result."""
    if type(value) is np.float32 and type(value ** -1.0) is not np.float32:
        pytest.skip("numpy before 2.0 takes a float32's power of a Python float in float64")
    form = rf"^{name} must give a finite, positive .+, got .+ \(.+ = .+\)$"
    with pytest.raises(ValueError, match=form):
        call(value)


@pytest.mark.parametrize("r0", [1e-78, 1e-80])
def test_scintillation_report_takes_the_beta0_limit_where_its_powers_overflow(r0):
    """Past r0 ~ 1e-78 a power of beta0 leaves the float range and the report
    takes the beta0 -> inf limit, T1 = 0 and T2 = 0.51/0.69^(5/6): eta_s
    stays the one at 1e-77, the smallest of these r0 computed in full."""
    report, full = (_scintillation_on(_PATH, r) for r in (r0, 1e-77))
    assert (report.T1, report.T2) == (0.0, 0.51 / 0.69 ** (5.0 / 6.0))
    assert report.eta_s == pytest.approx(full.eta_s, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("length", [1e170, 1e200])
def test_scintillation_report_takes_the_beta0_limit_where_its_path_power_overflows(length):
    """Past L ~ 1e168 m the factor L^(11/6) of sigma_R^2 leaves the float range,
    though sigma_R^2 (~ L^(5/6) at a fixed r0) does not: the report takes the
    beta0 -> inf limit, whose eta_s is the one at 1e150 m."""
    report, full = (_scintillation_on(OpticalPath(path_length=L)) for L in (length, 1e150))
    assert (report.T1, report.T2) == (0.0, 0.51 / 0.69 ** (5.0 / 6.0))
    assert report.eta_s == pytest.approx(full.eta_s, rel=1e-15, abs=0.0)


def test_scintillation_report_names_the_largest_factor_of_a_sigma_r2_past_the_float_range():
    """On a 1e295 m path, sigma_R^2 ~ r0^(-5/3) L^(5/6) is in range at r0 = 1e-30,
    where the report takes the beta0 -> inf limit, and overflows at 1e-45, where
    L^(5/6) is its largest factor."""
    path = OpticalPath(path_length=1e295)
    report = _scintillation_on(path, 1e-30)
    assert (report.T1, report.T2) == (0.0, 0.51 / 0.69 ** (5.0 / 6.0))
    assert report.eta_s == _scintillation_on(_PATH, 1e-80).eta_s  # the limit's
    with pytest.raises(ValueError) as exc:
        _scintillation_on(path, 1e-45)
    assert str(exc.value) == (
        "path_length must give a finite, positive sigma_R^2, got 1e+295 (sigma_R^2 = inf)"
    )


@pytest.mark.parametrize("length", [1e170, 1e200])
def test_the_design_coupling_takes_the_reports_beta0_limit_where_its_path_power_overflows(length):
    """model_smf_breakdown reaches eta_s through scintillation_report's code:
    on these paths both take the beta0 -> inf limit rather than naming r0."""
    path = OpticalPath(path_length=length)
    ts = TurbulenceState.from_r0(0.0875, path, 0.556)
    smf, report = model_smf_breakdown(_CHAIN, ts, path), scintillation_report(ts, path, 0.41)
    assert smf.eta_s == report.eta_s == 0.8405480863475615


def test_the_design_coupling_names_the_largest_factor_of_a_sigma_r2_past_the_float_range():
    """On a 1e295 m path at r0 = 1e-45, model_smf_breakdown raises the report's error."""
    path = OpticalPath(path_length=1e295)
    with pytest.raises(ValueError) as exc:
        model_smf_breakdown(_CHAIN, TurbulenceState.from_r0(1e-45, path), path)
    assert str(exc.value) == (
        "path_length must give a finite, positive sigma_R^2, got 1e+295 (sigma_R^2 = inf)"
    )


def test_session_log_names_the_line_of_a_non_finite_field(tmp_path):
    p = tmp_path / "session.csv"
    p.write_text(
        "t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n"
        "0.0,20400.0,2000.0,0.008,0.011,1012.5\n"
        "1.0,20400.0,inf,0.008,0.011,\n"
    )
    with pytest.raises(ValueError, match=r":3: noise_rate must be finite"):
        qkd.load_session_log(p)


def test_session_needs_a_positive_decoy_intensity():
    # mu2 = 0 would divide by zero in the single-photon bound
    with pytest.raises(ValueError, match="mu2"):
        qkd.QkdSessionModel(qkd.SNSPD, mu2=0.0)
