"""The benchmark's checks reject wrong outputs and the ledger counts them.

Run: python -m pytest bench/test_checks.py
"""

import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from checks import CheckError, Ledger  # noqa: E402

from skylink import (  # noqa: E402
    LinkGeometry,
    OpticalPath,
    ReceiverChain,
    TurbulenceState,
    full_budget,
    model_smf_breakdown,
)

LINK = dict(r0=0.0875, a_coeff=0.2, path_m=18e3, wavelength=1.555e-6, w0=0.025)


def real_budget() -> dict:
    path = OpticalPath(LINK["wavelength"], LINK["path_m"])
    geom = LinkGeometry(path, ReceiverChain(), w0=LINK["w0"])
    ts = TurbulenceState.from_r0(LINK["r0"], path, 0.556)
    smf = model_smf_breakdown(geom.chain, ts, path)
    return asdict(full_budget(geom, ts, LINK["a_coeff"], smf)), asdict(smf)


def failed_as_operation(fn, *args) -> Ledger:
    ledger = Ledger()
    assert ledger.run("op", fn, *args) is None
    return ledger


def test_real_outputs_pass():
    budget, smf = real_budget()
    checks.budget(budget, **LINK)
    checks.smf_product(smf)


@pytest.mark.parametrize("key", ["eta_ch", "eta_focus", "eta_a", "w_l"])
def test_broken_budget_identity_fails_the_operation(key):
    budget, _ = real_budget()
    budget[key] *= 1 + 1e-9
    ledger = failed_as_operation(lambda: checks.budget(budget, **LINK))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (1, 1, False)


def test_broken_smf_product_fails():
    _, smf = real_budget()
    smf["eta_smf"] = smf["eta0"] * smf["eta_s"] * smf["eta_ao"] * 1.001
    ledger = failed_as_operation(checks.smf_product, smf)
    assert ledger.failed == 1 and not ledger.correct


def test_non_monotone_skr_curve_fails():
    good = [0.0, 0.0, 3.4, 25.0, 54.4, 93.4]
    checks.skr_curve("skr", good)
    bad = [0.0, 0.0, 3.4, 25.0, 24.9, 93.4]
    ledger = failed_as_operation(checks.skr_curve, "skr", bad)
    assert ledger.failed == 1 and not ledger.correct
    with pytest.raises(CheckError, match="clamp-to-zero edge"):
        checks.skr_curve("skr", good[2:])


def test_corrupted_round_trip_fails():
    made = np.random.default_rng(0).standard_normal((50, 35))
    loaded = made.copy()
    checks.bit_identical("coefficients", loaded, made)
    loaded[5, 7] = np.nextafter(loaded[5, 7], np.inf)
    ledger = failed_as_operation(checks.bit_identical, "coefficients", loaded, made)
    assert ledger.failed == 1 and not ledger.correct


def test_eta_phi_on_recomputed_from_columns():
    coeffs = np.random.default_rng(1).normal(0.0, 0.3, (1000, 35))
    want = checks.eta_phi_on(coeffs, 35)
    var = np.var(coeffs, axis=0, ddof=1)
    assert math.isclose(want, math.exp(-0.5 * sum(math.log1p(2 * v) for v in var)), rel_tol=1e-12)
    with pytest.raises(CheckError):
        checks.close("eta_phi_on", want * (1 + 1e-6), want)


def test_beta_below_dense_grid_fails():
    alpha = 0.41
    best = float(checks.eta0_grid(alpha, np.linspace(1e-3, 10.0, 5001)).max())
    checks.beta_optimum(alpha, best)
    with pytest.raises(CheckError):
        checks.beta_optimum(alpha, best * (1 - 1e-6))


def test_budget_grid_direction_per_axis():
    r0 = np.linspace(0.03, 0.15, 5)[:, None, None]
    wind = np.linspace(0.3, 1.2, 4)[None, :, None]
    J = np.array([3, 10, 35])[None, None, :]
    eta = r0 * (1 + 0 * J) / (1 + wind) * (1 - 1 / (J + 1))
    checks.budget_grid(eta)
    with pytest.raises(CheckError):
        checks.budget_grid(eta[:, ::-1, :])  # now increasing in wind


def test_fried_fit_band():
    checks.fried_fit(0.0875 * 1.04, 0.0875, 1.03)
    with pytest.raises(CheckError):
        checks.fried_fit(0.0875 * 1.06, 0.0875)
    with pytest.raises(CheckError):
        checks.fried_fit(0.0875, 0.0875, 1.08)


def test_program_error_is_failed_but_not_incorrect():
    def raises():
        raise ValueError("domain error")

    ledger = failed_as_operation(raises)
    assert (ledger.failed, ledger.correct, len(ledger.errors)) == (1, True, 1)
