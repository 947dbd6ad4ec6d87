"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line even when
all criteria pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from skylink import estimation, qkd, synth
from skylink.atmosphere import OpticalPath, TurbulenceState, cn2_from_r0, r0_from_cn2, scintillation_report
from skylink.coupling import ReceiverChain, compose_smf, eta0, eta_phi_on, optimize_beta
from skylink.linkbudget import LinkGeometry, full_budget, model_smf_breakdown, sweep_columns
from skylink.units import from_db, to_db
from skylink.zernike import empirical_variances, noll_weight

from conftest import analytic_variances

PATH = OpticalPath(1.555e-6, 18e3)
CHAIN = ReceiverChain()
GEOM = LinkGeometry(PATH, CHAIN)
R0_GRID = np.linspace(0.03, 0.15, 49)


def check(num, label, ok, detail):
    print(f"criterion {num:>3} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def eta_phi_residual(J, r0):
    """The design breakdown's eta_phi_residual for J corrected modes at r0."""
    ts = TurbulenceState.from_r0(r0, PATH)
    return model_smf_breakdown(CHAIN, ts, PATH, J).eta_phi_residual


def budget(r0, a_coeff_db_km=0.2):
    """The modelled budget report at r0."""
    ts = TurbulenceState.from_r0(r0, PATH)
    return full_budget(GEOM, ts, a_coeff_db_km, model_smf_breakdown(CHAIN, ts, PATH))


def test_criterion_01_mode_mismatch():
    fixed = to_db(eta0(1.1, 0.41))
    _, best = optimize_beta(0.41)
    best_db = to_db(best)
    ok = abs(fixed - (-2.7)) <= 0.05 and abs(best_db - (-2.6)) <= 0.05
    check(1, "mode mismatch", ok, f"eta0(1.1,0.41)={fixed:+.3f} dB, optimum={best_db:+.3f} dB")


def test_criterion_02_composition_identity():
    parts_db = (-2.7, -0.5, -2.8, -0.7, -0.5)
    out = compose_smf(*(from_db(d) for d in parts_db))
    total_db = to_db(out.eta_smf)
    ok = abs(total_db - (-7.2)) <= 1e-9
    check(2, "composition identity", ok, f"sum of {parts_db} -> {total_db:+.12f} dB")


def test_criterion_03_aperture_parameter():
    ts = TurbulenceState.from_r0(0.0875, PATH)
    d = scintillation_report(ts, PATH, CHAIN.d_rx).aperture_d
    ok = abs(d - 3.07) <= 0.02
    check(3, "aperture parameter", ok, f"d={d:.4f} (target 3.07 +/- 0.02)")


def test_criterion_04_scintillation_band():
    worst = min(
        to_db(scintillation_report(TurbulenceState.from_r0(float(r0), PATH), PATH, CHAIN.d_rx).eta_s)
        for r0 in R0_GRID
    )
    ok = worst >= -1.0
    check(4, "scintillation band", ok, f"min eta_S over r0 grid = {worst:+.3f} dB (floor -1 dB)")


def test_criterion_05a_residual_band_j35():
    values = [to_db(eta_phi_residual(35, float(r0))) for r0 in R0_GRID]
    lo, hi = min(values), max(values)
    ok = lo >= -5.3 and hi <= -0.4
    check(
        5,
        "residual band J=35",
        ok,
        f"eta_phi(J=35) spans [{lo:+.3f}, {hi:+.3f}] dB (band [-5.3, -0.4])",
    )


def test_criterion_05b_residual_point_j2():
    v = to_db(eta_phi_residual(2, 0.15))
    ok = -4.1 <= v <= -3.5
    check(5, "residual point J=2", ok, f"eta_phi(J=2, r0=0.15)={v:+.3f} dB (band [-4.1, -3.5])")


def test_criterion_06_collection_band():
    at_r0 = budget(0.15)
    w_l, c_r0 = at_r0.w_l, to_db(at_r0.eta_coll)
    # eta_coll at W_L = 1 m: the r0 whose theta_turb makes theta = 1 m / L
    theta_turb = math.sqrt((1.0 / PATH.path_length) ** 2 - at_r0.theta0**2)
    c_1m = to_db(budget(2.1 * PATH.wavelength / (math.pi * theta_turb)).eta_coll)
    ok = abs(c_r0 - (-6.0)) <= 0.5 and abs(c_1m - (-13.2)) <= 0.5 and abs(w_l - 0.38) <= 0.038
    check(
        6,
        "collection band",
        ok,
        f"eta_Coll(r0=0.15)={c_r0:+.2f} dB, eta_Coll(W_L=1m)={c_1m:+.2f} dB, W_L={w_l:.3f} m",
    )


def test_criterion_07_rayleigh_range():
    z0 = GEOM.rayleigh_range
    ok = abs(z0 - 1.26e3) <= 0.05 * 1.26e3
    check(7, "Rayleigh range", ok, f"z0={z0:.1f} m (target 1260 m +/- 5%)")


def test_criterion_08_absorption_band():
    lo = to_db(budget(0.15, 0.3).eta_a)
    hi = to_db(budget(0.15, 0.1).eta_a)
    ok = (
        abs(lo - (-5.4)) <= 1e-9
        and abs(hi - (-1.8)) <= 1e-9
        and -6.0 <= lo <= hi <= -1.0
    )
    check(8, "absorption band", ok, f"eta_A in [{lo:+.3f}, {hi:+.3f}] dB for A in [0.1, 0.3] dB/km")


def test_criterion_09_qkd_inversion():
    session = qkd.calibrate_r_ref(qkd.QkdSessionModel(qkd.SNSPD), 20.4e3, from_db(-29.0))
    eta_snspd = to_db(qkd.channel_efficiency_from_rate(session, 20.4e3))
    spad = dataclasses.replace(session, detector=qkd.SPAD)  # at the SNSPD-calibrated r_ref
    eta_spad = to_db(qkd.channel_efficiency_from_rate(spad, 3.4e3))
    ok = abs(eta_snspd - eta_spad) <= 0.6 and abs(eta_snspd + 29) <= 1 and abs(eta_spad + 29) <= 1
    check(
        9,
        "QKD inversion",
        ok,
        f"eta_Ch(SNSPD)={eta_snspd:+.2f} dB, eta_Ch(SPAD)={eta_spad:+.2f} dB",
    )


def test_criterion_10_tail_sum_oracle():
    details = []
    ok = True
    for J in (20, 35, 100):
        tail = 0.0
        j = 1
        n = 1
        while j <= 10**5:
            for _ in range(n + 1):
                if j > J:
                    tail += noll_weight(j)
                j += 1
                if j > 10**5:
                    break
            n += 1
        closed = 0.2944 * J ** (-math.sqrt(3) / 2)
        rel = abs(tail - closed) / closed
        details.append(f"J={J}: {rel * 100:.1f}%")
        ok = ok and rel <= 0.10
    check(10, "tail-sum oracle", ok, "closed form vs mode sum: " + ", ".join(details))


def test_criterion_11_round_trip_estimation():
    series = synth.generate_series(synth.SynthConfig(r0=0.05, j_max=35, n_samples=10000, seed=0))
    noisy = estimation.fit_fried(empirical_variances(series), 0.41).r0_hat
    exact = estimation.fit_fried(analytic_variances(0.05, 0.41, 35), 0.41).r0_hat
    ok = abs(noisy - 0.05) / 0.05 <= 0.05 and abs(exact - 0.05) <= 1e-10
    check(
        11,
        "round-trip estimation",
        ok,
        f"synthetic r0_hat={noisy:.5f} m (5% band), noiseless r0_hat={exact:.12f} m",
    )


def test_criterion_12_property_suites():
    rng = np.random.default_rng(1234)
    ok = True
    notes = []

    # multiplicative identities and range on randomized inputs
    for _ in range(200):
        terms = from_db(rng.uniform(-15, 0, size=5))
        out = compose_smf(*terms)
        ok = ok and math.isclose(out.eta_smf, float(np.prod(terms)), rel_tol=1e-12)
        ok = ok and 0 < out.eta_smf <= 1
    notes.append("breakdown identity 1e-12")

    # eta_tau monotone non-increasing in f_G, which grows with the wind
    wind = np.sort(rng.uniform(0, 10, size=40))
    taus = sweep_columns(GEOM, 0.0875, wind, 0.2)["eta_tau"].tolist()
    ok = ok and all(a >= b - 1e-15 for a, b in zip(taus, taus[1:]))
    notes.append("eta_tau monotone")

    # eta_S monotone non-increasing in Cn2 within the weak-to-moderate design
    # band (the aperture-averaged closed form is non-monotone deep in the
    # saturation regime, sigma_R^2 > ~18, outside the design envelope)
    cn2_hi = cn2_from_r0(0.03, PATH)
    cn2_values = np.sort(rng.uniform(1e-17, cn2_hi, size=60))
    etas = []
    for cn2 in cn2_values:
        rep = scintillation_report(TurbulenceState.from_cn2(float(cn2), PATH), PATH, CHAIN.d_rx)
        if rep.rytov_sigmaR2 <= 15.0:
            etas.append(rep.eta_s)
    ok = ok and all(a >= b - 1e-15 for a, b in zip(etas, etas[1:]))
    notes.append(f"eta_S monotone on {len(etas)} pts")

    # eta_phi_on monotone non-increasing in any sigma_j^2
    from skylink.zernike import ModeVarianceSet

    for _ in range(50):
        base = {j: float(v) for j, v in enumerate(rng.uniform(0, 1, size=8), start=1)}
        j_bump = int(rng.integers(1, 9))
        bumped = dict(base)
        bumped[j_bump] = base[j_bump] + float(rng.uniform(0, 1))
        ok = ok and eta_phi_on(ModeVarianceSet(bumped), 8) <= eta_phi_on(ModeVarianceSet(base), 8)
    notes.append("eta_phi_ON monotone")

    # r0 <-> Cn2 round trip
    for _ in range(100):
        r0 = float(rng.uniform(1e-3, 1.0))
        ok = ok and math.isclose(r0_from_cn2(cn2_from_r0(r0, PATH), PATH), r0, rel_tol=1e-10)
    notes.append("r0<->Cn2 1e-10")

    check(12, "property suites", ok, "; ".join(notes))


def test_criterion_13_skr_order_of_magnitude():
    snspd = qkd.QkdSessionModel(qkd.SNSPD)
    spad = qkd.QkdSessionModel(qkd.SPAD, block_size=50000)
    skr_snspd = qkd.secret_key_rate(snspd, 20.4e3, 0.01, 0.01)
    skr_spad = qkd.secret_key_rate(spad, 3.4e3, 0.02, 0.02)
    ok = 500 <= skr_snspd <= 2000 and 100 <= skr_spad <= 400
    check(
        13,
        "SKR order of magnitude",
        ok,
        f"SNSPD {skr_snspd:.0f} bit/s (band [500, 2000]), SPAD {skr_spad:.0f} bit/s (band [100, 400])",
    )
