"""Fried-parameter estimation and coupling prediction from WFS data.

Generates a matched AO-OFF / AO-ON pair of synthetic wavefront-sensor logs,
fits r0 from the open-loop per-mode variances, predicts the single-mode-fiber
coupling from the closed-loop data, and feeds the result into a QKD rate
estimate.

Run: python demos/estimation_pipeline.py
"""

import tempfile
from pathlib import Path

from skylink import estimation, qkd, synth
from skylink.atmosphere import OpticalPath
from skylink.coupling import ReceiverChain
from skylink.linkbudget import LinkGeometry, full_budget
from skylink.units import format_db
from skylink.zernike import empirical_variances

R0_TRUE = 0.0875  # m
WIND = 0.556  # m/s

path = OpticalPath(1.555e-6, 18e3)
chain = ReceiverChain()

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)

    # 1. synthetic WFS campaign: open loop, then closed loop
    common = dict(r0=R0_TRUE, d_rx=chain.d_rx, j_max=35, n_samples=10000, wind_speed=WIND)
    off = synth.generate_series(synth.SynthConfig(ao_on=False, seed=1, **common))
    on = synth.generate_series(synth.SynthConfig(ao_on=True, seed=2, **common))
    estimation.write_wfs_log(off, chain.d_rx, workdir / "ao_off.csv")
    estimation.write_wfs_log(on, chain.d_rx, workdir / "ao_on.csv")
    print(f"wrote AO-OFF/AO-ON logs to {workdir}")

    # 2. Fried parameter from the open-loop variances
    off_loaded, d_rx = estimation.load_wfs_log(workdir / "ao_off.csv")
    fit = estimation.fit_fried(empirical_variances(off_loaded), d_rx)
    print(f"r0 fit: {fit.r0_hat * 100:.2f} cm (truth {R0_TRUE * 100:.2f} cm, "
          f"spread {fit.r0_sigma * 100:.2f} cm, slope check {fit.fit_exponent_check:.3f})")

    # 3. coupling prediction from the closed-loop data plus the fit
    on_loaded, _ = estimation.load_wfs_log(workdir / "ao_on.csv")
    smf = estimation.predict_eta_smf(on_loaded, fit, WIND, chain, path)
    for name in ("eta0", "eta_s", "eta_phi_on", "eta_phi_residual", "eta_tau", "eta_smf"):
        print(f"    {name:<18} {format_db(getattr(smf, name))}")

# 4. channel budget and QKD throughput with the predicted coupling
from skylink.atmosphere import TurbulenceState

geom = LinkGeometry(path, chain)
ts = TurbulenceState.from_r0(fit.r0_hat, path, WIND)
budget = full_budget(geom, ts, a_coeff_db_km=0.2, smf=smf)
print(f"predicted channel efficiency: {format_db(budget.eta_ch)}")

point = qkd.key_rate_point(qkd.QkdSessionModel(qkd.SNSPD), budget.eta_ch)
print(f"expected SNSPD rate {point.signal_hz / 1e3:.1f} kHz, QBER {point.qber * 100:.2f}%, "
      f"secret key rate {point.skr_bps:.0f} bit/s")
