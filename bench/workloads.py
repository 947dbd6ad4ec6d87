"""The benchmark's two workloads, their building blocks, and the layer census.

Load is a closed loop with one client: one operation at a time, no threads.
Each workload's round runs the same operations every time; the ledger counts
each as attempted, and as failed when it raises or a check rejects its
output.  Timings land in ``Bench.samples`` only for operations that passed.

``import skylink`` must already resolve to the checkout's ``src/`` (run.py
guards this before importing this module).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks
import skylink.cli
from checks import CheckError
from skylink import (
    SNSPD,
    SPAD,
    LinkGeometry,
    OpticalPath,
    QkdSessionModel,
    ReceiverChain,
    SynthConfig,
    TurbulenceState,
    analyze_session_log,
    empirical_variances,
    expected_qber,
    expected_signal_rate,
    fit_fried,
    from_db,
    full_budget,
    generate_series,
    load_session_log,
    load_wfs_log,
    model_smf_breakdown,
    optimize_beta,
    predict_eta_smf,
    scintillation_report,
    secret_key_rate,
    sweep_budget,
    windowed_noise_rate,
    write_wfs_log,
)
from speed import Stopwatch

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The nominal link of the field trial: 18 km at 1555 nm, 25 mm transmit waist.
WAVELENGTH = 1.555e-6
PATH_M = 18e3
W0 = 0.025
PULSE_RATE = 1e8
INTRINSIC_QBER = 0.005
J_MAX = 35
FIELD_SAMPLES = 10_000  # 100 s at 100 Hz, the field-trial log size
DETECTORS = {"snspd": (SNSPD, 250_000), "spad": (SPAD, 50_000)}  # block sizes as the CLI uses

# run.py removes SKYLINK_CONFIG from the environment, so every call sees the built-in defaults.
_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def r(x: float) -> str:
    """Exact text for a float argument."""
    return repr(float(x))


def median(values) -> float | None:
    return statistics.median(values) if values else None


class Inputs:
    """Every input of a run, drawn from its seed."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.r0 = float(rng.uniform(0.06, 0.12))
        self.wind = float(rng.uniform(0.3, 0.8))
        self.a_coeff = float(rng.uniform(0.1, 0.3))
        self.pair_seeds = [tuple(int(s) for s in rng.integers(0, 2**31, size=2)) for _ in range(2)]  # (off, on)
        self.r0_lo, self.r0_hi = float(rng.uniform(0.03, 0.05)), float(rng.uniform(0.13, 0.16))
        self.wind_lo, self.wind_hi = float(rng.uniform(0.2, 0.4)), float(rng.uniform(1.0, 1.5))
        self.alpha_hi = float(rng.uniform(0.6, 0.7))
        self.eta_db_lo, self.eta_db_hi = float(rng.uniform(-46, -44)), float(rng.uniform(-21, -19))
        self.session_log = _session_log_rows(rng, 3600)


def _session_log_rows(rng, n: int) -> list[list[str]]:
    """An hour of 1 s platform records around the field-trial SNSPD rate."""
    signal = rng.normal(20.4e3, 800.0, n)
    noise = rng.normal(120.0, 10.0, n)
    qz, qx = rng.uniform(0.01, 0.02, n), rng.uniform(0.01, 0.025, n)
    skr = rng.uniform(100.0, 300.0, n)
    has_skr = rng.random(n) > 0.1
    return [
        [r(i), r(signal[i]), r(noise[i]), r(qz[i]), r(qx[i]), r(skr[i]) if has_skr[i] else ""]
        for i in range(n)
    ]


def write_session_log(rows, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "signal_hz", "noise_hz", "qber_z", "qber_x", "skr_bps"])
        writer.writerows(rows)


def nominal_geometry() -> LinkGeometry:
    return LinkGeometry(OpticalPath(WAVELENGTH, PATH_M), ReceiverChain(), w0=W0)


class Bench:
    """State shared by the operations of one run."""

    def __init__(self, inputs: Inputs, work: Path, tracer, ledger, speed) -> None:
        self.p = inputs
        self.work = work
        self.tr = tracer
        self.ledger = ledger
        self.speed = speed
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.last_r0_hat = math.nan  # r0 fitted from the latest AO-OFF log
        self.last_eta_smf = math.nan  # eta_smf predicted from the latest pair

    def process(self, span: str, argv: list[str]) -> tuple[float, str, str]:
        """Run one process to its end; (wall seconds at the reference speed, stdout, stderr)."""
        watch = Stopwatch(self.speed.start_up)
        with self.tr.span(span):
            proc = subprocess.run(
                argv, cwd=self.work, env=_ENV, capture_output=True, text=True, timeout=150
            )
        wall = watch.lap()
        if proc.returncode != 0:
            raise CheckError(f"{argv[1:4]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return wall, proc.stdout, proc.stderr

    def cli(self, *argv: str) -> tuple[float, str]:
        """One `python -m skylink.cli` invocation; (wall seconds, stdout)."""
        wall, out, _ = self.process("subprocess.skylink_cli", [sys.executable, "-m", "skylink.cli", *argv])
        return wall, out

    def timed(self, items, fn, chunk: int, weight: int = 1) -> tuple[list, list[float]]:
        """fn over items; also one rate sample (weight per item, per second at the reference speed) per chunk."""
        results, rates = [], []
        watch = Stopwatch(self.speed.in_process)
        for i in range(0, len(items), chunk):
            part = items[i : i + chunk]
            results.extend([fn(x) for x in part])
            rates.append(len(part) * weight / watch.lap())
        return results, rates

    def read_json(self, name: str) -> dict:
        with open(self.work / name, encoding="utf-8") as fh:
            return json.load(fh)

    # --- in-process building blocks -------------------------------------

    def wfs_pair(self, n: int, k: int = 0) -> None:
        """The seed's k-th AO-OFF/AO-ON pair: generate, write, load, fit r0, predict eta_smf, budget, SKR."""
        p, tr = self.p, self.tr
        seed_off, seed_on = p.pair_seeds[k]
        geom = nominal_geometry()
        chain, path = geom.chain, geom.path
        common = dict(r0=p.r0, d_rx=chain.d_rx, j_max=J_MAX, n_samples=n, wind_speed=p.wind)
        off_file, on_file = self.work / "ao_off.csv", self.work / "ao_on.csv"

        watch = Stopwatch(self.speed.in_process)
        with tr.span("synth.generate_series"):
            off = generate_series(SynthConfig(ao_on=False, seed=seed_off, **common))
        with tr.span("estimation.write_wfs_log"):
            write_wfs_log(off, chain.d_rx, off_file)
        watch.lap()
        with tr.span("synth.generate_series"):
            on = generate_series(SynthConfig(ao_on=True, seed=seed_on, **common))
        with tr.span("estimation.write_wfs_log"):
            write_wfs_log(on, chain.d_rx, on_file)
        watch.lap()
        with tr.span("estimation.load_wfs_log"):
            off_loaded, d_rx = load_wfs_log(off_file)
        with tr.span("zernike.empirical_variances"):
            variances = empirical_variances(off_loaded)
        with tr.span("estimation.fit_fried"):
            fit = fit_fried(variances, d_rx)
        watch.lap()
        with tr.span("estimation.load_wfs_log"):
            on_loaded, _ = load_wfs_log(on_file)
        with tr.span("estimation.predict_eta_smf"):
            smf = predict_eta_smf(on_loaded, fit, p.wind, chain, path)
        ts = TurbulenceState.from_r0(fit.r0_hat, path, p.wind)
        with tr.span("atmosphere.scintillation_report"):
            scint = scintillation_report(ts, path, chain.d_rx)
        with tr.span("linkbudget.full_budget"):
            budget = full_budget(geom, ts, p.a_coeff, smf)
        signal, skr = self._skr_point(QkdSessionModel(SNSPD), budget.eta_ch)
        watch.lap()

        size = off_file.stat().st_size + on_file.stat().st_size
        tr.count("estimation.write_wfs_log.bytes", size)
        tr.count("estimation.load_wfs_log.bytes", size)
        for made, loaded in ((off, off_loaded), (on, on_loaded)):
            checks.bit_identical("timestamps", loaded.timestamps, made.timestamps)
            checks.bit_identical("coefficients", loaded.coefficients, made.coefficients)
        checks.fried_fit(fit.r0_hat, p.r0, fit.fit_exponent_check)
        checks.close("eta_phi_on", smf.eta_phi_on, checks.eta_phi_on(on_loaded.coefficients, chain.ao_modes))
        checks.smf_product(asdict(smf))
        checks.close("eta_s", smf.eta_s, scint.eta_s)
        checks.budget(asdict(budget), r0=fit.r0_hat, a_coeff=p.a_coeff, path_m=PATH_M, wavelength=WAVELENGTH, w0=W0)
        checks.signal_rate(signal, budget.eta_ch, "snspd")
        checks.within("skr_bps", skr, 0.0, math.inf)
        to_log_off, to_log_on, to_r0, _ = watch.laps
        self.samples["synth_to_log_s"] += [to_log_off, to_log_on]
        self.last_r0_hat, self.last_eta_smf = fit.r0_hat, smf.eta_smf
        self.samples["log_to_r0_s"].append(to_r0)
        self.samples["campaign_pair_s"].append(sum(watch.laps))

    def _skr_point(self, session: QkdSessionModel, eta_ch: float) -> tuple[float, float]:
        det = session.detector
        signal = expected_signal_rate(session, eta_ch)
        qber = expected_qber(signal, windowed_noise_rate(det.noise_rate, det.window, PULSE_RATE), INTRINSIC_QBER)
        with self.tr.span("qkd.secret_key_rate"):
            return signal, float(secret_key_rate(session, signal, qber, qber))

    def budget_scan(self, r0s, winds, Js, a_coeff: float, n_direct: int) -> None:
        """Modeled budget on an r0 x wind x J grid, then direct calls at n_direct points."""
        tr, geom = self.tr, nominal_geometry()
        r0s = [float(x) for x in r0s]

        def sweep(w_j):
            with tr.span("linkbudget.sweep_budget"):
                return sweep_budget(geom, r0s, w_j[0], a_coeff, w_j[1])

        grid, rates = self.timed([(w, J) for w in winds for J in Js], sweep, 2, len(r0s))
        n_points = len(r0s) * len(winds) * len(Js)
        tr.count("linkbudget.sweep_budget.points", n_points)

        def field(key: str) -> np.ndarray:  # (r0, wind, J), like the meshgrid below
            values = np.array([[row[key] for row in rows] for rows in grid])
            return np.transpose(values.reshape(len(winds), len(Js), len(r0s)), (2, 0, 1))

        checks.budget_grid(field("eta_ch"))
        chain = geom.chain
        R0, WIND, JJ = np.meshgrid(r0s, winds, Js, indexing="ij")
        for name, want in (
            ("eta_phi_residual", checks.eta_phi_residual(JJ, chain.d_rx, R0)),
            ("eta_tau", checks.eta_tau(WIND, R0, chain.f_3db)),
            ("eta_a", checks.absorption(a_coeff, PATH_M)),
        ):
            err = float(np.max(np.abs(field(name) / want - 1)))
            if not err <= checks.REL:
                raise CheckError(f"{name} grid off its closed form by {err:.3g}")

        # A stride through the grid, recomposed from direct calls.
        flat = [(i, j, k) for i in range(len(winds)) for j in range(len(Js)) for k in range(len(r0s))]
        for i, j, k in flat[:: max(1, len(flat) // n_direct)][:n_direct]:
            ts = TurbulenceState.from_r0(r0s[k], geom.path, winds[i])
            with tr.span("atmosphere.scintillation_report"):
                scint = scintillation_report(ts, geom.path, chain.d_rx)
            with tr.span("linkbudget.model_smf_breakdown"):
                smf = model_smf_breakdown(chain, ts, geom.path, Js[j])
            with tr.span("linkbudget.full_budget"):
                rep = full_budget(geom, ts, a_coeff, smf)
            row = grid[i * len(Js) + j][k]
            checks.close("eta_s", smf.eta_s, scint.eta_s)
            checks.close("eta_ch", row["eta_ch"], rep.eta_ch)
        self.samples["budget_points_per_s"].extend(rates)

    def skr_curves(self, n: int) -> None:
        """SKR against eta_ch for both detectors, across the clamp-to-zero edge."""
        p = self.p
        etas = [from_db(float(x)) for x in np.linspace(p.eta_db_lo, p.eta_db_hi, n)]
        curves, rates = {}, []
        for name, (det, block) in DETECTORS.items():
            session = QkdSessionModel(det, block_size=block)
            curves[name], part = self.timed(etas, lambda e: self._skr_point(session, e), 200)
            rates += part
        for name, points in curves.items():
            skr = [s for _, s in points]
            checks.skr_curve(f"skr_{name}", skr)
            checks.signal_rate(points[-1][0], etas[-1], name)
            self.tr.count("qkd.skr_points", len(skr))
            self.tr.count("qkd.skr_positive_points", sum(s > 0 for s in skr))
        self.samples["skr_points_per_s"].extend(rates)

    def beta_scan(self, alphas) -> None:
        """optimize_beta over obscuration ratios; each result beats a dense beta grid."""
        alphas = [float(a) for a in alphas]

        def opt(a):
            with self.tr.span("coupling.optimize_beta"):
                return optimize_beta(a)

        results, rates = self.timed(alphas, opt, 24)
        for a, (_, eta_max) in zip(alphas, results):
            checks.beta_optimum(a, eta_max)
        self.samples["beta_opts_per_s"].extend(rates)

    def alphas(self, n: int, lo: float = 0.0, hi: float | None = None) -> np.ndarray:
        return np.linspace(lo, self.p.alpha_hi if hi is None else hi, n)

    def metrics(self) -> dict:
        s = self.samples
        out = {k: median(s[k]) for k in ("synth_to_log_s", "log_to_r0_s", "campaign_pair_s",
                                        "budget_points_per_s", "skr_points_per_s", "beta_opts_per_s")}
        out["cli_call_median_s"] = median(s["cli_call_s"])
        return out


# --- workloads ---------------------------------------------------------------


class WfsCampaign(Bench):
    """The analyst's pipeline at field-trial size, with a margin check around the campaign's r0."""

    def warm_up(self) -> None:
        self.wfs_pair(1000)
        self.cli("--out", "fit_cli.json", "fit-r0", "ao_off.csv")

    def round(self) -> None:
        L, p = self.ledger, self.p
        for k in range(len(p.pair_seeds)):
            L.run("pair", self.wfs_pair, FIELD_SAMPLES, k)
        L.run("margin_budget", self.budget_scan, p.r0 * np.linspace(0.8, 1.25, 300),
              [0.5 * p.wind, p.wind, 1.5 * p.wind], [10, 20, J_MAX, 50], p.a_coeff, 10)
        L.run("margin_skr", self.skr_curves, 300)
        L.run("beta", self.beta_scan, self.alphas(24, 0.3, 0.5))
        L.run("cli_fit_r0", self._cli_fit_r0)
        L.run("cli_predict_smf", self._cli_predict_smf)

    def _cli_fit_r0(self) -> None:
        """The CLI must report the r0 the library fits from the same log."""
        wall, _ = self.cli("--out", "fit_cli.json", "fit-r0", "ao_off.csv")
        checks.close("r0_hat cli/library", self.read_json("fit_cli.json")["r0_hat_m"], self.last_r0_hat)
        self.samples["cli_call_s"].append(wall)

    def _cli_predict_smf(self) -> None:
        """The CLI must predict the coupling the library predicts from the same pair."""
        wall, _ = self.cli("--out", "pred_cli.json", "predict-smf", "--ao-on", "ao_on.csv",
                           "--ao-off", "ao_off.csv", "--wind", r(self.p.wind))
        checks.close("eta_smf cli/library", self.read_json("pred_cli.json")["eta_smf"], self.last_eta_smf)
        self.samples["cli_call_s"].append(wall)


class DesignScan(Bench):
    """Design-guideline scans (budget grid, SKR across the clamp edge, beta optimum) and the CLI's point tools."""

    N_R0, N_WIND, N_SKR, N_ALPHA = 200, 6, 1500, 120
    JS = (3, 6, 10, 19, 36, 66)
    N_VALIDATE, VALIDATE_PAIRS = 1000, 3
    CLI_STEPS = 100

    def warm_up(self) -> None:
        self.budget_scan(np.linspace(self.p.r0_lo, self.p.r0_hi, 10), [0.5], [10, 35], 0.2, 2)
        self.skr_curves(20)
        self.beta_scan(self.alphas(4))
        self.wfs_pair(1000)
        self.cli(*self._budget_argv())
        self.first_budget = (self.work / "budget.json").read_bytes()

    def round(self) -> None:
        L, p = self.ledger, self.p
        L.run("budget_grid", self.budget_scan, np.linspace(p.r0_lo, p.r0_hi, self.N_R0),
              list(np.linspace(p.wind_lo, p.wind_hi, self.N_WIND)), self.JS, p.a_coeff, 50)
        L.run("skr_curves", self.skr_curves, self.N_SKR)
        L.run("beta_grid", self.beta_scan, self.alphas(self.N_ALPHA))
        for _ in range(self.VALIDATE_PAIRS):
            L.run("validate_pair", self.wfs_pair, self.N_VALIDATE)
        L.run("cli_sweep", self._cli_sweep)
        L.run("cli_budget", self._cli_budget)
        L.run("cli_qkd", self._cli_qkd)

    def _budget_argv(self) -> list[str]:
        p = self.p
        return ["--out", "budget.json", "budget", "--r0", r(p.r0), "--a-coeff", r(p.a_coeff), "--wind", r(p.wind)]

    def _cli_budget(self) -> None:
        """`budget --out` at the seed's link: identities and closed forms, and the same bytes every time."""
        p = self.p
        wall, _ = self.cli(*self._budget_argv())
        written = (self.work / "budget.json").read_bytes()
        checks.budget(json.loads(written), r0=p.r0, a_coeff=p.a_coeff, path_m=PATH_M, wavelength=WAVELENGTH, w0=W0)
        checks.same_bytes("budget --out", written, self.first_budget)
        self.samples["cli_call_s"].append(wall)

    def _cli_qkd(self) -> None:
        """`qkd --eta-ch -29` with the SNSPD: the calibrated signal rate and the paper's SKR range."""
        wall, _ = self.cli("--out", "qkd.json", "qkd", "--eta-ch", "-29", "--detector", "snspd")
        q = self.read_json("qkd.json")
        checks.close("eta_ch", q["eta_ch"], 10 ** (-29 / 10))
        checks.signal_rate(q["signal_hz"], q["eta_ch"], "snspd")
        checks.within("skr_bps", q["skr_bps"], 500.0, 2000.0)
        self.samples["cli_call_s"].append(wall)

    def _cli_sweep(self) -> None:
        """The CLI sweep must equal sweep_budget on the same grid, value for value."""
        p = self.p
        wall, _ = self.cli("--out", "sweep.csv", "sweep", "--var", "r0", "--min", r(p.r0_lo),
                           "--max", r(p.r0_hi), "--steps", str(self.CLI_STEPS))
        with open(self.work / "sweep.csv", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        d = skylink.cli.DEFAULT_CONFIG
        want = sweep_budget(nominal_geometry(), list(np.linspace(p.r0_lo, p.r0_hi, self.CLI_STEPS)),
                            d["wind_mps"], d["a_coeff_db_per_km"])
        if len(got) != len(want):
            raise CheckError("cli sweep row count differs from sweep_budget")
        for g, w_ in zip(got, want):
            for key, value in w_.items():
                checks.close(f"cli sweep {key}", float(g[key]), value)
        self.samples["cli_call_s"].append(wall)


WORKLOADS = {"wfs-campaign": WfsCampaign, "design-scan": DesignScan}


# --- layer census (traced runs only) -----------------------------------------

IMPORT_MODULES = ("coupling", "estimation", "synth", "qkd", "cli")


def census(b: Bench) -> None:
    """Call every layer the per-layer metrics name at least once, at small size."""
    tr, L, exe = b.tr, b.ledger, sys.executable
    for _ in range(3):
        L.run("interpreter", b.process, "startup.interpreter", [exe, "-c", "pass"])
    for _ in range(2):
        L.run("import_skylink", b.process, "startup.import_skylink", [exe, "-c", "import skylink"])

    def importtime() -> None:
        _, _, err = b.process("startup.importtime", [exe, "-X", "importtime", "-c", "import skylink.cli"])
        seen = {}
        for line in err.splitlines():
            parts = [x.strip() for x in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("skylink."):
                seen[parts[2].removeprefix("skylink.")] = int(parts[1]) / 1e6
        for m in IMPORT_MODULES:
            if m not in seen:
                raise CheckError(f"importtime lists no skylink.{m}")
            tr.value(f"startup.import.skylink.{m}", seen[m])

    for _ in range(2):
        L.run("importtime", importtime)

    log = b.work / "census_session.csv"
    write_session_log(b.p.session_log, log)

    def session_log() -> None:
        with tr.span("qkd.load_session_log"):
            records = load_session_log(log)
        with tr.span("qkd.analyze_session_log"):
            summary = analyze_session_log(records)
        checks.close("signal_rate mean", summary["signal_rate"]["mean"],
                     float(np.mean([x.signal_rate for x in records])))

    L.run("session_log", session_log)

    p, w = b.p, str(b.work)
    commands = [
        ("budget", ["budget", "--r0", r(p.r0)]),
        ("qkd", ["qkd", "--eta-ch", "-29"]),
        ("sweep", ["sweep", "--steps", "50"]),
        ("synth", ["synth", f"{w}/c_off.csv", "--r0", r(p.r0), "--wind", r(p.wind), "--n", "2000"]),
        ("synth", ["synth", f"{w}/c_on.csv", "--r0", r(p.r0), "--wind", r(p.wind), "--n", "2000", "--ao-on"]),
        ("fit_r0", ["fit-r0", f"{w}/c_off.csv"]),
        ("predict_smf", ["predict-smf", "--ao-on", f"{w}/c_on.csv", "--ao-off", f"{w}/c_off.csv"]),
    ]
    for name, argv in commands:
        L.run(f"cli.{name}", _in_process_cli, tr, name, argv)

    L.run("pair", b.wfs_pair, 2000)
    L.run("budget", b.budget_scan, np.linspace(p.r0_lo, p.r0_hi, 50), [p.wind], [J_MAX], p.a_coeff, 50)
    L.run("skr", b.skr_curves, 50)
    L.run("beta", b.beta_scan, b.alphas(8))


def _in_process_cli(tr, name: str, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), tr.span(f"cli.{name}"):
        code = skylink.cli.main(argv)
    if code != 0:
        raise CheckError(f"skylink.cli.main({argv[0]}) returned {code}")
