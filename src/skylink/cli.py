"""Command-line front end.

Subcommands: budget, fit-r0, predict-smf, qkd, sweep, synth.  A JSON config
file (--config or the SKYLINK_CONFIG environment variable) overrides the
built-in field-trial defaults; individual flags override the config.  Human
tables go to standard output; --out writes full-precision JSON or CSV.

Exit codes: 0 success, 2 usage/config, 3 domain/model, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import estimation, qkd, synth
from .atmosphere import OpticalPath, TurbulenceState
from .coupling import ReceiverChain
from .estimation import FriedFit
from .linkbudget import LinkGeometry, full_budget, model_smf_breakdown, sweep_budget
from .units import from_db, to_db

__all__ = ["main"]


class ConfigError(Exception):
    """Bad configuration file or incompatible flags."""


DEFAULT_CONFIG = {
    "wavelength_m": 1.555e-6,
    "path_length_m": 18e3,
    "w0_m": 0.025,
    "d_rx_m": 0.41,
    "d_obs_m": 0.168,
    "f_eff_m": 2.0,
    "mfd_m": 10.4e-6,
    "eta_tel_db": -1.4,
    "eta_optics_db": -4.5,
    "eta_fiber_db": -2.4,
    "ao_modes": 35,
    "f_3db_hz": 10.0,
    "r0_m": 0.0875,
    "wind_mps": 0.556,
    "a_coeff_db_per_km": 0.2,
    "detector": "snspd",
    "pulse_rate_hz": 1e8,
    "internal_loss_db": -1.2,
    "r_ref_hz": qkd.R_REF_DEFAULT,
    "n_z_bytes": None,  # per-detector default when unset
    "mu1": 0.4,
    "mu2": 0.1,
    "p_mu1": 0.5,
    "p_z_alice": 0.3,
    "p_z_bob": 0.5,
    "f_ec": 1.16,
    "eps_sec": 1e-9,
    "eps_cor": 1e-15,
}

_DETECTORS = {"snspd": (qkd.SNSPD, 250000), "spad": (qkd.SPAD, 50000)}


def load_config(path: str | None) -> dict:
    """Built-in defaults, overlaid with the JSON config file if given."""
    cfg = dict(DEFAULT_CONFIG)
    if path is None:
        path = os.environ.get("SKYLINK_CONFIG") or None
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(user) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg.update(user)
    return cfg


def build_path(cfg: dict) -> OpticalPath:
    return OpticalPath(cfg["wavelength_m"], cfg["path_length_m"])


def build_chain(cfg: dict) -> ReceiverChain:
    return ReceiverChain(
        d_rx=cfg["d_rx_m"],
        d_obs=cfg["d_obs_m"],
        f_eff=cfg["f_eff_m"],
        mfd=cfg["mfd_m"],
        eta_tel=from_db(cfg["eta_tel_db"]),
        eta_optics=from_db(cfg["eta_optics_db"]),
        eta_fiber=from_db(cfg["eta_fiber_db"]),
        ao_modes=int(cfg["ao_modes"]),
        f_3db=cfg["f_3db_hz"],
    )


def build_geometry(cfg: dict) -> LinkGeometry:
    return LinkGeometry(build_path(cfg), build_chain(cfg), w0=cfg["w0_m"])


def build_session(cfg: dict, detector_name: str | None = None) -> qkd.QkdSessionModel:
    name = (detector_name or cfg["detector"]).lower()
    if name not in _DETECTORS:
        raise ConfigError(f"unknown detector {name!r}; choose from {sorted(_DETECTORS)}")
    detector, default_block = _DETECTORS[name]
    block = cfg["n_z_bytes"] if cfg["n_z_bytes"] is not None else default_block
    return qkd.QkdSessionModel(
        detector=detector,
        internal_loss=from_db(cfg["internal_loss_db"]),
        r_ref=cfg["r_ref_hz"],
        block_size=int(block),
        mu1=cfg["mu1"],
        mu2=cfg["mu2"],
        p_mu1=cfg["p_mu1"],
        p_z_alice=cfg["p_z_alice"],
        p_z_bob=cfg["p_z_bob"],
        f_ec=cfg["f_ec"],
        eps_sec=cfg["eps_sec"],
        eps_cor=cfg["eps_cor"],
    )


def write_output(path: str, payload) -> None:
    """Write machine output; format picked from the file extension."""
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif path.endswith(".csv"):
        rows = payload if isinstance(payload, list) else [payload]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        raise ConfigError(f"cannot infer output format from {path!r} (use .json or .csv)")


def _print_db_line(name: str, ratio: float) -> None:
    print(f"  {name:<18} {to_db(ratio):+8.1f} dB")


def parse_modes(text: str) -> tuple:
    """Parse a mode list like '1-35' or '3,5,7-10'."""
    modes: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk:
            lo, _, hi = chunk.partition("-")
            modes.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            modes.append(int(chunk))
    if not modes:
        raise ConfigError(f"empty mode list {text!r}")
    return tuple(modes)


def cmd_budget(args, cfg: dict) -> int:
    geom = build_geometry(cfg)
    r0 = args.r0 if args.r0 is not None else cfg["r0_m"]
    a_coeff = args.a_coeff if args.a_coeff is not None else cfg["a_coeff_db_per_km"]
    wind = args.wind if args.wind is not None else cfg["wind_mps"]
    ts = TurbulenceState.from_r0(r0, geom.path, wind)
    smf = model_smf_breakdown(geom.chain, ts, geom.path)
    if args.eta_smf is not None:
        # replace the modeled coupling with the supplied (measured) value
        if not (-math.inf < args.eta_smf <= 0 and from_db(args.eta_smf) > 0):
            raise ValueError(
                f"eta_smf must be in (0, 1], a finite dB value <= 0, got {args.eta_smf} dB"
            )
        smf = dataclasses.replace(smf, eta_smf=from_db(args.eta_smf))
    report = full_budget(geom, ts, a_coeff, smf)
    print(f"link budget  (r0 = {r0:.4g} m, A = {a_coeff:.3g} dB/km, wind = {wind:.3g} m/s)")
    print(f"  beam radius W_L    {report.w_l:8.3f} m")
    for name in ("eta_a", "eta_coll", "eta_focus", "eta_optics", "eta_smf", "eta_fiber", "eta_ch"):
        _print_db_line(name, getattr(report, name))
    if args.out:
        payload = {k: getattr(report, k) for k in report.__dataclass_fields__}
        payload["r0_m"] = r0
        payload["a_coeff_db_per_km"] = a_coeff
        write_output(args.out, payload)
    return 0


_RESIDUAL_WARN = 0.5  # log-domain rms above this flags non-Kolmogorov data


def cmd_fit_r0(args, cfg: dict) -> int:
    series, d_rx_file = estimation.load_wfs_log(args.wfs_csv)
    d_rx = args.d_rx if args.d_rx is not None else d_rx_file
    variances = estimation.empirical_variances(series)
    modes = parse_modes(args.modes) if args.modes else None
    fit = estimation.fit_fried(variances, d_rx, modes)
    print(f"Fried parameter fit over {len(fit.modes_used)} modes (D_Rx = {d_rx:.3g} m)")
    print(f"  r0_hat             {fit.r0_hat * 100:8.2f} cm")
    print(f"  r0_sigma           {fit.r0_sigma * 100:8.2f} cm")
    print(f"  residual_rms (log) {fit.residual_rms:8.3f}")
    print(f"  exponent check     {fit.fit_exponent_check:8.3f}  (1 = Kolmogorov)")
    if fit.residual_rms > _RESIDUAL_WARN:
        print(
            "  warning: residual rms is high; data deviate from the Kolmogorov "
            "per-mode variance law (closed-loop data?)"
        )
    if args.out:
        write_output(
            args.out,
            {
                "r0_hat_m": fit.r0_hat,
                "r0_sigma_m": fit.r0_sigma,
                "residual_rms": fit.residual_rms,
                "fit_exponent_check": fit.fit_exponent_check,
                "modes_used": list(fit.modes_used),
            },
        )
    return 0


def cmd_predict_smf(args, cfg: dict) -> int:
    chain = build_chain(cfg)
    path = build_path(cfg)
    ao_on, d_rx_file = estimation.load_wfs_log(args.ao_on)
    if (args.ao_off is None) == (args.r0 is None):
        raise ConfigError("provide exactly one of --ao-off or --r0")
    if args.ao_off is not None:
        off_series, _ = estimation.load_wfs_log(args.ao_off)
        fit = estimation.fit_fried(estimation.empirical_variances(off_series), chain.d_rx)
    else:
        fit = FriedFit(args.r0, 0.0, float("nan"), 0.0, ("manual",))
    wind = args.wind if args.wind is not None else cfg["wind_mps"]
    smf = estimation.predict_eta_smf(ao_on, fit, wind, chain, path)
    print(f"predicted SMF coupling  (r0 = {fit.r0_hat:.4g} m, wind = {wind:.3g} m/s)")
    for name in ("eta0", "eta_s", "eta_phi_on", "eta_phi_residual", "eta_tau", "eta_ao", "eta_smf"):
        _print_db_line(name, getattr(smf, name))
    if args.out:
        write_output(args.out, {k: getattr(smf, k) for k in smf.__dataclass_fields__})
    return 0


def cmd_qkd(args, cfg: dict) -> int:
    session = build_session(cfg, args.detector)
    print(
        f"protocol defaults: mu1={session.mu1} mu2={session.mu2} p_mu1={session.p_mu1} "
        f"p_z_alice={session.p_z_alice} p_z_bob={session.p_z_bob} f_ec={session.f_ec} "
        f"eps_sec={session.eps_sec} eps_cor={session.eps_cor} "
        f"n_z={session.block_size} bytes detector={session.detector.label}"
    )
    if (args.log is None) == (args.eta_ch is None):
        raise ConfigError("provide exactly one of --log or --eta-ch")
    if args.log is not None:
        records = qkd.load_session_log(args.log)
        summary = qkd.analyze_session_log(records)
        signal = summary["signal_rate"]["mean"]
        qber_z = summary["qber_z"]["mean"]
        qber_x = summary["qber_x"]["mean"]
        eta_ch = qkd.channel_efficiency_from_rate(session, signal)
        skr = qkd.secret_key_rate(session, signal, qber_z, qber_x)
        print(f"session log: {len(records)} records")
        for name, stats in summary.items():
            print(
                f"  {name:<12} mean {stats['mean']:12.4g}   min {stats['min']:12.4g}"
                f"   max {stats['max']:12.4g}   std {stats['std']:12.4g}"
            )
        print(f"  inferred eta_ch    {to_db(eta_ch):+8.1f} dB")
        print(f"  secret key rate    {skr:10.1f} bit/s (from mean rate/QBER)")
        payload = {
            "eta_ch": eta_ch,
            "skr_bps": skr,
            **{f"{k}_{s}": v for k, st in summary.items() for s, v in st.items()},
        }
    else:
        eta_ch = from_db(args.eta_ch)
        signal = qkd.expected_signal_rate(session, eta_ch)
        noise = qkd.windowed_noise_rate(
            session.detector.noise_rate, session.detector.window, cfg["pulse_rate_hz"]
        )
        qber_z = qkd.expected_qber(signal, noise, args.intrinsic_qber)
        qber_x = qber_z
        skr = qkd.secret_key_rate(session, signal, qber_z, qber_x)
        print(f"  expected signal    {signal:10.1f} Hz")
        print(f"  noise (in window)  {noise:10.1f} Hz")
        print(f"  expected QBER      {qber_z:10.4f}")
        print(f"  secret key rate    {skr:10.1f} bit/s")
        payload = {
            "eta_ch": eta_ch,
            "signal_hz": signal,
            "noise_hz": noise,
            "qber": qber_z,
            "skr_bps": skr,
        }
    if args.out:
        write_output(args.out, payload)
    return 0


def cmd_sweep(args, cfg: dict) -> int:
    geom = build_geometry(cfg)
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    values = [args.min] if args.steps == 1 else np.linspace(args.min, args.max, args.steps).tolist()
    if args.var == "J":
        values = [round(v) for v in values]  # label each row with the J it evaluates
    point = {"r0": cfg["r0_m"], "wind": cfg["wind_mps"], "a_coeff": cfg["a_coeff_db_per_km"]}
    point[args.var] = values
    rows = sweep_budget(geom, point["r0"], point["wind"], point["a_coeff"], point.get("J"))
    column = "r0_m" if args.var == "r0" else args.var  # the swept column replaces r0_m
    rows = [
        {column: v, **{k: x for k, x in row.items() if k != "r0_m"}}
        for v, row in zip(values, rows)
    ]
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        write_output(args.out, rows)
    return 0


def cmd_synth(args, cfg: dict) -> int:
    config = synth.SynthConfig(
        r0=args.r0,
        d_rx=cfg["d_rx_m"],
        j_max=args.j_max,
        n_samples=args.n,
        sample_rate=args.rate,
        wind_speed=args.wind,
        ao_on=args.ao_on,
        ao_modes=int(cfg["ao_modes"]),
        f_3db=cfg["f_3db_hz"],
        wavelength=cfg["wavelength_m"],
        seed=args.seed,
    )
    series = synth.generate_series(config)
    estimation.write_wfs_log(series, cfg["d_rx_m"], args.out_file)
    print(
        f"wrote {series.n_samples} samples x {series.j_max} modes to {args.out_file} "
        f"(r0 = {args.r0:.4g} m, ao_on = {args.ao_on}, seed = {args.seed})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skylink",
        description="Link-engineering toolkit for intermodal free-space/fiber QKD.",
    )
    parser.add_argument("--config", help="JSON config file (or set SKYLINK_CONFIG)")
    parser.add_argument("--out", help="machine-readable output file (.json or .csv)")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="end-to-end channel budget")
    p.add_argument("--r0", type=float, help="Fried parameter in m")
    p.add_argument("--a-coeff", type=float, help="absorption coefficient in dB/km")
    p.add_argument("--wind", type=float, help="mean transverse wind speed in m/s")
    p.add_argument("--eta-smf", type=float, help="override SMF coupling, in dB")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("fit-r0", help="fit the Fried parameter from a WFS log")
    p.add_argument("wfs_csv")
    p.add_argument("--modes", help="modes to fit, e.g. '3-35' to exclude tilts")
    p.add_argument("--d-rx", type=float, help="override receiver diameter in m")
    p.set_defaults(func=cmd_fit_r0)

    p = sub.add_parser("predict-smf", help="predict SMF coupling from WFS data")
    p.add_argument("--ao-on", required=True, help="AO-ON WFS log CSV")
    p.add_argument("--ao-off", help="AO-OFF WFS log CSV (fits r0)")
    p.add_argument("--r0", type=float, help="Fried parameter in m (instead of --ao-off)")
    p.add_argument("--wind", type=float, help="mean transverse wind speed in m/s")
    p.set_defaults(func=cmd_predict_smf)

    p = sub.add_parser("qkd", help="rates, QBER and secret key rate")
    p.add_argument("--log", help="session-log CSV")
    p.add_argument("--eta-ch", type=float, help="channel efficiency in dB")
    p.add_argument("--detector", choices=sorted(_DETECTORS), help="detector model")
    p.add_argument("--intrinsic-qber", type=float, default=0.005, help="intrinsic QBER")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("sweep", help="sweep one variable, emit all efficiency terms")
    p.add_argument("--var", choices=["r0", "wind", "a_coeff", "J"], default="r0")
    p.add_argument("--min", type=float, default=0.03)
    p.add_argument("--max", type=float, default=0.15)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic WFS log")
    p.add_argument("out_file")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--wind", type=float, default=0.0)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--j-max", type=int, default=35)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ao-on", action="store_true")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
