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
import os
import sys
from typing import NamedTuple

from . import estimation, qkd, synth
from .atmosphere import OpticalPath, TurbulenceState
from .coupling import ReceiverChain
from .estimation import FriedFit
from .linkbudget import LinkGeometry, full_budget, model_smf_breakdown, sweep_budget
from .units import _is_ratio, from_db, to_db

__all__ = ["main"]


class ConfigError(Exception):
    """Bad configuration file or incompatible flags."""


class _Field(NamedTuple):
    owner: type  # the dataclass whose field a config key sets
    name: str
    db: bool = False  # the key is in dB, the field a linear ratio


# Each config key sets a dataclass field or, if no dataclass holds it, is an
# operating-point value with its default given here.  A field key left unset
# keeps the dataclass default, so each default is stated once, in its class.
_CONFIG_KEYS = {
    "wavelength_m": _Field(OpticalPath, "wavelength"),
    "path_length_m": _Field(OpticalPath, "path_length"),
    "w0_m": _Field(LinkGeometry, "w0"),
    "d_rx_m": _Field(ReceiverChain, "d_rx"),
    "d_obs_m": _Field(ReceiverChain, "d_obs"),
    "f_eff_m": _Field(ReceiverChain, "f_eff"),
    "mfd_m": _Field(ReceiverChain, "mfd"),
    "eta_tel_db": _Field(ReceiverChain, "eta_tel", db=True),
    "eta_optics_db": _Field(ReceiverChain, "eta_optics", db=True),
    "eta_fiber_db": _Field(ReceiverChain, "eta_fiber", db=True),
    "ao_modes": _Field(ReceiverChain, "ao_modes"),
    "f_3db_hz": _Field(ReceiverChain, "f_3db"),
    "r0_m": 0.0875,
    "wind_mps": 0.556,
    "a_coeff_db_per_km": 0.2,
    "detector": "snspd",
    "pulse_rate_hz": 1e8,
    "internal_loss_db": _Field(qkd.QkdSessionModel, "internal_loss", db=True),
    "r_ref_hz": _Field(qkd.QkdSessionModel, "r_ref"),
    "n_z_bytes": _Field(qkd.QkdSessionModel, "block_size"),  # null: per detector
    "mu1": _Field(qkd.QkdSessionModel, "mu1"),
    "mu2": _Field(qkd.QkdSessionModel, "mu2"),
    "p_mu1": _Field(qkd.QkdSessionModel, "p_mu1"),
    "p_z_alice": _Field(qkd.QkdSessionModel, "p_z_alice"),
    "p_z_bob": _Field(qkd.QkdSessionModel, "p_z_bob"),
    "f_ec": _Field(qkd.QkdSessionModel, "f_ec"),
    "eps_sec": _Field(qkd.QkdSessionModel, "eps_sec"),
    "eps_cor": _Field(qkd.QkdSessionModel, "eps_cor"),
}
_KINDS = {str: "a string", float: "a number", int: "a whole number"}


def _default(key):
    if not isinstance(key, _Field):
        return key
    value = key.owner.__dataclass_fields__[key.name].default
    return round(to_db(value), 10) if key.db else value  # -1.4, not -1.3999999999999995


# Readable view of every key's default; the builders do not read it.
DEFAULT_CONFIG = {name: _default(key) for name, key in _CONFIG_KEYS.items()}

_DETECTORS = {d.label: d for d in (qkd.SNSPD, qkd.SPAD)}


def _checked(name: str, value):
    """The config value, or ConfigError if it is not of the key's kind."""
    key = _CONFIG_KEYS[name]
    if not isinstance(key, _Field):
        kind = type(key)
    else:
        field = key.owner.__dataclass_fields__[key.name]
        if value is None and field.default is None:  # the class resolves null
            return None
        kind = int if field.type in ("int", "int | None") else float
    if kind is str:
        ok = isinstance(value, str)
    else:  # a JSON number, not true/false; for int fields a whole one
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind is float or isinstance(value, int) or value.is_integer())
    if not ok:
        raise ConfigError(f"config key {name} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return int(value) if kind is int else value


def load_config(path: str | None) -> dict:
    """The operating point, overlaid with the keys the JSON config file sets.

    Keys the file leaves unset keep the defaults of the dataclasses they
    set and are absent from the result.
    """
    cfg = {name: v for name, v in _CONFIG_KEYS.items() if not isinstance(v, _Field)}
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
    unknown = sorted(set(user) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg.update((name, _checked(name, value)) for name, value in user.items())
    return cfg


def _fields(cfg: dict, owner: type) -> dict:
    """Keyword arguments for owner: its fields that the config sets, in linear units."""
    return {
        key.name: from_db(cfg[name]) if key.db else cfg[name]
        for name, key in _CONFIG_KEYS.items()
        if isinstance(key, _Field) and key.owner is owner and name in cfg
    }


def build_path(cfg: dict) -> OpticalPath:
    return OpticalPath(**_fields(cfg, OpticalPath))


def build_chain(cfg: dict) -> ReceiverChain:
    return ReceiverChain(**_fields(cfg, ReceiverChain))


def build_geometry(cfg: dict) -> LinkGeometry:
    return LinkGeometry(build_path(cfg), build_chain(cfg), **_fields(cfg, LinkGeometry))


def build_session(cfg: dict, detector_name: str | None = None) -> qkd.QkdSessionModel:
    name = (detector_name or cfg["detector"]).lower()
    if name not in _DETECTORS:
        raise ConfigError(f"unknown detector {name!r}; choose from {sorted(_DETECTORS)}")
    return qkd.QkdSessionModel(_DETECTORS[name], **_fields(cfg, qkd.QkdSessionModel))


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


def parse_modes(text: str, j_max: int | None = None) -> tuple:
    """Parse a mode list like '1-35' or '3,5,7-10'.

    Each chunk is a mode >= 1 or an ascending range lo-hi of them; any other
    chunk raises ConfigError naming it.  Given a log's last mode j_max, a
    range ends at mode j_max + 1 (or at lo, if later): fit_fried stops at the
    first mode the log lacks, so the modes past it would go unread.
    """
    modes: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, dash, hi = chunk.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ConfigError(f"mode chunk {chunk!r} is not a mode or a range lo-hi") from None
        if first < 1:
            raise ConfigError(f"mode chunk {chunk!r} has a mode < 1")
        if last < first:
            raise ConfigError(f"mode range {chunk!r} is reversed")
        if j_max is not None:
            last = min(last, max(first, j_max + 1))
        modes.extend(range(first, last + 1))
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
        if not (args.eta_smf <= 0 and _is_ratio(from_db(args.eta_smf))):
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
    modes = parse_modes(args.modes, series.j_max) if args.modes else None
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
        write_output(args.out, {
            "r0_hat_m": fit.r0_hat, "r0_sigma_m": fit.r0_sigma, "residual_rms": fit.residual_rms,
            "fit_exponent_check": fit.fit_exponent_check, "modes_used": list(fit.modes_used),
        })
    return 0


def _load_log_for(chain: ReceiverChain, path: OpticalPath, log_file: str):
    """Load a WFS log, or ConfigError if its header disagrees with the config."""
    series, d_rx = estimation.load_wfs_log(log_file)
    for key, logged, configured in (
        ("d_rx_m", d_rx, chain.d_rx),
        ("wavelength_m", series.wavelength_tag, path.wavelength),
    ):
        if logged != configured:
            raise ConfigError(
                f"{log_file}: WFS log has {key}={logged!r} but the config has {configured!r}"
            )
    return series


def cmd_predict_smf(args, cfg: dict) -> int:
    if (args.ao_off is None) == (args.r0 is None):
        raise ConfigError("provide exactly one of --ao-off or --r0")
    chain = build_chain(cfg)
    path = build_path(cfg)
    ao_on = _load_log_for(chain, path, args.ao_on)
    if args.ao_off is not None:
        off_series = _load_log_for(chain, path, args.ao_off)
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
    names = ("mu1", "mu2", "p_mu1", "p_z_alice", "p_z_bob", "f_ec", "eps_sec", "eps_cor")
    protocol = " ".join(f"{name}={getattr(session, name)}" for name in names)
    tail = f"n_z={session.block_size} bytes detector={session.detector.label}"
    print(f"protocol defaults: {protocol} {tail}")
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
    import numpy as np

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
    chain = build_chain(cfg)
    config = synth.SynthConfig(
        r0=args.r0, d_rx=chain.d_rx, j_max=args.j_max, n_samples=args.n, sample_rate=args.rate,
        wind_speed=args.wind, ao_on=args.ao_on, ao_modes=chain.ao_modes, f_3db=chain.f_3db,
        wavelength=build_path(cfg).wavelength, seed=args.seed,
    )
    series = synth.generate_series(config)
    estimation.write_wfs_log(series, chain.d_rx, args.out_file)
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
    defaults = synth.SynthConfig
    p.add_argument("--wind", type=float, default=defaults.wind_speed)
    p.add_argument("--n", type=int, default=defaults.n_samples)
    p.add_argument("--rate", type=float, default=defaults.sample_rate)
    p.add_argument("--j-max", type=int, default=defaults.j_max)
    p.add_argument("--seed", type=int, default=defaults.seed)
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
