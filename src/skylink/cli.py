"""Command-line front end.

Subcommands: budget, fit-r0, predict-smf, qkd, sweep, synth.  A JSON config file
(--config or the SKYLINK_CONFIG environment variable) overrides the built-in
field-trial defaults.  An operating-point flag (--r0, --wind, --a-coeff, --detector)
is stored under its config key; main() copies the flags given over the config once,
so each command reads one operating point, the config.  Each command prints a table to
standard output and returns its record; main() writes it to --out as full-precision JSON or CSV.

Exit codes: 0 success, 2 usage/config, 3 domain/model, 4 I/O.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
import itertools
import json
import math
import os
import sys
from typing import NamedTuple

from . import estimation, qkd, synth
from .atmosphere import OpticalPath, TurbulenceState
from .coupling import ReceiverChain, SmfCouplingBreakdown, eta0, mode_match_beta
from .coupling import obscuration_ratio
from .estimation import FriedFit
from .linkbudget import LinkGeometry, full_budget, model_smf_breakdown, sweep_columns
from .units import _check_positive, _is_ratio, from_db, to_db

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
_FIELD_KEYS = {
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
    "pulse_rate_hz": _Field(qkd.QkdSessionModel, "pulse_rate"),
}
_OPERATING_POINT = {
    "r0_m": 0.0875,
    "wind_mps": 0.556,
    "a_coeff_db_per_km": 0.2,
    "detector": "snspd",
}
_KINDS = {str: "a string", float: "a number", int: "a whole number"}
# The keys of the fields that set the mode-match beta and the obscuration alpha
_BETA_KEYS = ", ".join(
    name for field in ("d_rx", "d_obs", "f_eff", "mfd", "wavelength")
    for name, key in _FIELD_KEYS.items() if key.name == field
)


def _default(key: _Field):
    value = key.owner.__dataclass_fields__[key.name].default
    return round(to_db(value), 10) if key.db else value  # -1.4, not -1.3999999999999995


# Every key's default, readable; the builders do not read it.  The type of a
# key's default is the kind of value the key takes (None: a whole number).
DEFAULT_CONFIG = {**{name: _default(key) for name, key in _FIELD_KEYS.items()}, **_OPERATING_POINT}

_DETECTORS = {d.label: d for d in (qkd.SNSPD, qkd.SPAD)}


def _checked(name: str, value):
    """The config value, or ConfigError if it is not of the key's kind."""
    default = DEFAULT_CONFIG[name]
    if value is None and default is None:  # the class resolves null
        return None
    kind = int if default is None else type(default)
    if kind is str:
        ok = isinstance(value, str)
    else:  # a JSON number, not true/false; for int keys a whole one
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
    cfg = dict(_OPERATING_POINT)
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
    cfg.update((name, _checked(name, value)) for name, value in user.items())
    return cfg


def _fields(cfg: dict, owner: type) -> dict:
    """Keyword arguments for owner: its fields that the config sets, in linear units."""
    return {
        key.name: from_db(cfg[name]) if key.db else cfg[name]
        for name, key in _FIELD_KEYS.items()
        if key.owner is owner and name in cfg
    }


def build_path(cfg: dict) -> OpticalPath:
    return OpticalPath(**_fields(cfg, OpticalPath))


def build_chain(cfg: dict) -> ReceiverChain:
    return ReceiverChain(**_fields(cfg, ReceiverChain))


def _build_optics(cfg: dict) -> tuple[OpticalPath, ReceiverChain]:
    """The path and chain, or ValueError naming the keys that set beta if they give no eta0."""
    path, chain = build_path(cfg), build_chain(cfg)
    try:
        eta0(mode_match_beta(chain, path.wavelength), obscuration_ratio(chain))
    except ValueError as exc:
        raise ValueError(f"{exc}; beta and alpha are set by config keys {_BETA_KEYS}") from None
    return path, chain


def build_geometry(cfg: dict) -> LinkGeometry:
    return LinkGeometry(*_build_optics(cfg), **_fields(cfg, LinkGeometry))


def build_session(cfg: dict, **flags) -> qkd.QkdSessionModel:
    """The session the config sets, with each flag given (not None) as its field."""
    name = cfg["detector"].lower()
    if name not in _DETECTORS:
        raise ConfigError(f"unknown detector {name!r}; choose from {sorted(_DETECTORS)}")
    given = {field: value for field, value in flags.items() if value is not None}
    return qkd.QkdSessionModel(_DETECTORS[name], **_fields(cfg, qkd.QkdSessionModel), **given)


def _write_csv(fh, record) -> None:
    """Write a record (a dict, or a list of dicts with the same keys) as CSV rows.

    A list value becomes one cell of its items joined by commas, as
    ``parse_modes`` reads a mode list back.
    """
    import csv

    rows = record if isinstance(record, list) else [record]
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(
        {k: ",".join(map(str, v)) if isinstance(v, list) else v for k, v in row.items()}
        for row in rows
    )


def write_output(path: str, record) -> None:
    """Write a command's record: JSON for a .json path, CSV otherwise."""
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, record)


def _print_db_table(table: dict) -> None:
    print("\n".join(f"  {name:<18} {db:+8.1f} dB" for name, db in table.items()))


def _ratio_from_db(name: str, db: float) -> float:
    """The linear ratio of a dB flag, or ValueError unless it is a finite dB value <= 0."""
    if not (db <= 0 and _is_ratio(from_db(db))):
        raise ValueError(f"{name} must be in (0, 1], a finite dB value <= 0, got {db} dB")
    return from_db(db)


def parse_modes(text: str):
    """Parse a mode list like '1-35' or '3,5,7-10' into an iterator over its modes.

    Each chunk is a mode >= 1 or an ascending range lo-hi of them; any other
    chunk raises ConfigError naming it, before the first mode is read.
    """
    ranges: list[range] = []
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
        ranges.append(range(first, last + 1))
    if not ranges:
        raise ConfigError(f"empty mode list {text!r}")
    return itertools.chain.from_iterable(ranges)


def cmd_budget(args, cfg: dict) -> dict:
    geom = build_geometry(cfg)
    r0, a_coeff, wind = cfg["r0_m"], cfg["a_coeff_db_per_km"], cfg["wind_mps"]
    ts = TurbulenceState.from_r0(r0, geom.path, wind)
    if args.eta_smf is None:
        smf = model_smf_breakdown(geom.chain, ts, geom.path)
    else:  # the measured coupling alone, so no modelled term can reject the point;
        # its nan terms do not compose to eta_smf, so an eta_ch out of range names it
        smf = SmfCouplingBreakdown(*[math.nan] * 6, eta_smf=_ratio_from_db("eta_smf", args.eta_smf))
    report = full_budget(geom, ts, a_coeff, smf)
    print(f"link budget  (r0 = {r0:.4g} m, A = {a_coeff:.3g} dB/km, wind = {wind:.3g} m/s)")
    print(f"  beam radius W_L    {report.w_l:8.3f} m")
    _print_db_table(report.db_table())
    return {**asdict(report), "r0_m": r0, "a_coeff_db_per_km": a_coeff}


_RESIDUAL_WARN = 0.5  # log-domain rms above this flags non-Kolmogorov data


def cmd_fit_r0(args, cfg: dict) -> dict:
    chain = build_chain(cfg)
    series = _load_log_for(chain, build_path(cfg), args.wfs_csv)
    variances = estimation.empirical_variances(series)
    modes = parse_modes(args.modes) if args.modes else None
    fit = estimation.fit_fried(variances, chain.d_rx, modes)
    print(f"Fried parameter fit over {len(fit.modes_used)} modes (D_Rx = {chain.d_rx:.3g} m)")
    print(f"  r0_hat             {fit.r0_hat * 100:8.2f} cm")
    print(f"  r0_sigma           {fit.r0_sigma * 100:8.2f} cm")
    print(f"  residual_rms (log) {fit.residual_rms:8.3f}")
    print(f"  exponent check     {fit.fit_exponent_check:8.3f}  (1 = Kolmogorov)")
    if fit.residual_rms > _RESIDUAL_WARN:
        print(
            "  warning: residual rms is high; data deviate from the Kolmogorov "
            "per-mode variance law (closed-loop data?)"
        )
    return {
        "r0_hat_m": fit.r0_hat, "r0_sigma_m": fit.r0_sigma, "residual_rms": fit.residual_rms,
        "fit_exponent_check": fit.fit_exponent_check, "modes_used": list(fit.modes_used),
    }


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


def cmd_predict_smf(args, cfg: dict) -> dict:
    if (args.ao_off is None) == (args.r0_m is None):
        raise ConfigError("provide exactly one of --ao-off or --r0")
    path, chain = _build_optics(cfg)
    ao_on = _load_log_for(chain, path, args.ao_on)
    if args.ao_off is not None:
        off_series = _load_log_for(chain, path, args.ao_off)
        fit = estimation.fit_fried(estimation.empirical_variances(off_series), chain.d_rx)
    else:
        _check_positive("r0", cfg["r0_m"])  # named as the flag, not as FriedFit's r0_hat
        fit = FriedFit(cfg["r0_m"], 0.0, float("nan"), 0.0, ("manual",))
    wind = cfg["wind_mps"]
    terms = asdict(estimation.predict_eta_smf(ao_on, fit, wind, chain, path))
    print(f"predicted SMF coupling  (r0 = {fit.r0_hat:.4g} m, wind = {wind:.3g} m/s)")
    _print_db_table({name: to_db(ratio) for name, ratio in terms.items()})
    return terms


def cmd_qkd(args, cfg: dict) -> dict:
    if (args.log is None) == (args.eta_ch is None):
        raise ConfigError("provide exactly one of --log or --eta-ch")
    if args.log is not None and args.intrinsic_qber is not None:
        raise ConfigError("--intrinsic-qber applies to --eta-ch; a session log has its own QBER")
    session = build_session(cfg, intrinsic_qber=args.intrinsic_qber)
    names = ("mu1", "mu2", "p_mu1", "p_z_alice", "p_z_bob", "f_ec", "eps_sec", "eps_cor")
    protocol = " ".join(f"{name}={getattr(session, name)}" for name in names)
    tail = f"n_z={session.block_size} bytes detector={session.detector.label}"
    lines = [f"protocol: {protocol} {tail}"]  # printed once every check has passed
    if args.log is not None:
        records = qkd.load_session_log(args.log)
        summary = qkd.analyze_session_log(records)
        signal = summary["signal_rate"]["mean"]
        qber_z = summary["qber_z"]["mean"]
        qber_x = summary["qber_x"]["mean"]
        eta_ch = qkd.channel_efficiency_from_rate(session, signal)
        skr = qkd.secret_key_rate(session, signal, qber_z, qber_x)
        lines.append(f"session log: {len(records)} records")
        lines.extend(
            f"  {name:<12} mean {stats['mean']:12.4g}   min {stats['min']:12.4g}"
            f"   max {stats['max']:12.4g}   std {stats['std']:12.4g}"
            for name, stats in summary.items()
        )
        lines += [
            f"  inferred eta_ch    {to_db(eta_ch):+8.1f} dB",
            f"  secret key rate    {skr:10.1f} bit/s (from mean rate/QBER)",
        ]
        payload = {
            "eta_ch": eta_ch,
            "skr_bps": skr,
            **{f"{k}_{s}": v for k, st in summary.items() for s, v in st.items()},
        }
    else:
        eta_ch = _ratio_from_db("eta_ch", args.eta_ch)
        point = qkd.key_rate_point(session, eta_ch)
        lines += [
            f"  expected signal    {point.signal_hz:10.1f} Hz",
            f"  noise (in window)  {point.noise_hz:10.1f} Hz",
            f"  expected QBER      {point.qber:10.4f}",
            f"  secret key rate    {point.skr_bps:10.1f} bit/s",
        ]
        payload = {"eta_ch": eta_ch, **point._asdict()}
    print("\n".join(lines))
    return payload


def cmd_sweep(args, cfg: dict) -> list:
    import numpy as np

    geom = build_geometry(cfg)
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    values = [args.min] if args.steps == 1 else np.linspace(args.min, args.max, args.steps).tolist()
    if args.var == "J":
        values = [round(v) for v in values]  # label each row with the J it evaluates
    point = {"r0": cfg["r0_m"], "wind": cfg["wind_mps"], "a_coeff": cfg["a_coeff_db_per_km"]}
    point[args.var] = values
    cols = sweep_columns(geom, point["r0"], point["wind"], point["a_coeff"], point.get("J"))
    del cols["r0_m"]  # the swept column takes its place, first
    names = ["r0_m" if args.var == "r0" else args.var, *cols]
    rows = [dict(zip(names, row)) for row in zip(values, *(c.tolist() for c in cols.values()))]
    _write_csv(sys.stdout, rows)
    return rows


def cmd_synth(args, cfg: dict) -> None:
    if args.out:
        raise ConfigError("synth writes its log to OUT_FILE; --out does not apply")
    chain = build_chain(cfg)
    config = synth.SynthConfig(
        r0=cfg["r0_m"], d_rx=chain.d_rx, j_max=args.j_max, n_samples=args.n, sample_rate=args.rate,
        wind_speed=cfg["wind_mps"], ao_on=args.ao_on, ao_modes=chain.ao_modes, f_3db=chain.f_3db,
        wavelength=build_path(cfg).wavelength, seed=args.seed,
    )
    series = synth.generate_series(config)
    estimation.write_wfs_log(series, chain.d_rx, args.out_file)
    print(
        f"wrote {series.n_samples} samples x {series.j_max} modes to {args.out_file} "
        f"(r0 = {config.r0:.4g} m, ao_on = {args.ao_on}, seed = {args.seed})"
    )


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
    p.add_argument("--r0", type=float, dest="r0_m", help="Fried parameter in m")
    p.add_argument("--a-coeff", type=float, dest="a_coeff_db_per_km", help="absorption in dB/km")
    p.add_argument("--wind", type=float, dest="wind_mps", help="mean transverse wind in m/s")
    p.add_argument("--eta-smf", type=float, help="override SMF coupling, in dB")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("fit-r0", help="fit the Fried parameter from a WFS log")
    p.add_argument("wfs_csv")
    p.add_argument("--modes", help="modes to fit, e.g. '3-35' to exclude tilts")
    p.set_defaults(func=cmd_fit_r0)

    p = sub.add_parser("predict-smf", help="predict SMF coupling from WFS data")
    p.add_argument("--ao-on", required=True, help="AO-ON WFS log CSV")
    p.add_argument("--ao-off", help="AO-OFF WFS log CSV (fits r0)")
    p.add_argument("--r0", type=float, dest="r0_m", help="Fried r0 in m (instead of --ao-off)")
    p.add_argument("--wind", type=float, dest="wind_mps", help="mean transverse wind in m/s")
    p.set_defaults(func=cmd_predict_smf)

    p = sub.add_parser("qkd", help="rates, QBER and secret key rate")
    p.add_argument("--log", help="session-log CSV")
    p.add_argument("--eta-ch", type=float, help="channel efficiency in dB")
    p.add_argument("--detector", choices=sorted(_DETECTORS), help="detector model")
    p.add_argument(
        "--intrinsic-qber", type=float,
        help=f"intrinsic QBER for --eta-ch (default {qkd.QkdSessionModel.intrinsic_qber})",
    )
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("sweep", help="sweep one variable, emit all efficiency terms")
    p.add_argument("--var", choices=["r0", "wind", "a_coeff", "J"], default="r0")
    p.add_argument("--min", type=float, default=0.03)
    p.add_argument("--max", type=float, default=0.15)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic WFS log")
    p.add_argument("out_file")
    p.add_argument("--r0", type=float, dest="r0_m", required=True)
    p.add_argument("--wind", type=float, dest="wind_mps", help="m/s (default: config wind_mps)")
    defaults = synth.SynthConfig
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
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.DEBUG)
    try:
        if args.out and not args.out.endswith((".json", ".csv")):  # before any work or output
            raise ConfigError(f"cannot infer output format from {args.out!r} (use .json or .csv)")
        cfg = load_config(args.config)
        # a flag given overrides the config key named by its dest
        cfg.update((k, v) for k, v in vars(args).items() if k in DEFAULT_CONFIG and v is not None)
        record = args.func(args, cfg)  # prints the command's table
        if args.out:
            write_output(args.out, record)
        return 0
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
