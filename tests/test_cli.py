import json
import subprocess
import sys
import tracemalloc

import pytest

from skylink import cli

from conftest import fresh_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_budget_default(capsys):
    code, out, _ = run(capsys, "budget")
    assert code == 0
    assert "eta_ch" in out
    assert "dB" in out


def test_budget_machine_output(tmp_path, capsys):
    out_file = tmp_path / "budget.json"
    code, _, _ = run(capsys, "--out", str(out_file), "budget", "--r0", "0.15")
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["r0_m"] == 0.15
    assert 0 < payload["eta_ch"] < 1
    assert payload["eta_ch"] == pytest.approx(
        payload["eta_focus"] * payload["eta_optics"] * payload["eta_smf"] * payload["eta_fiber"],
        rel=1e-12,
    )


def test_budget_domain_error(capsys):
    code, _, err = run(capsys, "budget", "--r0", "-0.1")
    assert code == 3
    assert "error" in err


def test_budget_r0_past_the_float_range_exits_3_without_output(tmp_path, capsys):
    out_file = tmp_path / "budget.json"
    code, _, err = run(capsys, "--out", str(out_file), "budget", "--r0", "1e-300")
    assert code == 3
    assert "r0 must give a finite, positive Cn2" in err
    assert not out_file.exists()


def test_budget_absorption_past_the_float_range_exits_3_before_printing(tmp_path, capsys):
    out_file = tmp_path / "budget.json"
    code, out, err = run(capsys, "--out", str(out_file), "budget", "--a-coeff", "1000")
    assert code == 3
    assert out == ""
    assert "a_coeff_db_km must give a finite, positive eta_a" in err
    assert not out_file.exists()


def test_a_transmit_waist_no_r0_can_collect_exits_3_naming_w0(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"w0_m": 1e-150}')
    code, out, err = run(capsys, "--config", str(cfg), "budget")
    assert code == 3
    assert out == ""
    assert err == "error: w0 must give a finite, positive eta_coll, got 1e-150 (eta_coll = 0.0)\n"


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ('{"eps_sec": 1e-300}', ["qkd", "--eta-ch", "-29"],
         "eps_sec must give a finite, positive gamma factor, got 1e-300 (gamma factor = inf)"),
        ('{"d_rx_m": 1e200, "d_obs_m": 1e199}', ["budget"],
         "d_rx must give a finite, positive d_rx^2, got 1e+200 (d_rx^2 = inf)"),
        ('{"path_length_m": 1e-158}', ["budget"],
         "r0 must give a finite, positive eta_coll, got 0.0875 (eta_coll = 0.0)"),
        ('{"path_length_m": 1e-158}', ["sweep", "--steps", "2"],
         "r0 must give a finite, positive eta_coll, got 0.03 (eta_coll = 0.0) (sweep point 0)"),
        ('{"f_3db_hz": 0.001}', ["budget"],
         "f_3db must give a finite, positive eta_tau, got 0.001 (eta_tau = 0.0)"),
        ('{"w0_m": 1e-200}', ["budget"],
         "w0 must give a finite, positive rayleigh range, got 1e-200 (rayleigh range = 0.0)"),
    ],
    ids=["qkd-eps_sec", "budget-d_rx", "budget-path_length", "sweep-path_length", "budget-f_3db",
         "budget-w0"],
)
def test_a_setting_past_the_float_range_exits_3_naming_it(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def _range(name, value, what, result="0.0"):
    return f"{name} must give a finite, positive {what}, got {value} ({what} = {result})"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["budget", "--r0", "1e-80"], _range("r0", "1e-80", "eta_phi_residual")),
        (["budget", "--r0", "1e-4"], _range("r0", "0.0001", "eta_phi_residual")),
        (["budget", "--r0", "7.8e-4", "--wind", "0.72"], _range("r0", "0.00078", "eta_smf")),
        (["budget", "--wind", "1e300"], _range("wind_speed", "1e+300", "eta_tau")),
        (["budget", "--wind", "1e5"], _range("wind_speed", "100000.0", "eta_tau")),
        (
            ["sweep", "--var", "wind", "--min", "1e300", "--max", "1e300", "--steps", "1"],
            _range("wind_speed", "1e+300", "eta_tau") + " (sweep point 0)",
        ),
        (
            ["predict-smf", "--ao-on", "on.csv", "--r0", "0.08", "--wind", "1e300"],
            _range("wind_speed", "1e+300", "eta_tau"),
        ),
        (
            ["synth", "o.csv", "--r0", "0.08", "--n", "3", "--rate", "1e-320"],
            _range("sample_rate", "1e-320", "last timestamp", "inf"),
        ),
        (["budget", "--a-coeff", "179"], _range("a_coeff_db_km", "179.0", "eta_ch")),
        (["budget", "--eta-smf", "-3230"], _range("eta_smf", "1e-323", "eta_ch")),
        (["budget", "--wind", "107.53"], _range("wind_speed", "107.53", "eta_smf")),
    ],
    ids=["r0-eta_s", "r0-eta_phi_residual", "r0-eta_smf", "wind-overflow", "wind-eta_tau",
         "sweep-wind", "predict-smf-wind", "synth-rate", "a_coeff-eta_ch", "eta_smf-eta_ch",
         "wind-eta_smf"],
)
def test_an_operating_point_past_the_float_range_exits_3_naming_its_input(
    tmp_path, capsys, monkeypatch, argv, message
):
    """No traceback, table line or numpy warning: the range rule's message names the flag's input."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "on.csv", "--r0", "0.08", "--n", "300", "--ao-on")
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")
    assert not (tmp_path / "o.csv").exists()


def test_synth_at_a_greenwood_frequency_past_the_float_range_writes_an_uncorrected_log(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    common = ["--r0", "0.08", "--n", "50", "--wind", "1e300"]
    assert run(capsys, "synth", "on.csv", *common, "--ao-on")[0] == 0
    assert run(capsys, "synth", "off.csv", *common)[0] == 0
    assert (tmp_path / "on.csv").read_text() == (tmp_path / "off.csv").read_text()


@pytest.mark.parametrize(
    "argv",
    [["budget"], ["sweep", "--steps", "3"], ["predict-smf", "--ao-on", "on.csv", "--r0", "0.08"]],
    ids=["budget", "sweep", "predict-smf"],
)
def test_a_chain_with_no_eta0_names_the_config_keys_that_set_beta(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "on.csv", "--r0", "0.08", "--n", "300", "--ao-on")
    (tmp_path / "cfg.json").write_text('{"mfd_m": 0.01}')
    code, out, err = run(capsys, "--config", "cfg.json", *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "error: beta must give a finite, positive eta0, got 1035.412369752263 (eta0 = 0.0); "
        "beta and alpha are set by config keys d_rx_m, d_obs_m, f_eff_m, mfd_m, wavelength_m\n"
    )


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_key": 1}')
    code, _, err = run(capsys, "--config", str(cfg), "budget")
    assert code == 2
    assert "no_such_key" in err


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    code, _, err = run(capsys, "--config", str(cfg), "budget")
    assert code == 2


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a_coeff_db_per_km": 0.3}')
    monkeypatch.setenv("SKYLINK_CONFIG", str(cfg))
    out_file = tmp_path / "b.json"
    code, _, _ = run(capsys, "--out", str(out_file), "budget")
    assert code == 0
    assert json.loads(out_file.read_text())["a_coeff_db_per_km"] == 0.3


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a_coeff_db_per_km": 0.3}')
    out_file = tmp_path / "b.json"
    code, _, _ = run(
        capsys, "--config", str(cfg), "--out", str(out_file), "budget", "--a-coeff", "0.1"
    )
    assert code == 0
    assert json.loads(out_file.read_text())["a_coeff_db_per_km"] == 0.1


@pytest.mark.parametrize(
    "argv, flag, key, configured, flagged",
    [
        (["budget"], "--r0", "r0_m", 0.12, 0.07),
        (["budget"], "--wind", "wind_mps", 1.5, 3.0),
        (["budget"], "--a-coeff", "a_coeff_db_per_km", 0.3, 0.1),
        (["predict-smf", "--ao-on", "on.csv", "--r0", "0.08"], "--wind", "wind_mps", 1.5, 3.0),
        (["qkd", "--eta-ch", "-29"], "--detector", "detector", "spad", "snspd"),
        (["synth", "w.csv", "--r0", "0.08", "--n", "300", "--ao-on"], "--wind", "wind_mps",
         1.5, 3.0),
    ],
    ids=["budget-r0", "budget-wind", "budget-a-coeff", "predict-smf-wind", "qkd-detector",
         "synth-wind"],
)
def test_config_sets_the_operating_point_and_a_flag_overrides_it(
    tmp_path, capsys, monkeypatch, argv, flag, key, configured, flagged
):
    """Without the flag the command runs at the config's value; with it, at the flag's."""
    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "on.csv", "--r0", "0.08", "--n", "300", "--wind", "0.556", "--ao-on")
    (tmp_path / "cfg.json").write_text(json.dumps({key: configured}))

    def outcome(*config, value=None):
        """(exit code, stdout, bytes written) of one call."""
        written = tmp_path / ("w.csv" if argv[0] == "synth" else "o.json")
        written.unlink(missing_ok=True)
        out = [] if argv[0] == "synth" else ["--out", written.name]  # synth takes no --out
        tail = [] if value is None else [flag, str(value)]
        code, stdout, _ = run(capsys, *config, *out, *argv, *tail)
        return code, stdout, written.read_bytes()

    config = ("--config", "cfg.json")
    from_config = outcome(*config)
    assert from_config[0] == 0
    assert from_config == outcome(value=configured)
    assert outcome(*config, value=flagged) == outcome(value=flagged) != from_config


def test_synth_wind_defaults_to_the_configured_wind(tmp_path, capsys, monkeypatch):
    """synth without --wind writes the log --wind wind_mps writes: at the default wind,
    an AO-ON log whose coefficients are not all zero.  (Under a config: the overlay test.)"""
    from skylink import estimation

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    default, flagged = tmp_path / "default.csv", tmp_path / "flagged.csv"
    argv = ["--r0", "0.08", "--n", "300", "--seed", "3", "--ao-on"]
    wind = repr(cli.DEFAULT_CONFIG["wind_mps"])
    assert run(capsys, "synth", str(default), *argv)[0] == 0
    assert run(capsys, "synth", str(flagged), *argv, "--wind", wind)[0] == 0
    assert default.read_bytes() == flagged.read_bytes()
    series, _ = estimation.load_wfs_log(default)
    assert series.coefficients.any()


def test_synth_then_fit_round_trip(tmp_path, capsys):
    wfs = tmp_path / "wfs.csv"
    code, _, _ = run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "8000", "--seed", "3")
    assert code == 0
    out_file = tmp_path / "fit.json"
    code, out, _ = run(capsys, "--out", str(out_file), "fit-r0", str(wfs))
    assert code == 0
    fit = json.loads(out_file.read_text())
    assert fit["r0_hat_m"] == pytest.approx(0.08, rel=0.05)
    assert "r0_hat" in out


def test_synth_rejects_the_global_out(tmp_path, capsys):
    wfs, out_file = tmp_path / "wfs.csv", tmp_path / "x.json"
    code, _, err = run(capsys, "--out", str(out_file), "synth", str(wfs), "--r0", "0.08")
    assert code == 2
    assert "OUT_FILE" in err
    assert not out_file.exists()
    assert not wfs.exists()


def test_synth_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, "synth", str(a), "--r0", "0.06", "--n", "200", "--seed", "9")[0] == 0
    assert run(capsys, "synth", str(b), "--r0", "0.06", "--n", "200", "--seed", "9")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "fit-r0", str(tmp_path / "absent.csv"))
    assert code == 4
    assert "error" in err


def test_fit_rejects_non_finite_log(tmp_path, capsys):
    p = tmp_path / "nan.csv"
    p.write_text("# wavelength_m=1.555e-06 d_rx_m=0.41\nt_s,valid,b1,b2,b3\n0.0,1,0.1,nan,0.2\n")
    code, out, err = run(capsys, "fit-r0", str(p))
    assert code == 3
    assert ":3: non-finite" in err
    assert "r0_hat" not in out


@pytest.mark.parametrize("n_valid", [1, 0])
def test_a_log_with_fewer_than_two_valid_rows_names_the_count(tmp_path, capsys, n_valid):
    p = tmp_path / "wfs.csv"
    header = "# wavelength_m=1.555e-06 d_rx_m=0.41\nt_s,valid,b1,b2,b3\n"
    flags = [1] * n_valid + [0] * (5 - n_valid)
    p.write_text(header + "".join(f"{k}.0,{v},0.1,-0.2,0.{k}\n" for k, v in enumerate(flags)))
    for argv in (["fit-r0", str(p)], ["predict-smf", "--ao-on", str(p), "--r0", "0.08"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: need at least 2 valid samples, got {n_valid}\n")


def test_fit_mode_selection(tmp_path, capsys):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "4000", "--seed", "3")
    out_file = tmp_path / "fit.json"
    code, _, _ = run(capsys, "--out", str(out_file), "fit-r0", str(wfs), "--modes", "3-35")
    assert code == 0
    fit = json.loads(out_file.read_text())
    assert fit["modes_used"] == list(range(3, 36))


def test_fit_over_one_radial_order_exits_3_without_writing(tmp_path, capsys):
    """Modes 3-5 share radial order 2, so the exponent check has no slope to give."""
    wfs, out_file = tmp_path / "wfs.csv", tmp_path / "fit.json"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "200", "--seed", "3")
    code, out, err = run(capsys, "--out", str(out_file), "fit-r0", str(wfs), "--modes", "3-5")
    assert code == 3
    assert "radial order 2" in err
    assert "r0_hat" not in out
    assert not out_file.exists()


def test_fit_warns_on_closed_loop_data(tmp_path, capsys):
    wfs = tmp_path / "on.csv"
    run(
        capsys, "synth", str(wfs), "--r0", "0.08", "--n", "4000", "--seed", "3",
        "--ao-on", "--wind", "0.556", "--j-max", "50",
    )
    code, out, _ = run(capsys, "fit-r0", str(wfs))
    assert code == 0
    assert "warning" in out


def test_predict_smf_requires_one_source(tmp_path, capsys):
    wfs = tmp_path / "on.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "500", "--seed", "1", "--ao-on")
    code, _, err = run(capsys, "predict-smf", "--ao-on", str(wfs))
    assert code == 2
    code, _, err = run(
        capsys, "predict-smf", "--ao-on", str(wfs), "--ao-off", str(wfs), "--r0", "0.08"
    )
    assert code == 2


def test_predict_smf_from_logs(tmp_path, capsys):
    on = tmp_path / "on.csv"
    off = tmp_path / "off.csv"
    run(
        capsys, "synth", str(on), "--r0", "0.0875", "--n", "6000", "--seed", "1",
        "--ao-on", "--wind", "0.556",
    )
    run(capsys, "synth", str(off), "--r0", "0.0875", "--n", "6000", "--seed", "2")
    out_file = tmp_path / "smf.json"
    code, out, _ = run(
        capsys, "--out", str(out_file), "predict-smf", "--ao-on", str(on),
        "--ao-off", str(off), "--wind", "0.556",
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["eta_smf"] == pytest.approx(
        payload["eta0"] * payload["eta_s"] * payload["eta_phi_on"]
        * payload["eta_phi_residual"] * payload["eta_tau"],
        rel=1e-12,
    )
    assert "eta_smf" in out


def test_predict_smf_from_r0_matches_the_ao_off_fit(tmp_path, capsys):
    on, off = tmp_path / "on.csv", tmp_path / "off.csv"
    run(capsys, "synth", str(on), "--r0", "0.08", "--n", "500", "--seed", "1", "--ao-on")
    run(capsys, "synth", str(off), "--r0", "0.08", "--n", "500", "--seed", "2")
    fit_file, from_off, from_r0 = (tmp_path / name for name in ("fit.json", "a.json", "b.json"))
    assert run(capsys, "--out", str(fit_file), "fit-r0", str(off))[0] == 0
    r0 = repr(json.loads(fit_file.read_text())["r0_hat_m"])
    argv = ["predict-smf", "--ao-on", str(on)]
    assert run(capsys, "--out", str(from_off), *argv, "--ao-off", str(off))[0] == 0
    assert run(capsys, "--out", str(from_r0), *argv, "--r0", r0)[0] == 0
    assert json.loads(from_r0.read_text()) == json.loads(from_off.read_text())


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_predict_smf_names_a_bad_r0_flag_as_r0(tmp_path, capsys, value):
    on = tmp_path / "on.csv"
    run(capsys, "synth", str(on), "--r0", "0.08", "--n", "500", "--seed", "1", "--ao-on")
    code, out, err = run(capsys, "predict-smf", "--ao-on", str(on), "--r0", value)
    assert (code, out) == (3, "")
    assert err == f"error: r0 must be finite and positive, got {float(value)}\n"


def test_qkd_from_eta(tmp_path, capsys):
    """The -29 dB key-rate anchors as printed, SNSPD and SPAD."""
    out_file = tmp_path / "qkd.json"
    code, out, _ = run(capsys, "--out", str(out_file), "qkd", "--eta-ch", "-29")
    assert code == 0
    assert out.splitlines()[-1] == "  secret key rate        1566.9 bit/s"
    assert "mu1=" in out
    payload = json.loads(out_file.read_text())
    assert payload["signal_hz"] == pytest.approx(20.4e3, rel=1e-6)
    assert 500 <= payload["skr_bps"] <= 2000
    code, out, _ = run(capsys, "qkd", "--eta-ch", "-29", "--detector", "spad")
    assert (code, out.splitlines()[-1]) == (0, "  secret key rate         167.1 bit/s")


def test_verbose_names_why_the_key_rate_clamped_on_stderr():
    """At -35 dB the SPAD's bound is non-positive: qkd prints 0.0 bit/s, and
    --verbose logs why on stderr.  In a fresh interpreter, since under pytest
    the root logger has handlers already and logging.basicConfig adds none."""
    code = "import sys\nfrom skylink.cli import main\nsys.exit(main(sys.argv[1:]))"
    argv = ["--verbose", "qkd", "--eta-ch", "-35", "--detector", "spad"]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "  secret key rate           0.0 bit/s"
    assert "secret_key_rate: bound non-positive" in done.stderr


def test_qkd_prints_the_protocol_it_runs_at(tmp_path, capsys):
    """The protocol line names the configured values, not the built-in defaults."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu1": 0.5}))
    code, out, _ = run(capsys, "--config", str(cfg), "qkd", "--eta-ch", "-29")
    assert code == 0
    assert out.startswith("protocol: mu1=0.5 mu2=0.1 ")


def test_qkd_requires_one_source(tmp_path, capsys):
    for argv in (["qkd"], ["qkd", "--log", str(tmp_path / "s.csv"), "--eta-ch", "-29"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "exactly one of --log or --eta-ch" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--eta-ch", "5"], "eta_ch must be in (0, 1]"),
        (["--eta-ch", "-29", "--intrinsic-qber", "0.6"], "intrinsic_qber must be in [0, 0.5]"),
        (["--log", "zero_rate.csv"], "measured_rate must be finite and positive"),
        (["--eta-ch", "-3233"], "eta_ch must give a finite, positive block time, got 5e-324"),
        (["--eta-ch", "5", "--intrinsic-qber", "0.7"],
         "intrinsic_qber must be in [0, 0.5], got 0.7"),
    ],
    ids=["eta-ch-above-1", "qber-above-half", "zero-rate-log", "eta-ch-past-block-time",
         "session-checked-first"],
)
def test_qkd_checks_its_operating_point_before_printing(
    tmp_path, capsys, monkeypatch, argv, message
):
    from skylink import qkd as qkd_mod

    monkeypatch.chdir(tmp_path)
    zero_rate = qkd_mod.RateObservation(0.0, 0.0, 2000.0, 0.008, 0.011)
    qkd_mod.write_session_log([zero_rate], "zero_rate.csv")
    out_file = tmp_path / "q.json"
    code, out, err = run(capsys, "--out", str(out_file), "qkd", *argv)
    assert (code, out) == (3, "")
    assert message in err
    assert not out_file.exists()


def test_qkd_intrinsic_qber_defaults_to_0_005_with_eta_ch(capsys):
    default = run(capsys, "qkd", "--eta-ch", "-29")
    assert default[0] == 0
    assert run(capsys, "qkd", "--eta-ch", "-29", "--intrinsic-qber", "0.005") == default
    assert run(capsys, "qkd", "--eta-ch", "-29", "--intrinsic-qber", "0.02")[1] != default[1]


@pytest.mark.parametrize("source", [["--eta-ch", "-29"], ["--log", "session.csv"]])
def test_qkd_rejects_a_pulse_rate_of_zero_from_either_source(tmp_path, capsys, monkeypatch, source):
    """The pulse rate is a session field, so a log, whose noise is measured, checks it too."""
    from skylink import qkd as qkd_mod

    monkeypatch.chdir(tmp_path)
    qkd_mod.write_session_log(
        [qkd_mod.RateObservation(0.0, 20400.0, 2000.0, 0.008, 0.011)], "session.csv"
    )
    (tmp_path / "pulse.json").write_text(json.dumps({"pulse_rate_hz": 0}))
    code, out, err = run(capsys, "--config", "pulse.json", "qkd", *source)
    assert (code, out) == (3, "")
    assert err == "error: pulse_rate must be finite and positive, got 0\n"


def test_qkd_intrinsic_qber_flag_sets_the_session_field(tmp_path, capsys):
    from skylink import qkd as qkd_mod
    from skylink.units import from_db

    out_file = tmp_path / "q.json"
    code, _, _ = run(capsys, "--out", str(out_file), "qkd", "--eta-ch", "-29",
                     "--intrinsic-qber", "0.02")
    assert code == 0
    eta_ch = from_db(-29.0)
    session = qkd_mod.QkdSessionModel(qkd_mod.SNSPD, intrinsic_qber=0.02)
    point = qkd_mod.key_rate_point(session, eta_ch)
    assert json.loads(out_file.read_text()) == {"eta_ch": eta_ch, **point._asdict()}


def test_qkd_from_a_log_rejects_the_intrinsic_qber_flag(tmp_path, capsys):
    """A session log carries its own QBER, so the flag would be silently ignored."""
    from skylink import qkd as qkd_mod

    log = tmp_path / "session.csv"
    qkd_mod.write_session_log([qkd_mod.RateObservation(0.0, 20400.0, 2000.0, 0.008, 0.011)], log)
    code, out, err = run(capsys, "qkd", "--log", str(log), "--intrinsic-qber", "7")
    assert (code, out) == (2, "")
    assert "--intrinsic-qber applies to --eta-ch" in err


def test_qkd_from_log(tmp_path, capsys):
    from skylink import qkd as qkd_mod

    log = tmp_path / "session.csv"
    records = [
        qkd_mod.RateObservation(float(i), 20400.0, 2000.0, 0.008, 0.011, None)
        for i in range(5)
    ]
    qkd_mod.write_session_log(records, log)
    code, out, _ = run(capsys, "qkd", "--log", str(log))
    assert code == 0
    assert "inferred eta_ch" in out
    assert "-29.0 dB" in out


@pytest.mark.parametrize(
    "argv",
    [["budget"], ["sweep", "--steps", "3"], ["fit-r0", "absent.csv"]],
    ids=["budget", "sweep", "fit-r0"],
)
def test_bad_out_extension_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--out", "o.txt", *argv)
    assert (code, out) == (2, "")
    assert err == "error: cannot infer output format from 'o.txt' (use .json or .csv)\n"
    assert list(tmp_path.iterdir()) == []


_SWEEP_GRIDS = {
    "r0": ("0.03", "0.15"), "wind": ("0", "12"), "a_coeff": ("0", "0.6"), "J": ("1", "66"),
}


@pytest.mark.parametrize("var", list(_SWEEP_GRIDS))
def test_sweep_output_is_built_from_the_columns(tmp_path, capsys, monkeypatch, var):
    import numpy as np

    from skylink.linkbudget import sweep_columns

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    lo, hi = _SWEEP_GRIDS[var]
    values = np.linspace(float(lo), float(hi), 7).tolist()
    if var == "J":
        values = [round(v) for v in values]
    d = cli.DEFAULT_CONFIG
    point = {"r0": d["r0_m"], "wind": d["wind_mps"], "a_coeff": d["a_coeff_db_per_km"], "J": None}
    point[var] = values
    cols = sweep_columns(cli.build_geometry(cli.load_config(None)), *point.values())
    del cols["r0_m"]
    names = ["r0_m" if var == "r0" else var, *cols]
    table = list(zip(values, *(c.tolist() for c in cols.values())))
    lines = [",".join(names), *(",".join(map(repr, row)) for row in table)]
    want_csv = "".join(line + "\r\n" for line in lines)
    want_json = json.dumps([dict(zip(names, row)) for row in table], indent=2, sort_keys=True)
    want_json += "\n"
    for suffix, want in ((".csv", want_csv), (".json", want_json)):
        out_file = tmp_path / f"sweep{suffix}"
        code, out, _ = run(
            capsys, "--out", str(out_file), "sweep", "--var", var, "--min", lo, "--max", hi,
            "--steps", "7",
        )
        assert code == 0
        assert out == want_csv
        assert out_file.read_bytes() == want.encode()


def test_sweep_stdout_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "3")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0].startswith("r0_m,")
    assert len(lines) == 4


def test_sweep_other_variable(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "--out", str(out_file), "sweep", "--var", "J",
        "--min", "2", "--max", "35", "--steps", "2",
    )
    assert code == 0
    text = out_file.read_text().strip().splitlines()
    assert text[0].startswith("J,")
    assert len(text) == 3


def test_sweep_j_rows_hold_the_evaluated_j(tmp_path, capsys):
    import math

    from skylink.zernike import residual_variance

    out_file = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys, "--out", str(out_file), "sweep", "--var", "J", "--min", "1", "--max", "36",
        "--steps", "4",
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert [row["J"] for row in rows] == [1, 13, 24, 36]
    assert [line.split(",")[0] for line in out.splitlines()] == ["J", "1", "13", "24", "36"]
    d = cli.DEFAULT_CONFIG
    for row in rows:
        want = math.exp(-residual_variance(row["J"], d["d_rx_m"], d["r0_m"]))
        assert row["eta_phi_residual"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, quantity", [("--r0", "r0"), ("--wind", "wind_speed"), ("--a-coeff", "a_coeff")]
)
def test_budget_rejects_non_finite_flag(tmp_path, capsys, flag, quantity, value):
    out_file = tmp_path / "b.json"
    code, _, err = run(capsys, "--out", str(out_file), "budget", flag, value)
    assert code == 3
    assert f"error: {quantity}" in err
    assert "must be finite" in err
    assert not out_file.exists()


def test_sweep_rejects_non_finite_absorption(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "--out", str(out_file), "sweep", "--var", "a_coeff", "--min", "nan", "--steps", "2"
    )
    assert code == 3
    assert "a_coeff_db_km must be finite" in err and "sweep point 0" in err
    assert not out_file.exists()


def test_budget_focus_band(tmp_path, capsys):
    import math

    out_file = tmp_path / "b.json"
    code, _, _ = run(
        capsys, "--out", str(out_file), "budget", "--r0", "0.15", "--a-coeff", "0.2"
    )
    assert code == 0
    eta_focus = json.loads(out_file.read_text())["eta_focus"]
    # weak-turbulence end of the design band: ~ -9.6 dB (absorption -3.6,
    # collection -6.0); strong-turbulence end approaches -17 dB
    assert -17.0 <= 10 * math.log10(eta_focus) <= -9.0


def test_budget_eta_smf_override(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    code, _, _ = run(capsys, "--out", str(out_file), "budget", "--eta-smf", "-9.2")
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["eta_smf"] == pytest.approx(10 ** (-0.92), rel=1e-12)
    assert payload["eta_ch"] == pytest.approx(
        payload["eta_focus"] * payload["eta_optics"] * payload["eta_smf"] * payload["eta_fiber"],
        rel=1e-12,
    )
    # A supplied eta_smf replaces the modelled terms, so none that leaves the
    # float range (eta_smf at this r0, eta_tau at this wind) rejects the point.
    for argv in (["--r0", "7.8e-4", "--wind", "0.72"], ["--wind", "1e5"]):
        code, out, err = run(capsys, "budget", *argv, "--eta-smf", "-3")
        assert (code, err) == (0, "")
        assert out.startswith("link budget") and "eta_smf                -3.0 dB" in out


@pytest.mark.parametrize("value", ["nan", "inf", "3"])
def test_budget_rejects_eta_smf_outside_unit_interval(tmp_path, capsys, value):
    out_file = tmp_path / "b.json"
    code, _, err = run(capsys, "--out", str(out_file), "budget", f"--eta-smf={value}")
    assert code == 3
    assert "error: eta_smf must be in (0, 1]" in err
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["1e-17", "nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, name", [("budget", "--eta-smf", "eta_smf"), ("qkd", "--eta-ch", "eta_ch")]
)
def test_db_flag_outside_the_unit_interval_exits_3_naming_it(
    tmp_path, capsys, command, flag, name, value
):
    out_file = tmp_path / "o.json"
    code, out, err = run(capsys, "--out", str(out_file), command, f"{flag}={value}")
    assert (code, out) == (3, "")
    assert f"error: {name} must be in (0, 1]" in err
    assert f"got {float(value)} dB" in err
    assert not out_file.exists()


def test_synth_rejects_non_finite_wind(tmp_path, capsys):
    wfs = tmp_path / "wfs.csv"
    code, _, err = run(capsys, "synth", str(wfs), "--r0", "0.08", "--wind", "nan")
    assert code == 3
    assert "error: wind_speed must be finite" in err
    assert not wfs.exists()


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "--config", str(tmp_path / "absent.json"), "budget")
    assert code == 2
    assert "error" in err


def test_single_step_sweep_matches_budget(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "--out", str(sweep_file), "sweep", "--min", "0.0875", "--max", "0.0875",
        "--steps", "1",
    )
    assert code == 0
    budget_file = tmp_path / "b.json"
    code, _, _ = run(capsys, "--out", str(budget_file), "budget", "--r0", "0.0875")
    assert code == 0
    import csv as csv_mod

    with open(sweep_file) as fh:
        row = next(csv_mod.DictReader(fh))
    budget = json.loads(budget_file.read_text())
    assert float(row["eta_ch"]) == pytest.approx(budget["eta_ch"], rel=1e-12)


def test_parse_modes():
    assert tuple(cli.parse_modes("1-3")) == (1, 2, 3)
    assert tuple(cli.parse_modes("5, 7, 9-11")) == (5, 7, 9, 10, 11)
    with pytest.raises(cli.ConfigError):
        cli.parse_modes(" , ")
    assert tuple(cli.parse_modes("3,3,4")) == (3, 3, 4)  # fit_fried names the duplicate
    for text, chunk in [("3-35,10-5", "'10-5'"), ("3-x", "'3-x'"), ("0-4", "'0-4'"),
                        ("2,-3", "'-3'"), ("3-", "'3-'"), ("1.5", "'1.5'")]:
        with pytest.raises(cli.ConfigError, match=chunk):
            cli.parse_modes(text)


@pytest.mark.parametrize(
    "modes, code, message",
    [("3-35,10-5", 2, "'10-5' is reversed"), ("3-x", 2, "'3-x'"), ("3,3,4", 3, "mode 3")],
)
def test_fit_rejects_a_bad_mode_list(tmp_path, capsys, modes, code, message):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "50", "--seed", "3")
    got, out, err = run(capsys, "fit-r0", str(wfs), "--modes", modes)
    assert got == code
    assert message in err
    assert "r0_hat" not in out


def test_fit_expands_a_mode_range_no_further_than_the_log_needs(tmp_path, capsys):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "50", "--seed", "3")
    tracemalloc.start()
    try:
        got, _, err = run(capsys, "fit-r0", str(wfs), "--modes", "1-2000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 3
    assert peak < 1e6, f"peak {peak} B"
    assert "variance for mode 36 is missing" in err


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("qkd", "n_z_bytes", "1e400"),
        ("budget", "d_rx_m", '"0.41"'),
        ("qkd", "detector", "5"),
        ("qkd", "mu1", "null"),
        ("budget", "ao_modes", "35.7"),
        ("qkd", "n_z_bytes", "1000.9"),
    ],
)
def test_config_value_of_the_wrong_kind(tmp_path, capsys, command, key, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {text}}}')
    out_file = tmp_path / "o.json"
    argv = [command, "--eta-ch", "-29"] if command == "qkd" else [command]
    code, _, err = run(capsys, "--config", str(cfg), "--out", str(out_file), *argv)
    assert code == 2
    assert f"config key {key} must be" in err
    assert not out_file.exists()


@pytest.mark.parametrize("key", sorted(cli.DEFAULT_CONFIG))
def test_every_config_key_names_itself_for_a_wrong_kind(tmp_path, capsys, key):
    kind = {"detector": "a string", "ao_modes": "a whole number", "n_z_bytes": "a whole number"}
    wrong = 5 if key == "detector" else "0.4"
    for value in (wrong, True):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "--config", str(cfg), "qkd", "--eta-ch", "-29")
        assert code == 2 and out == ""
        want = f"config key {key} must be {kind.get(key, 'a number')}, got {json.dumps(value)}"
        assert err == f"error: {want}\n"


def test_default_config_file_builds_what_no_config_builds(tmp_path, monkeypatch):
    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cli.DEFAULT_CONFIG))
    loaded, default = cli.load_config(str(cfg)), cli.load_config(None)
    for builder in (cli.build_path, cli.build_chain, cli.build_geometry, cli.build_session):
        assert builder(loaded) == builder(default)


def test_non_finite_config_number_reaches_the_field_check(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"d_rx_m": NaN}')
    code, _, err = run(capsys, "--config", str(cfg), "budget")
    assert code == 3
    assert "error: d_rx must be finite" in err


def test_whole_float_sets_an_int_field(tmp_path, monkeypatch):
    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ao_modes": 20.0, "n_z_bytes": 1000.0}')
    loaded = cli.load_config(str(cfg))
    assert cli.build_chain(loaded).ao_modes == 20
    assert cli.build_session(loaded).block_size == 1000


def test_defaults_come_from_the_dataclasses(monkeypatch):
    from skylink import qkd, synth
    from skylink.atmosphere import OpticalPath
    from skylink.coupling import ReceiverChain
    from skylink.linkbudget import LinkGeometry

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = cli.load_config(None)
    chain, path = cli.build_chain(cfg), cli.build_path(cfg)
    assert chain == ReceiverChain()
    assert cli.build_geometry(cfg) == LinkGeometry(OpticalPath(), ReceiverChain())
    assert cli.build_geometry(cfg).path == OpticalPath()
    assert cli.build_session(cfg) == qkd.QkdSessionModel(qkd.SNSPD)
    assert cli.build_session({**cfg, "detector": "spad"}) == qkd.QkdSessionModel(
        qkd.SPAD, block_size=qkd.BLOCK_SIZE["spad"]
    )
    sc = synth.SynthConfig(r0=0.08)
    assert (sc.d_rx, sc.ao_modes, sc.f_3db, sc.wavelength) == (
        chain.d_rx, chain.ao_modes, chain.f_3db, path.wavelength
    )
    assert len(cli.DEFAULT_CONFIG) == 28
    assert cli.DEFAULT_CONFIG["n_z_bytes"] is None


@pytest.mark.parametrize(
    "key, builder, field",
    [
        ("eta_tel_db", "build_chain", "eta_tel"),
        ("eta_optics_db", "build_chain", "eta_optics"),
        ("eta_fiber_db", "build_chain", "eta_fiber"),
        ("internal_loss_db", "build_session", "internal_loss"),
    ],
)
def test_db_config_key_sets_its_linear_field(tmp_path, monkeypatch, key, builder, field):
    from skylink.units import from_db

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: -3.3}))
    built = getattr(cli, builder)(cli.load_config(str(cfg)))
    assert getattr(built, field) == from_db(-3.3)
    # the readable default is the dB value that gives the field default back
    default = getattr(getattr(cli, builder)(cli.load_config(None)), field)
    assert from_db(cli.DEFAULT_CONFIG[key]) == default


def test_predict_smf_rejects_a_log_for_another_receiver(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"d_rx_m": 0.3}')
    wfs = tmp_path / "wfs.csv"
    code, _, _ = run(
        capsys, "--config", str(cfg), "synth", str(wfs), "--r0", "0.08", "--n", "2000",
        "--seed", "4",
    )
    assert code == 0
    out_file = tmp_path / "smf.json"
    code, _, err = run(
        capsys, "--out", str(out_file), "predict-smf", "--ao-on", str(wfs), "--ao-off", str(wfs)
    )
    assert code == 2
    assert str(wfs) in err and "d_rx_m=0.3" in err and "0.41" in err
    assert not out_file.exists()
    code, _, _ = run(
        capsys, "--config", str(cfg), "--out", str(out_file), "predict-smf",
        "--ao-on", str(wfs), "--ao-off", str(wfs),
    )
    assert code == 0


def test_predict_smf_checks_its_flags_before_reading_logs(tmp_path, capsys):
    code, _, err = run(capsys, "predict-smf", "--ao-on", str(tmp_path / "absent.csv"))
    assert code == 2
    assert "exactly one of --ao-off or --r0" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity"], ids=["nan", "inf"])
def test_fit_rejects_non_finite_diameter(tmp_path, capsys, value):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "500", "--seed", "3")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"d_rx_m": {value}}}')
    code, out, err = run(capsys, "--config", str(cfg), "fit-r0", str(wfs))
    assert code == 3
    assert "error: d_rx must be finite" in err
    assert "r0_hat" not in out


@pytest.mark.parametrize(
    "key, logged, configured",
    [("d_rx_m", "0.5", "0.41"), ("wavelength_m", "8e-07", "1.555e-06")],
    ids=["d_rx", "wavelength"],
)
def test_fit_rejects_a_log_for_another_receiver(tmp_path, capsys, key, logged, configured):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "500", "--seed", "3")
    text = wfs.read_text()
    wfs.write_text(text.replace(f"{key}={configured}", f"{key}={logged}", 1))
    out_file = tmp_path / "fit.json"
    code, out, err = run(capsys, "--out", str(out_file), "fit-r0", str(wfs))
    assert (code, out) == (2, "")
    assert err == f"error: {wfs}: WFS log has {key}={logged} but the config has {configured}\n"
    assert not out_file.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: float(logged)}))
    code, out, _ = run(capsys, "--config", str(cfg), "--out", str(out_file), "fit-r0", str(wfs))
    assert code == 0
    assert "r0_hat" in out and out_file.exists()


def test_library_spad_session_is_the_clis(monkeypatch):
    from skylink import qkd

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = {**cli.load_config(None), "detector": "spad"}
    assert cli.build_session(cfg) == qkd.QkdSessionModel(qkd.SPAD)


def test_config_file_holding_a_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    code, out, err = run(capsys, "--config", str(cfg), "budget")
    assert (code, out) == (2, "")
    assert "must hold a JSON object" in err


def test_unknown_detector_in_the_config_exits_2_naming_the_choices(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"detector": "apd"}')
    code, out, err = run(capsys, "--config", str(cfg), "qkd", "--eta-ch", "-29")
    assert (code, out) == (2, "")
    assert "'apd'" in err and "'snspd'" in err and "'spad'" in err


def test_sweep_of_zero_steps_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--steps", "0")
    assert (code, out) == (2, "")
    assert "steps must be >= 1" in err


def test_null_block_size_in_the_config_takes_the_detectors(tmp_path, capsys, monkeypatch):
    """Also for a detector named in another case, beside a whole-float count."""
    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_z_bytes": null}')
    code, out, _ = run(capsys, "--config", str(cfg), "qkd", "--eta-ch", "-29")
    assert code == 0
    assert " n_z=250000 bytes detector=snspd\n" in out.splitlines(keepends=True)[0]
    spad = {"n_z_bytes": None, "detector": "SPAD", "ao_modes": 20.0, "eta_tel_db": -1.0}
    cfg.write_text(json.dumps(spad))
    code, out, _ = run(capsys, "--config", str(cfg), "qkd", "--eta-ch", "-29")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].endswith(" n_z=50000 bytes detector=spad")
    assert lines[-1] == "  secret key rate         167.1 bit/s"


def test_qkd_from_a_session_log_without_data_rows_exits_3(tmp_path, capsys):
    from skylink import qkd as qkd_mod

    log = tmp_path / "session.csv"
    qkd_mod.write_session_log([qkd_mod.RateObservation(0.0, 20400.0, 2000.0, 0.008, 0.011)], log)
    log.write_text(log.read_text().splitlines(keepends=True)[0])
    out_file = tmp_path / "q.json"
    code, out, err = run(capsys, "--out", str(out_file), "qkd", "--log", str(log))
    assert (code, out) == (3, "")
    assert "no data rows" in err
    assert not out_file.exists()


def test_out_in_a_missing_directory_exits_4_after_the_table(tmp_path, capsys):
    out_file = tmp_path / "absent" / "b.json"
    code, out, err = run(capsys, "--out", str(out_file), "budget")
    assert code == 4
    assert out == run(capsys, "budget")[1]
    assert err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize(
    "argv",
    [
        ["budget", "--r0", "0.15"],
        ["fit-r0", "{off}", "--modes", "2-20"],
        ["predict-smf", "--ao-on", "{on}", "--ao-off", "{off}"],
        ["qkd", "--eta-ch", "-29"],
        ["qkd", "--log", "{session}"],
        ["sweep", "--var", "J", "--min", "1", "--max", "36", "--steps", "4"],
        ["fit-r0", "{plus}"],
        ["fit-r0", "{masked}"],
        ["predict-smf", "--ao-on", "{masked}", "--ao-off", "{plus}"],
    ],
    ids=["budget", "fit-r0", "predict-smf", "qkd-eta-ch", "qkd-log", "sweep", "fit-r0-plus-flag",
         "fit-r0-masked-row", "predict-smf-plus-flag-masked-row"],
)
def test_json_and_csv_records_agree(tmp_path, capsys, argv):
    """The .csv record holds the .json record's keys, each value as str() writes it.

    A list (fit-r0's modes_used) is its items joined by commas.  The logs
    include one with a "+1" flag, which the per-line pass reads, not numpy's
    parser, and one with a single valid=0 row.
    """
    import csv as csv_mod

    from skylink import qkd as qkd_mod

    files = {name: tmp_path / f"{name}.csv" for name in ("on", "off", "session", "plus", "masked")}
    run(capsys, "synth", str(files["on"]), "--r0", "0.08", "--n", "500", "--seed", "1", "--ao-on")
    run(capsys, "synth", str(files["off"]), "--r0", "0.08", "--n", "500", "--seed", "2")
    for name, source, flag in (("plus", "off", "+1"), ("masked", "on", "0")):
        lines = files[source].read_text().splitlines(keepends=True)
        t_s, _, cells = lines[3].split(",", 2)  # the second data row
        lines[3] = f"{t_s},{flag},{cells}"
        files[name].write_text("".join(lines))
    records = [
        qkd_mod.RateObservation(float(i), 20400.0 + i, 2000.0, 0.008, 0.011) for i in range(3)
    ]
    qkd_mod.write_session_log(records, files["session"])
    argv = [arg.format(**files) for arg in argv]
    json_file, csv_file = tmp_path / "r.json", tmp_path / "r.csv"
    json_run = run(capsys, "--out", str(json_file), *argv)
    assert json_run[0] == 0
    assert run(capsys, "--out", str(csv_file), *argv) == json_run
    record = json.loads(json_file.read_text())
    rows = record if isinstance(record, list) else [record]
    with open(csv_file, newline="") as fh:
        assert list(csv_mod.DictReader(fh)) == [
            {
                key: ",".join(map(str, value)) if isinstance(value, list) else str(value)
                for key, value in row.items()
            }
            for row in rows
        ]


def test_fit_csv_modes_read_back_as_modes(tmp_path, capsys):
    """fit-r0's .csv modes_used cell is a mode list that --modes reads back."""
    import csv as csv_mod

    off = tmp_path / "off.csv"
    run(capsys, "synth", str(off), "--r0", "0.08", "--n", "500", "--seed", "2")
    json_file, csv_file = tmp_path / "fit.json", tmp_path / "fit.csv"
    for out in (json_file, csv_file):
        assert run(capsys, "--out", str(out), "fit-r0", str(off), "--modes", "3-6,9,12-35")[0] == 0
    with open(csv_file, newline="") as fh:
        (row,) = csv_mod.DictReader(fh)
    modes = json.loads(json_file.read_text())["modes_used"]
    assert row["modes_used"] == ",".join(map(str, modes))
    assert list(cli.parse_modes(row["modes_used"])) == modes
