import json
import tracemalloc

import pytest

from skylink import cli


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


def test_fit_mode_selection(tmp_path, capsys):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "4000", "--seed", "3")
    out_file = tmp_path / "fit.json"
    code, _, _ = run(capsys, "--out", str(out_file), "fit-r0", str(wfs), "--modes", "3-35")
    assert code == 0
    fit = json.loads(out_file.read_text())
    assert fit["modes_used"] == list(range(3, 36))


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


def test_qkd_from_eta(tmp_path, capsys):
    out_file = tmp_path / "qkd.json"
    code, out, _ = run(capsys, "--out", str(out_file), "qkd", "--eta-ch", "-29")
    assert code == 0
    assert "secret key rate" in out
    assert "mu1=" in out
    payload = json.loads(out_file.read_text())
    assert payload["signal_hz"] == pytest.approx(20.4e3, rel=1e-6)
    assert 500 <= payload["skr_bps"] <= 2000


def test_qkd_requires_one_source(capsys):
    assert run(capsys, "qkd")[0] == 2


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
    from skylink.coupling import eta_phi_residual

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
        want = eta_phi_residual(row["J"], d["d_rx_m"], d["r0_m"])
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


@pytest.mark.parametrize("value", ["nan", "inf", "3"])
def test_budget_rejects_eta_smf_outside_unit_interval(tmp_path, capsys, value):
    out_file = tmp_path / "b.json"
    code, _, err = run(capsys, "--out", str(out_file), "budget", f"--eta-smf={value}")
    assert code == 3
    assert "error: eta_smf must be in (0, 1]" in err
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
    assert cli.parse_modes("1-3") == (1, 2, 3)
    assert cli.parse_modes("5, 7, 9-11") == (5, 7, 9, 10, 11)
    with pytest.raises(cli.ConfigError):
        cli.parse_modes(" , ")
    assert cli.parse_modes("3,3,4") == (3, 3, 4)  # fit_fried names the duplicate
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
    assert cli.parse_modes("2,40-50,1-9", 35) == (2, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9)


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
    assert cli.build_session(cfg, "spad") == qkd.QkdSessionModel(
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_rejects_non_finite_diameter(tmp_path, capsys, value):
    wfs = tmp_path / "wfs.csv"
    run(capsys, "synth", str(wfs), "--r0", "0.08", "--n", "500", "--seed", "3")
    code, out, err = run(capsys, "fit-r0", str(wfs), "--d-rx", value)
    assert code == 3
    assert "error: d_rx must be finite" in err
    assert "r0_hat" not in out


def test_library_spad_session_is_the_clis(monkeypatch):
    from skylink import qkd

    monkeypatch.delenv("SKYLINK_CONFIG", raising=False)
    assert cli.build_session(cli.load_config(None), "spad") == qkd.QkdSessionModel(qkd.SPAD)
