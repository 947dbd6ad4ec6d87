"""Start-up cost and run-time dependencies.

numpy is the only run-time dependency, and the scalar path loads none of it;
SciPy is for tests.
"""

import json
import subprocess
import sys

import pytest

from skylink.units import from_db

from conftest import fresh_env


def _modules_after(code: str, roots: tuple[str, ...] = ("scipy",)) -> list[str]:
    """The loaded modules under any of roots once code has run in a fresh interpreter."""
    probe = (
        code + "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=fresh_env(), capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_cli_does_not_load_scipy():
    assert _modules_after("import skylink.cli") == []


def test_non_synth_commands_do_not_load_scipy(tmp_path):
    out = tmp_path / "budget.json"
    code = (
        "from skylink import cli\n"
        f"assert cli.main(['--out', {str(out)!r}, 'budget']) == 0\n"
        "assert cli.main(['qkd', '--eta-ch', '-29']) == 0\n"
        "from skylink.coupling import optimize_beta\n"
        "optimize_beta(0.41)"
    )
    assert _modules_after(code) == []


def test_budget_and_qkd_do_not_load_statistics():
    """statistics, with the decimal and fractions it imports, waits for qkd --log."""
    code = (
        "from skylink import cli\n"
        "assert cli.main(['budget']) == 0\n"
        "assert cli.main(['qkd', '--eta-ch', '-29']) == 0"
    )
    assert _modules_after(code, ("statistics", "decimal", "fractions")) == []


def test_budget_and_qkd_do_not_load_logging_or_csv():
    """logging waits for --verbose or a clamped key rate, csv for a file to read or write."""
    code = (
        "import skylink.cli\n"
        "assert skylink.cli.main(['budget']) == 0\n"
        "assert skylink.cli.main(['qkd', '--eta-ch', '-29']) == 0"
    )
    assert _modules_after(code, ("logging", "csv")) == []


def test_fit_r0_does_not_load_numpy_ma(tmp_path):
    """fit_fried's medians sort; np.median would import numpy.ma (~14 ms a process)."""
    if "numpy.ma" in _modules_after("import numpy", ("numpy",)):
        pytest.skip("this numpy (before 2.0) imports numpy.ma with numpy itself")
    log = tmp_path / "wfs.csv"
    code = (
        "from skylink import cli\n"
        f"assert cli.main(['synth', {str(log)!r}, '--r0', '0.08', '--n', '200']) == 0\n"
        f"assert cli.main(['fit-r0', {str(log)!r}]) == 0"
    )
    assert "numpy.ma" not in _modules_after(code, ("numpy",))


def test_every_command_runs_without_scipy(tmp_path):
    """With scipy unimportable, each CLI command still returns 0."""
    off, on = tmp_path / "off.csv", tmp_path / "on.csv"
    commands = [
        ["synth", str(off), "--r0", "0.08", "--wind", "0.5", "--n", "500", "--seed", "1"],
        ["synth", str(on), "--r0", "0.08", "--wind", "0.5", "--n", "500", "--seed", "2",
         "--ao-on"],
        ["fit-r0", str(off)],
        ["predict-smf", "--ao-on", str(on), "--ao-off", str(off)],
        ["budget"],
        ["qkd", "--eta-ch", "-29"],
        ["sweep", "--steps", "5"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from skylink import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


def test_scalar_path_does_not_load_numpy(tmp_path):
    """Importing skylink and running budget and qkd load no numpy module."""
    out = tmp_path / "budget.json"
    log = tmp_path / "session.csv"
    log.write_text(
        "t_s,signal_hz,noise_hz,qber_z,qber_x,skr_bps\n"
        "0.0,20400.0,2000.0,0.008,0.011,1012.5\n"
        "1.0,20100.0,2100.0,0.009,0.012,\n"
    )
    steps = [
        "import skylink",
        "import skylink.cli",
        "assert skylink.cli.main(['budget']) == 0",
        f"assert skylink.cli.main(['--out', {str(out)!r}, 'budget', '--eta-smf', '-9.2']) == 0",
        "assert skylink.cli.main(['qkd', '--eta-ch', '-29']) == 0",
        "assert skylink.cli.main(['qkd', '--eta-ch', '-29', '--detector', 'spad']) == 0",
        f"assert skylink.cli.main(['qkd', '--log', {str(log)!r}]) == 0",
    ]
    code = (
        "import json, sys\n"
        "loaded = []\n"
        f"for step in {steps!r}:\n"
        "    exec(step)\n"
        "    loaded.append([step, [m for m in sys.modules if m.split('.')[0] == 'numpy']])\n"
        "print(json.dumps(loaded))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    for step, numpy_modules in json.loads(run.stdout.splitlines()[-1]):
        assert numpy_modules == [], step
    assert json.loads(out.read_text())["eta_smf"] == from_db(-9.2)
