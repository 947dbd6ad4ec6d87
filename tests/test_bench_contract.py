"""What the benchmark in bench/ reads from skylink stays in place.

bench/workloads.py imports names from ``skylink``, calls ``skylink.cli``,
reads session-log records and summaries, and its traced census parses
``-X importtime`` of ``import skylink.cli`` for five modules; a module
missing there stops the run.  These tests read bench/workloads.py as source
(with ast) and import nothing from bench/.
"""

import ast
import subprocess
import sys
from pathlib import Path

import skylink
import skylink.cli
from skylink import qkd

from conftest import fresh_env

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"

# The public names of ``skylink`` before each module's __all__ fed it, plus
# BLOCK_SIZE, which qkd.__all__ already listed, less rytov_variance, which gave
# what scintillation_report's rytov_sigmaR2 holds, and less the six budget
# terms that BudgetReport, SmfCouplingBreakdown and sweep_columns hold
# (beam_divergence, received_waist, absorption_efficiency,
# collection_efficiency, eta_phi_residual, eta_tau), plus key_rate_point and
# its record KeyRatePoint, the one composition of the four key-rate leaves.
_PUBLIC = {
    "BLOCK_SIZE", "BudgetReport", "DetectorModel", "FriedFit", "KeyRatePoint", "LinkGeometry",
    "ModeVarianceSet", "OpticalPath", "QkdSessionModel", "RateObservation", "ReceiverChain",
    "SNSPD", "SPAD", "ScintillationReport", "SmfCouplingBreakdown", "SynthConfig",
    "TurbulenceState", "ZernikeSeries", "analyze_session_log", "atmosphere", "calibrate_r_ref",
    "channel_efficiency_from_rate", "cn2_from_r0", "compose_smf", "coupling",
    "coupling_from_power", "empirical_variances", "estimation", "eta0", "eta_phi_on",
    "expected_qber", "expected_signal_rate", "fit_fried", "format_db", "from_db", "full_budget",
    "generate_series", "greenwood_frequency", "key_rate_point", "linkbudget", "load_session_log",
    "load_wfs_log", "mode_match_beta", "model_smf_breakdown", "noll_weight", "obscuration_ratio",
    "optimize_beta", "predict_eta_smf", "qkd", "r0_from_cn2", "radial_order", "residual_variance",
    "scale_r0_to_wavelength", "scintillation_report", "secret_key_rate", "sweep_budget",
    "sweep_columns", "synth", "to_db", "turbulence_variance", "units", "windowed_noise_rate",
    "write_session_log", "write_wfs_log", "zernike",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the skylink this one imported."""
    return subprocess.run(
        [sys.executable, *args], env=fresh_env(), capture_output=True, text=True, check=True
    )


def test_public_names_are_the_pinned_set():
    # In a fresh interpreter: a test that imports skylink.cli adds "cli" here.
    out = _python("-c", "import skylink; print(*dir(skylink))").stdout
    assert len(_PUBLIC) == 65
    assert {n for n in out.split() if not n.startswith("_")} == _PUBLIC


def _workloads_tree() -> ast.Module:
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def test_every_name_the_workloads_import_resolves():
    names = [
        alias.name
        for node in ast.walk(_workloads_tree())
        if isinstance(node, ast.ImportFrom) and node.module == "skylink"
        for alias in node.names
    ]
    assert names  # the parse found the import
    assert [n for n in names if not hasattr(skylink, n)] == []


def test_every_cli_attribute_the_workloads_read_resolves():
    attrs = {
        node.attr
        for node in ast.walk(_workloads_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "cli"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "skylink"
    }
    assert {"DEFAULT_CONFIG", "main"} <= attrs
    assert [a for a in attrs if not hasattr(skylink.cli, a)] == []


def test_importtime_of_the_cli_lists_the_census_modules():
    err = _python("-X", "importtime", "-c", "import skylink.cli").stderr
    seen = set()
    for line in err.splitlines():
        parts = [x.strip() for x in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2].startswith("skylink."):
            seen.add(parts[2].removeprefix("skylink."))
    assert {"coupling", "estimation", "synth", "qkd", "cli"} <= seen


def test_session_log_records_and_summary_have_the_read_fields(tmp_path):
    log = tmp_path / "session.csv"
    qkd.write_session_log(
        [qkd.RateObservation(float(t), 3400.0 + t, 2000.0, 0.03, 0.04) for t in range(3)], log
    )
    records = qkd.load_session_log(log)
    assert [r.signal_rate for r in records] == [3400.0, 3401.0, 3402.0]
    assert qkd.analyze_session_log(records)["signal_rate"]["mean"] == 3401.0
