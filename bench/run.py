"""Benchmark entry point.

    python3 bench/run.py --workload {wfs-campaign,design-scan} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout against the skylink in its ``src/``.  Prints
one JSON line describing the environment, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, and the
spans go to bench/_traces/.  See bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Span layers: the skylink modules, interpreter start-up, whole processes
# (CLI calls and scripts, start-up included) and the benchmark's own work.
LAYERS = ("startup", "subprocess", "cli", "estimation", "synth", "zernike", "atmosphere", "coupling",
          "linkbudget", "qkd", "bench")
UNITS = (("_us_per_point", "us/point"), ("_per_s", "1/s"), ("_MBps", "MB/s"), ("_us", "us"), ("_s", "s"))


def age_at_start() -> float:
    """Seconds from process start to _T0 (Linux); 0 where /proc is missing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK")) - (time.perf_counter() - _T0)


def import_checked_skylink():
    """Import skylink from this checkout's src/, or stop the run."""
    sys.path.insert(0, str(SRC))
    try:
        import skylink
    except ImportError as exc:
        sys.exit(f"bench: cannot import skylink from {SRC}: {exc}")
    where = Path(skylink.__file__).resolve()
    if where != SRC / "skylink" / "__init__.py":
        sys.exit(f"bench: skylink resolves to {where}, not to this checkout's src/")
    return skylink


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_points"):
        return "count"
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def run_rounds(wl, seconds: float, tracer=None) -> list[float]:
    """Whole rounds until the next one would likely overrun `seconds`; at least one."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if tracer is None:
            wl.round()
        else:
            with tracer.span("bench.round"):
                wl.round()
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls


def layer_metrics(tracer, untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Per-call times, throughputs, counts and self time per layer, from the spans."""
    from workloads import IMPORT_MODULES

    spans = tracer.by_name()
    per_call = {
        "startup.interpreter_s": "startup.interpreter",
        "startup.import_skylink_s": "startup.import_skylink",
        **{f"cli.{c}_s": f"cli.{c}" for c in ("budget", "qkd", "sweep", "synth", "fit_r0", "predict_smf")},
        "estimation.write_wfs_log_s": "estimation.write_wfs_log",
        "estimation.load_wfs_log_s": "estimation.load_wfs_log",
        "estimation.fit_fried_s": "estimation.fit_fried",
        "estimation.predict_eta_smf_s": "estimation.predict_eta_smf",
        "synth.generate_series_s": "synth.generate_series",
        "zernike.empirical_variances_s": "zernike.empirical_variances",
        "atmosphere.scintillation_report_us": "atmosphere.scintillation_report",
        "coupling.optimize_beta_us": "coupling.optimize_beta",
        "linkbudget.model_smf_breakdown_us": "linkbudget.model_smf_breakdown",
        "linkbudget.full_budget_us": "linkbudget.full_budget",
        "qkd.secret_key_rate_us": "qkd.secret_key_rate",
        "qkd.load_session_log_s": "qkd.load_session_log",
        "qkd.analyze_session_log_s": "qkd.analyze_session_log",
    }
    out: dict[str, float] = {}
    for metric, span in per_call.items():
        calls, total = spans[span]
        out[metric] = total / calls * (1e6 if metric.endswith("_us") else 1.0)
        out[f"{span}.calls"] = calls
    calls, total = spans["linkbudget.sweep_budget"]
    out["linkbudget.sweep_budget_us_per_point"] = total / tracer.counters["linkbudget.sweep_budget.points"] * 1e6
    out["linkbudget.sweep_budget.calls"] = calls
    for side in ("write", "load"):
        calls, total = spans[f"estimation.{side}_wfs_log"]
        mbps = tracer.counters[f"estimation.{side}_wfs_log.bytes"] / total / 1e6
        out["estimation.wfs_write_MBps" if side == "write" else "estimation.wfs_read_MBps"] = mbps
    for m in IMPORT_MODULES:
        values = tracer.values[f"startup.import.skylink.{m}"]
        out[f"startup.import.skylink.{m}_s"] = statistics.median(values)
    out["startup.importtime.calls"] = len(tracer.values["startup.import.skylink.cli"])
    out["qkd.skr_positive_points"] = tracer.counters["qkd.skr_positive_points"]
    out["qkd.skr_points"] = tracer.counters["qkd.skr_points"]
    self_time = tracer.self_time()
    for layer in LAYERS:
        out[f"self.{layer}_s"] = self_time.get(layer, 0.0)
    out["trace.round_untraced_s"] = statistics.mean(untraced)
    out["trace.round_traced_s"] = statistics.mean(traced)
    out["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["wfs-campaign", "design-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One core for the run and the processes it starts, so that the speed
    # probes (speed.py) and the work they scale run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    skylink = import_checked_skylink()
    os.environ.pop("SKYLINK_CONFIG", None)  # measure the built-in configuration, in-process and in children
    import numpy
    import scipy

    from checks import Ledger
    from spans import NullTracer, Tracer
    from speed import Speed
    from workloads import WORKLOADS, Inputs, census

    print(json.dumps({"env": {
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpus": os.cpu_count(), "skylink": str(Path(skylink.__file__).parent),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }}), flush=True)

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger, speed = Ledger(), Speed()
    try:
        wl = WORKLOADS[args.workload](Inputs(args.seed), work, NullTracer(), ledger, speed)
        wl.warm_up()
        setup_s = age_at_start() + time.perf_counter() - _T0
        if not args.trace:
            run_rounds(wl, args.seconds)
            print(json.dumps({"speed": {"kernel_s": speed.kernel_s, "start_s": speed.start_s}}))
            metrics = {**wl.metrics(), "setup_s": setup_s}
        else:
            untraced = run_rounds(wl, args.seconds / 2)
            wl.tr = tracer = Tracer()
            traced = run_rounds(wl, args.seconds / 2, tracer)
            with tracer.span("bench.census"):
                census(wl)
            metrics = layer_metrics(tracer, untraced, traced)
            metrics["bench.speed_kernel_us"] = statistics.median(speed.kernel_s) * 1e6
            metrics["bench.speed_kernel.calls"] = len(speed.kernel_s)
            metrics["bench.speed_start_s"] = statistics.median(speed.start_s)
            metrics["bench.speed_start.calls"] = len(speed.start_s)
            traces = BENCH / "_traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.json", workload=args.workload,
                         seed=args.seed, rounds_untraced_s=untraced, rounds_traced_s=traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in ledger.violations + ledger.errors:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
