"""The machine's speed during a run, probed with fixed work of the benchmark's own.

On a shared machine the speed of a core changes by up to 2x within seconds
and drifts by 20-30 % over minutes as the host's load moves, and every
timing of a run moves with it.  The benchmark therefore probes the speed at
both ends of each timed sample and reports the sample at the reference
speed: its wall time divided by the mean slowdown of the two probes.
In-process work is probed with a small pure-Python kernel (float math,
float formatting and parsing, dict access: the kinds of work skylink
does); a child process with the start of a bare interpreter
(`python -c pass`), which tracks process start-up and import far better.
The probes are the benchmark's own code, so a change to skylink moves the
samples and leaves the scale alone.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Median probe times on the reference machine (2-core shared Linux VM,
# Python 3.11.7).  Any fixed values would do; these keep the reported
# figures close to the times a user of that machine sees.
REF_KERNEL_S = 0.001
REF_START_S = 0.06
KERNEL_CALLS = 3  # per in-process probe; the median is taken


def kernel() -> float:
    acc, seen = 0.0, {}
    for i in range(300):
        x = math.exp(-i * 1e-4) * math.sqrt(i + 1.0)
        key = repr(x)[:7]
        seen[key] = float(repr(x))
        acc += seen[key]
    return acc


class Speed:
    """Probe times of one run."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.start_s: list[float] = []

    def in_process(self) -> float:
        """Slowdown of in-process work now: kernel time over REF_KERNEL_S."""
        times = []
        for _ in range(KERNEL_CALLS):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
        self.kernel_s.append(statistics.median(times))
        return self.kernel_s[-1] / REF_KERNEL_S

    def start_up(self) -> float:
        """Slowdown of process start-up now: `python -c pass` wall over REF_START_S."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        self.start_s.append(time.perf_counter() - t)
        return self.start_s[-1] / REF_START_S


class Stopwatch:
    """Consecutive laps, each divided by the mean slowdown probed at its two ends."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.laps: list[float] = []
        self._slowdown = probe()
        self._t = time.perf_counter()

    def lap(self) -> float:
        wall = time.perf_counter() - self._t
        slowdown = self.probe()
        self.laps.append(2 * wall / (self._slowdown + slowdown))
        self._slowdown = slowdown
        self._t = time.perf_counter()
        return self.laps[-1]
