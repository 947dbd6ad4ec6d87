"""Samples are scaled to the reference speed by the probes at their two ends.

Run: python -m pytest bench/test_speed.py
"""

from types import SimpleNamespace

import pytest

import speed
from speed import Stopwatch


def test_each_lap_is_divided_by_the_mean_slowdown_at_its_ends(monkeypatch):
    clock = iter([10.0, 12.0, 12.5, 15.5, 16.0])  # lap 1 lasts 2 s, lap 2 lasts 3 s
    monkeypatch.setattr(speed, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    slowdowns = iter([1.0, 3.0, 1.0])
    watch = Stopwatch(lambda: next(slowdowns))
    assert watch.lap() == pytest.approx(2.0 / 2.0)
    assert watch.lap() == pytest.approx(3.0 / 2.0)
    assert watch.laps == pytest.approx([1.0, 1.5])


def test_probes_record_their_times_and_return_the_slowdown():
    s = speed.Speed()
    slowdown = s.in_process()
    assert slowdown == pytest.approx(s.kernel_s[-1] / speed.REF_KERNEL_S)
    slowdown = s.start_up()
    assert slowdown == pytest.approx(s.start_s[-1] / speed.REF_START_S)
    assert len(s.kernel_s) == len(s.start_s) == 1
