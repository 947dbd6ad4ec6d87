"""In-memory spans around calls into skylink, recorded from the benchmark side.

A span is (name, start, end, parent).  The layer of a span is the first
dotted component of its name ("estimation.load_wfs_log" -> "estimation").
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Untraced runs: spans and counters cost one attribute lookup."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, k: float = 1) -> None:
        pass

    def value(self, name: str, v: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] += k

    def value(self, name: str, v: float) -> None:
        self.values[name].append(v)

    def by_name(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_time(self, under: str | None = None) -> dict[str, float]:
        """layer -> seconds in its spans but not in their child spans.

        With `under`, only spans named `under` and their descendants count.
        """
        inside = [under is None] * len(self.spans)
        child = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):  # parents precede children
            if under is not None:
                inside[i] = name == under or (parent >= 0 and inside[parent])
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner, keep in zip(self.spans, child, inside):
            if keep:
                out[name.split(".", 1)[0]] += end - start - inner
        return dict(out)

    def write(self, path, **meta) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            **meta,
            "spans": [
                {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
            "values": dict(self.values),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
