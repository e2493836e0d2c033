"""Spans around the benchmark's calls into scatterlab's modules.

A span is (name, start, end, parent, run id). Names are
``<layer>.<function>``, where the layer is a scatterlab module or ``bench``
for the harness itself. Spans stay in memory and are written out once, when
the run ends. The untraced run uses ``NullTracer``, whose spans cost one
``nullcontext``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span less the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans]
