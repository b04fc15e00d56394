"""In-memory spans for the traced run.

A span is [name, start_ns, end_ns, parent index, request id]. Spans are kept
in a list while the run executes and written out once it ends, so tracing
does no I/O inside the measured work. Spans open around calls into the
library's public functions, from the benchmark's side.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> None:
        self.tracer._open.append(len(self.tracer.spans))
        self.tracer.spans.append(self.rec)
        self.rec[1] = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.rec[2] = perf_counter_ns()
        self.tracer._open.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, request: int = -1) -> _Span:
        """Context manager recording one span; nests under the open span."""
        return _Span(self, [name, 0, 0, self._open[-1] if self._open else -1, request])

    def add(self, name: str, start: int, end: int, request: int = -1) -> None:
        """Record a span timed by the caller, under the open span."""
        self.spans.append([name, start, end, self._open[-1] if self._open else -1, request])

    def durations(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, dict[str, int]]:
        """Per span name: count, total time, and self time (the span minus
        the time its child spans cover; children never overlap here because
        the run is single-threaded)."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
        for s, child in zip(self.spans, covered):
            row = out[s[0]]
            row["count"] += 1
            row["total_ns"] += s[2] - s[1]
            row["self_ns"] += s[2] - s[1] - child
        return dict(out)

    def dump(self, path, header: dict) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "request"]
        with open(path, "w") as fh:
            json.dump(
                {**header, "self_times": self.self_times(), "fields": fields, "spans": self.spans},
                fh,
            )
