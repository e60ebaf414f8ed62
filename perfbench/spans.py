"""In-memory spans around the benchmark's own calls into the library.

A span records name, start, end, parent span and task. The evaluator the
benchmark hands to the library is wrapped so that every call of F is a
`dsl.eval` span, which gives exact evaluation counts and lets each layer's
self time exclude the time spent inside F. Nothing is recorded inside the
library itself.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

EVAL = "dsl.eval"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self._stack: list[int] = []
        self.task: object = None
        self.evals = 0
        self.count_problems: list[str] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.task])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def wrap(self, f):
        """f with every call recorded as a dsl.eval span and counted."""

        def traced(x):
            self.evals += 1
            self.begin(EVAL)
            try:
                return f(x)
            finally:
                self.end()

        return traced

    def check_count(self, what: str, got: int, want: int) -> None:
        if got != want:
            self.count_problems.append(
                f"{what} made {got} evaluations, closed form says {want}"
            )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, evaluations made directly under it."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "evals": 0}
        )
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if name == EVAL and parent >= 0:
                out[self.spans[parent][0]]["evals"] += 1
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as JSON: times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [ids[n], round((a - t0) * 1e6), round((b - a) * 1e6), parent, task]
            for n, a, b, parent, task in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "start_us", "dur_us", "parent", "task"],
            "names": names,
            "spans": rows,
        }))


def call(tr: Tracer | None, name: str, fn, *args, evals=None, **kwargs):
    """fn(*args, **kwargs), inside a span when tracing.

    evals, when given, maps the result to the closed-form number of
    evaluations the call must have made; a mismatch is recorded.
    """
    if tr is None:
        return fn(*args, **kwargs)
    before = tr.evals
    tr.begin(name)
    try:
        result = fn(*args, **kwargs)
    finally:
        tr.end()
    if evals is not None:
        tr.check_count(name, tr.evals - before, evals(result))
    return result
