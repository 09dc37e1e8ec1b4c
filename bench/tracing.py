"""Spans recorded from outside the program, around calls into its layers.

The traced sample passes `TimedSuite` and `TimedHook` to the public solver
and recorder functions in place of the suite and the recorder; both delegate
every call unchanged, so the numbers the program computes stay bit-identical.
No module attribute of the program is patched.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write_csv(self, path) -> None:
        lines = ["id,name,start,end,parent"]
        lines += [
            f"{i},{name},{start!r},{end!r},{parent}"
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


class NullTracer:
    """Tracer stand-in for untraced samples: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class TimedSuite:
    """Objective suite that records a span per `batch_grad` and `average_values`.

    Everything else is delegated. Never pass it to `global_minimizer`, which
    takes the closed form only for a real `QuadraticSuite`.
    """

    def __init__(self, suite, tracer: Tracer):
        self._suite = suite
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._suite, name)

    def batch_grad(self, U):
        idx = self._tracer.begin("objectives.batch_grad")
        try:
            return self._suite.batch_grad(U)
        finally:
            self._tracer.end(idx)

    def average_values(self, rows):
        idx = self._tracer.begin("objectives.average_values")
        try:
            return self._suite.average_values(rows)
        finally:
            self._tracer.end(idx)


class TimedHook:
    """Solver hook that spans each call of an optional `TraceRecorder`.

    The time from the end of one hook call to the start of the next is one
    solver step; those gaps are kept in `step_gaps` (seconds). The first call
    sees the initial state, so K steps leave K gaps.
    """

    def __init__(self, tracer: Tracer, recorder=None):
        self._tracer = tracer
        self._recorder = recorder
        self._last_end = None
        self.step_gaps = []

    def __call__(self, state) -> None:
        start = perf_counter()
        if self._last_end is not None:
            self.step_gaps.append(start - self._last_end)
        if self._recorder is not None:
            idx = self._tracer.begin("diagnostics.record")
            try:
                self._recorder(state)
            finally:
                self._tracer.end(idx)
        self._last_end = perf_counter()

    def trace(self):
        return self._recorder.trace() if self._recorder is not None else None
