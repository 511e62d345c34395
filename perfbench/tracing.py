"""In-memory span tracer installed from outside the program.

A span is [name, start, end, parent], with parent the index of the span that
was open when it started (-1 for the root). Wrappers replace the module and
class attributes that callers resolve at call time, so the program itself is
unchanged. Spans stay in memory until the traced command ends.

Work done by the benchmark's own checks is taken off the clock: `now()`
subtracts all time spent inside `off_clock()`, so spans and the traced wall
time exclude it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @property
    def paused_s(self) -> float:
        return self._paused

    @contextmanager
    def off_clock(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs once the span has closed."""
        spans, stack, now = self.spans, self._stack, self.now

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]
