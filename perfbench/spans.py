"""Spans around calls into the library, and the statistics the report needs.

A span records name, start, end, parent span and item id. Spans are kept
in memory for one pass and summarised when it ends. A layer is the first
dotted component of a span name (``patterns.wheel.g4`` belongs to
``patterns``); ``bench`` spans cover the benchmark's own code around the
calls, such as loops and answer checks.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# Percentiles tried for the tail, highest last. The tail is the highest
# one that still has at least TAIL_BEYOND samples above it.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)
TAIL_BEYOND = 10


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Tracer:
    """Records spans when enabled; otherwise every span is a shared no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._stack: list[int] = []

    def span(self, name: str, item: int):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return _Span(self, rec)

    def summary(self) -> tuple[dict, dict]:
        """(per span name, per layer) -> {"calls": int, "self_s": float}.

        Self time is a span's duration minus the durations of its direct
        children, so nested spans are never counted twice.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        by_name: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        by_layer: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            own = end - start - child_s[i]
            for agg in (by_name[name], by_layer[name.split(".", 1)[0]]):
                agg["calls"] += 1
                agg["self_s"] += own
        return dict(by_name), dict(by_layer)


def tail(vals: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_BEYOND samples above it, by nearest rank. With too few samples
    for any percentile above the median to qualify, the maximum is
    reported as percentile 100.
    """
    xs = sorted(vals)
    best = (100.0, xs[-1])
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(pct / 100.0 * len(xs)) - 1)
        if len(xs) - 1 - idx >= TAIL_BEYOND:
            best = (pct, xs[idx])
    return best
