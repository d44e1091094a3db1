"""In-memory spans around the benchmark's calls into the library's layers.

A span records (name, layer, start, end, parent, attrs).  Spans stay in
memory until the run ends; ``self_times`` and ``layer_totals`` derive each
layer's self time and call count from them.  With tracing off, ``span`` is a
no-op, so the untraced run pays one attribute lookup per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float | None
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``enabled=False`` makes every ``span`` a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, layer: str, **attrs):
        if not self.enabled:
            return nullcontext()
        return self._record(name, layer, attrs)

    @contextmanager
    def _record(self, name, layer, attrs):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        span = Span(name, layer, time.perf_counter(), None, parent, attrs)
        self.spans.append(span)
        self._open.append(idx)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "layer": s.layer, "start": s.start,
                 "end": s.end, "parent": s.parent, "attrs": s.attrs}
                for s in self.spans]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds).  A span standing for a batch of
    library calls carries their number in ``attrs['n']``."""
    out: dict[str, tuple[int, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        calls, secs = out.get(s.layer, (0, 0.0))
        out[s.layer] = (calls + int(s.attrs.get("n", 1)), secs + own)
    return out
