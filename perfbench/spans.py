"""Span recorder for the traced benchmark run.

The recorder replaces public fogsched functions, at the module attribute
their callers look them up by, with wrappers that record one span per call.
Spans stay in memory until the run ends. Nothing is patched unless a
recorder is installed, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# Counts attached to a span: (args, kwargs, result) -> {name: number}.
Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int        # pass index; every span of one timed pass shares it
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._trace, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def recording(self, trace: int, points):
        """Wrap every (module, attribute, span name, counter) point for the
        duration of the block, under one root span named "bench.pass"."""
        saved = []
        try:
            for module, attr, name, counter in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            self._trace = trace
            root = self._open("bench.pass")
            try:
                yield
            finally:
                self._close(root)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out


def write_spans(spans: list[Span], path: str) -> None:
    """Tab-separated span log: id, parent, trace, name, start, end, counts."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# id\tparent\ttrace\tname\tstart\tend\tcounts\n")
        for s in spans:
            parent = "-" if s.parent is None else str(s.parent)
            counts = ",".join(f"{k}={v}" for k, v in sorted(s.counts.items())) or "-"
            fh.write(f"{s.id}\t{parent}\t{s.trace}\t{s.name}\t{s.start!r}\t"
                     f"{s.end!r}\t{counts}\n")
