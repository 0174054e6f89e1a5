"""In-memory span tracing of xlwalk's public functions, installed from outside.

A `Tracer` replaces a function at every name an xlwalk module binds it under.
Patching only the defining module would miss callers that imported the
function by name (`walker` binds `sgd_steps`, `swarm` binds
`shortest_path_distances`, ...), so every loaded `xlwalk` module is scanned for
attributes that are the original object. Leaving the `with` block puts every
original back.

Each call records a span (name, start, end, parent). Spans stay in memory;
`summarize_spans` folds them into calls, busy time and self time per name.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

CountFn = Callable[..., tuple[str, int]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top level


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined, and the span name it records."""

    module: str
    attr: str
    span: str
    count: CountFn | None = None  # extra counter: (name, amount) from the call's arguments


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count = target.span, target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(*args, **kwargs)
                counts[key] += amount
            idx = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "xlwalk" or n.startswith("xlwalk.")]
        try:
            for target in self.targets:
                original = getattr(sys.modules[target.module], target.attr)
                wrapper = self._wrap(original, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize_spans(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (wall time inside it, nested repeats counted once), self_s."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for idx, span in enumerate(spans):
        agg = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[idx]
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            agg["busy_s"] += span.end - span.start
    return out
