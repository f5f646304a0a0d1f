"""Span recording from outside the program, and the arithmetic on spans.

A `Tracer` wraps functions of the `pesim` modules.  Each call becomes a span
(layer, name, thread, start, end, parent span) kept in memory; the parent is
the innermost open span of the same thread, so every thread has its own
span stack.  Self time is a span's duration minus the part of it covered by
its child spans.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

CLOCK = time.CLOCK_MONOTONIC  # system-wide, so times compare across processes


def now() -> float:
    return time.clock_gettime(CLOCK)


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.parent, self.layer, self.name, self.thread,
                self.start, self.end, self.info]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, name: str, info_fn=None):
        """Return fn wrapped in a span; info_fn(args, result) -> dict of counts.
        A call that raises unwinds the stack but records no span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            info = info_fn(args, result) if info_fn is not None else {}
            self.spans.append(Span(sid, parent, layer, name, threading.get_ident(),
                                   start, end, info))
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, layer: str, name: str, start: float, end: float):
        """Record a span measured by the caller (a root span of this thread)."""
        self.spans.append(Span(next(self._ids), None, layer, name,
                               threading.get_ident(), start, end))

    def install(self, module, name: str, layer: str, info_fn=None):
        """Wrap module.name and rebind every reference to it in pesim's
        loaded modules, including values of module-level dicts."""
        original = getattr(module, name)
        traced = self.wrap(original, layer, name, info_fn)
        replace_everywhere(original, traced)
        return traced


def replace_everywhere(original, replacement, package="pesim"):
    """Rebind every module-level reference to `original` in the package."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


# ---------------------------------------------------------------------------
# arithmetic on spans
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map span id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.sid: sp.duration - _covered(sp.start, sp.end, children[sp.sid])
            for sp in spans}


def busy(spans: list[Span], layer: str) -> float:
    """Summed duration of the layer's outermost spans (per thread, so spans on
    concurrent threads add up)."""
    layer_of = {sp.sid: sp.layer for sp in spans}
    return sum(sp.duration for sp in spans
               if sp.layer == layer and layer_of.get(sp.parent) != layer)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order
    statistics; 0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
