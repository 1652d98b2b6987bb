"""In-memory span tracing around gainforge's public functions.

The tracer patches module attributes from the benchmark's side, so the
library itself is unchanged.  Two kinds of frame are recorded:

* a *span* for each call of a coarse function (``run_search``,
  ``certify_two_ev``, ...), kept as (name, start, end, parent span,
  op id) plus the time its children cover;
* an *aggregate* for functions called thousands of times per op (the
  annealer's objective, ``switching_equivalent``, ``GainGraph.matrix``):
  one row per (parent frame, name) holding the call count, the summed
  duration and the time its own children cover.  Aggregates nest like
  spans, so self time stays exact; only the individual start/end stamps
  are not kept.

A frame's self time is its duration minus the time covered by its child
frames.  Calls are synchronous and single-threaded, so children never
overlap and the covered time is a plain sum.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional


class Tracer:
    """Collects spans and aggregates; patch() installs it, restore() removes it."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # span: [name, start, end, parent, op, child_time]
        self.spans: list[list] = []
        # aggregate key (parent_key, name) -> [count, total, child_time, op]
        self.aggs: dict[tuple, list] = {}
        self.counts: dict[str, float] = {}
        self.op: Any = None
        self._stack: list = []     # span ids (int) and aggregate keys (tuple)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _add_child_time(self, dt: float) -> None:
        if not self._stack:
            return
        top = self._stack[-1]
        if isinstance(top, int):
            self.spans[top][5] += dt
        else:
            self.aggs[top][2] += dt

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span called name; returns fn's result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, self.clock(), 0.0, parent, self.op, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self._stack.pop()
            self._add_child_time(rec[2] - rec[1])

    def aggregate(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn, folding its timing into the (parent, name) aggregate."""
        key = (self._stack[-1] if self._stack else None, name)
        rec = self.aggs.get(key)
        if rec is None:
            rec = self.aggs[key] = [0, 0.0, 0.0, self.op]
        self._stack.append(key)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            self._stack.pop()
            rec[0] += 1
            rec[1] += dt
            self._add_child_time(dt)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrappers ----------------------------------------------------------

    def wrapper(self, name: str, fn: Callable, hot: bool = False,
                note: Optional[Callable[[Any], dict]] = None) -> Callable:
        """A drop-in replacement for fn that records a span or aggregate.

        note(result) may return {counter: value} pairs added to counts.
        """
        record = self.aggregate if hot else self.span

        def traced(*args, **kwargs):
            result = record(name, fn, *args, **kwargs)
            if note is not None:
                for key, value in note(result).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, modules: list, owner: Any, attr: str, name: str,
              hot: bool = False, note: Optional[Callable[[Any], dict]] = None) -> None:
        """Replace owner.attr, and every alias of it in modules, by a wrapper.

        Functions imported with ``from .x import f`` live under several
        module names; each binding is swapped so that internal calls are
        traced too.
        """
        original = getattr(owner, attr)
        traced = self.wrapper(name, original, hot, note)
        targets = [owner] + [m for m in modules if m is not owner]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patched.append((target, key, original))
                    setattr(target, key, traced)

    def restore(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def frames(self):
        """Yield (name, op, count, total, self_time) for spans and aggregates."""
        for name, start, end, _parent, op, child in self.spans:
            yield name, op, 1, end - start, end - start - child
        for (_parent, name), (count, total, child, op) in self.aggs.items():
            yield name, op, count, total, total - child

    def dump(self, path) -> None:
        """Write every span and aggregate row as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": _key(parent),
                                     "op": op, "child_s": child}) + "\n")
            for (parent, name), (count, total, child, op) in self.aggs.items():
                fh.write(json.dumps({"aggregate": name, "parent": _key(parent),
                                     "op": op, "calls": count, "total_s": total,
                                     "child_s": child}) + "\n")


def _key(parent):
    """JSON form of a parent frame: a span id, or [span id, name] for an aggregate."""
    if isinstance(parent, tuple):
        return [_key(parent[0]), parent[1]]
    return parent


class NullTracer:
    """The untraced run's stand-in: calls go straight through."""

    enabled = False
    op: Any = None

    def span(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass
