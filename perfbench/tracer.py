"""In-memory span and count tracer that wraps flowsep functions from outside.

Each probe replaces one module attribute (the name a caller looks up at call
time) with a wrapper that records a span (name, start, end, parent) and
optionally updates counts. Nothing is written until the caller asks for the
summary. A probed name that the program no longer defines is reported as
absent, and every attribute that was patched is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str  # e.g. "flowsep.runtime"
    attr: str
    span: str  # layer span name, e.g. "advect.rk4"
    before: Callable | None = None  # (tracer, args, kwargs) -> value handed to `after`
    after: Callable | None = None  # (tracer, args, kwargs, result, before_value)


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named `name`."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, start, end)

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        label = f"{probe.module}.{probe.attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = None
            if probe.before is not None:
                pre = self._safe(label, probe.before, self, args, kwargs)
            result = self.span(probe.span, fn, *args, **kwargs)
            if probe.after is not None:
                self._safe(label, probe.after, self, args, kwargs, result, pre)
            return result

        return wrapper

    def _safe(self, label: str, hook: Callable, *args):
        # A counter that no longer fits the program's signature is reported,
        # never allowed to break the traced run.
        try:
            return hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.counter_errors.setdefault(label, f"{type(exc).__name__}: {exc}")
            return None

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> Tracer:
        for probe in self.probes:
            mod = importlib.import_module(probe.module)
            fn = getattr(mod, probe.attr, None)
            if not callable(fn):
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            self._saved.append((mod, probe.attr, fn))
            setattr(mod, probe.attr, self._wrap(probe, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- summary -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, and span count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the pipeline is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[sid]
            calls[name] += 1
        return total, self_time, calls

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
            "counter_errors": self.counter_errors,
        }
