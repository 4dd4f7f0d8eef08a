"""Per-layer spans recorded from outside the package.

A Tracer replaces chosen functions and methods of the schurkit modules with
time.perf_counter wrappers (cProfile is avoided on purpose: it charges every
Python call, which inflates the call-heavy classify layer about threefold).
Each wrapped call is a span; a span's self time is its duration minus the
time of the spans nested directly inside it.  Recursive calls of the same
name count as calls but add their time only once, at the outermost level.

Functions are looked up by identity in every loaded schurkit module, so a
name imported with ``from .x import f`` is wrapped wherever it is bound.
"""

from __future__ import annotations

import sys
import time


class Span:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Observer:
    """Per-call hook of a wrapped function: before() runs ahead of the span,
    after() once it has closed; neither is timed as part of the span."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(tracer, args, result, before):
        pass


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self.active = False
        self._stack: list = []  # [start, child_time] per open span
        self._undo: list = []

    # --- recording ------------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _wrapper(self, name, fn, observe):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = observe.before(args) if observe else None
            span.calls += 1
            span.depth += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.depth -= 1
                dur = clock() - frame[0]
                span.self_time += dur - frame[1]
                if span.depth == 0:
                    span.total += dur
                if stack:
                    stack[-1][1] += dur
            if observe:
                observe.after(self, args, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installation -------------------------------------------------------

    def wrap_function(self, name: str, fn, observe=None) -> None:
        """Rebind fn in every loaded schurkit module to a traced wrapper."""
        traced = self._wrapper(name, fn, observe)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "schurkit" or modname.startswith("schurkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, fn))

    def wrap_method(self, name: str, cls, attr: str, observe=None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, fn, observe))
        self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
