"""Timing wrappers installed from outside the program for the traced run.

A wrapper replaces a function in the namespace it is looked up from (the
engine imports its callees by name, so e.g. ``unoma.engine.mpa_detect_batch``
is wrapped, not ``unoma.noma_core.mpa_detect_batch``) and the original is put
back when the block ends. Each wrapper adds to its span's call count, total
time and self time, the span minus the time spent in wrapped callees.
Wrappers in forked pool workers would record into the workers' copies, so the
traced sweeps run serially.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.unrestored: list[str] = []
        self._child_s: list[float] = []  # callee time of each open span

    def _wrap(self, name, fn, observe):
        span = self.spans.setdefault(name, Span())
        child_s = self._child_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return timed

    @contextmanager
    def installed(self, targets):
        """Wrap each (module, attribute, span name, observer or None) for the
        duration of the block. Afterwards ``unrestored`` names every attribute
        that does not hold its original object again."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original, observe))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.unrestored = [f"{m.__name__}.{a}" for m, a, o in saved
                               if getattr(m, a) is not o]

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())
