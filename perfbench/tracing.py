"""In-memory spans recorded around the public calls into each layer.

Nothing under ``src/`` is edited: the tracer replaces module attributes of
the imported package with timing wrappers and hands the simulators a proxy
policy whose ``rates`` call is timed.  Spans are kept in a list as
``[name, start, end, parent, op_id, note]`` and summarised when the
traced phase ends.
"""
from __future__ import annotations

import functools
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._run(name, None, fn, args, kwargs)

    def _run(self, name, note, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, _clock(), None, parent, self.op_id, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            self._stack.pop()

    def patch(self, module, attr: str, name: str, extra=None):
        """Replace ``module.attr`` by a wrapper that records a span per
        call; ``extra(args, kwargs)`` computes a note kept on the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            note = extra(args, kwargs) if extra is not None else None
            return self._run(name, note, original, args, kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def policy(self, inner, label: str):
        return TimedPolicy(self, inner, f"policies.rates.{label}")


class TimedPolicy:
    """Proxy that times every ``rates`` call of the wrapped policy."""

    def __init__(self, tracer: Tracer, inner, name: str):
        self._tracer = tracer
        self._inner = inner
        self._name = name

    def rates(self, state, net, arr, svc, dt):
        return self._tracer.call(self._name, self._inner.rates, state, net, arr, svc, dt)


def durations(spans):
    """Per span: (duration, self time), self time being the duration minus
    the time its direct children cover."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]
