"""In-memory span tracing and self-time arithmetic.

A ``Tracer`` replaces module attributes with wrappers. Each wrapper records a
span (name, start, end, parent) around the original function and may update
named counters from the call's arguments. ``summarize`` turns the spans into
per-name and per-layer times; a span's layer is its name up to the first dot.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Nested spans and counters of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self._open: list[int] = []
        self._patched: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = self.clock()
            self._open.pop()

    def patch(self, module, attr: str, span: str | None, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span and/or counts.

        ``count(tracer, arguments, result)`` receives the call's arguments
        bound by name, defaults included. A wrapper with ``span=None`` only
        counts, which suits generator functions whose work happens later.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = self.call(span, original, *args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write spans and counters as JSON: spans are [name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)],
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.keys.items()},
            }, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost_durations(keys: list[str], parents: list[int], durations: list[float]) -> dict:
    """Per key, the summed duration of spans with no ancestor of the same key.

    That is the union of the key's intervals, since spans of one thread nest.
    """
    ids = {k: b for b, k in enumerate(dict.fromkeys(keys))}
    masks = [0] * len(keys)  # bit set of the keys among each span's ancestors
    out = defaultdict(float)
    for i, key in enumerate(keys):
        p = parents[i]
        if p >= 0:
            masks[i] = masks[p] | (1 << ids[keys[p]])
        if not masks[i] >> ids[key] & 1:
            out[key] += durations[i]
    return dict(out)


def summarize(names, starts, ends, parents) -> dict:
    """Calls, self time and busy time per span name and per layer.

    Self time is a span's duration minus the part of it that its child spans
    cover. Busy time is the time covered by at least one span of the name
    (or layer). Parents must precede their children.
    """
    n = len(names)
    if any(p >= i for i, p in enumerate(parents)):
        raise ValueError("every parent must precede its children")
    durations = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the children's coverage so far, per parent
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    calls, self_time, layer_self = Counter(), defaultdict(float), defaultdict(float)
    for i, name in enumerate(names):
        own = durations[i] - covered[i]
        calls[name] += 1
        self_time[name] += own
        layer_self[layer_of(name)] += own
    layers = [layer_of(name) for name in names]
    return {
        "calls": dict(calls),
        "self": dict(self_time),
        "busy": _outermost_durations(list(names), parents, durations),
        "layer_self": dict(layer_self),
        "layer_busy": _outermost_durations(layers, parents, durations),
    }
