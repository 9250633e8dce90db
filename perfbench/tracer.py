"""Outside-in span tracer for the benchmark.

The tracer replaces public functions at the names each consumer module binds
(``topovox.pipeline.betti_numbers`` and ``topovox.deform.betti_numbers`` are
separate bindings of one function), so calls are attributed to the layer that
made them without touching the package.  Spans stay in memory as four
parallel lists and are written once, when the run ends.

A span is (name, start, end, parent index).  Because the process is
single-threaded, spans nest properly, and a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        ``name`` is a span name, or a callable taking the call's positional
        arguments and returning one.  ``on_result(tracer, span_name, args,
        result)`` runs after the span closes.  Exceptions are counted as
        ``<span>.raised.<type>`` and re-raised; ``True`` results are counted
        as ``<span>.true``.
        """
        fn = getattr(module, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                counts[f"{span}.raised.{type(exc).__name__}"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if result is True:
                counts[f"{span}.true"] += 1
            if on_result is not None:
                on_result(self, span, args, result)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def aggregate(doc: dict) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s``."""
    names, starts, ends, parents = doc["names"], doc["starts"], doc["ends"], doc["parents"]
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, n in enumerate(names):
        rec = out[n]
        rec["calls"] += 1
        rec["s"] += dur[i]
        rec["self_s"] += dur[i] - child[i]
    return dict(out)


def file_bytes(tracer: Tracer, span: str, args, result) -> None:
    """``on_result`` hook: add the size of the file named by the first argument."""
    tracer.counts[f"{span}.bytes"] += os.path.getsize(args[0])
