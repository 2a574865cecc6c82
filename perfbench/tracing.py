"""In-memory span tracer that wraps dickmanlab's public functions from outside.

``Tracer.install`` replaces every public function of the given modules at
every site that looks it up: the defining module, every other module that
imported the name with ``from ... import`` (``audits.pmf``,
``exact_dist.dickman_cdf``, the package namespace) and, for methods, the
class.  Each call then records a span ``[name, start, end, parent, run,
counts]``; ``parent`` is the index of the enclosing span (-1 at the top),
``run`` the run id current at the call, and ``counts`` an optional dict of
work counts computed from the call's inputs.  ``uninstall`` puts every
original object back.  The library itself is not modified.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
import types

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    """Span recorder plus the bookkeeping to patch and restore functions.

    ``counters`` maps a span name to ``f(bound_arguments, result) -> dict``
    of counts; ``memory`` names the spans whose tracemalloc peak is
    recorded as ``peak_mb`` (tracemalloc runs only inside those calls).
    """

    def __init__(self, counters=None, memory=()):
        self.spans: list[list] = []
        self.run_id = "setup"
        self.counters = dict(counters or {})
        self.memory = frozenset(memory)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """Return a traced stand-in for ``fn`` that records one span per call."""
        counter = self.counters.get(name)
        measure = name in self.memory
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            tracing_memory = measure and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span[COUNTS] = {"peak_mb": peak / 2**20}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNTS] = {**(span[COUNTS] or {}), **counter(bound.arguments, result)}
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public functions and methods defined in ``modules``.

        Every attribute of every module in ``modules`` that is bound to one
        of those functions is replaced by the same traced stand-in.
        """
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and isinstance(meth, types.FunctionType):
                            self._patch(obj, mattr, self.wrap(meth, f"{short}.{attr}.{mattr}"))
                elif callable(obj):
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "run", "counts"), s))))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one call stack never overlap each other, so the covered
    part is the sum of the children's durations, each clipped to its
    parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            covered[p] += max(0.0, min(s[END], parent[END]) - max(s[START], parent[START]))
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _has_ancestor(spans, i: int, pred) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans) -> tuple[dict, dict]:
    """Per-name totals and per-count totals over ``spans``.

    Returns ``(by_name, counts)``.  ``by_name[name]`` holds ``calls`` (every
    span), ``s`` (duration of the outermost spans of that name, so recursion
    is not counted twice) and ``self_s``.  ``counts[f"{name}.{key}"]`` sums a
    count over the spans carrying it that have no ancestor carrying the
    same key, so work counted at an outer API is not counted again inside
    it; ``peak_mb`` takes the maximum instead.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, lambda a: a[NAME] == name):
            agg["s"] += s[END] - s[START]
        for key, value in (s[COUNTS] or {}).items():
            full = f"{name}.{key}"
            if key == "peak_mb":
                counts[full] = max(counts.get(full, 0.0), value)
            elif not _has_ancestor(spans, i, lambda a: key in (a[COUNTS] or {})):
                counts[full] = counts.get(full, 0.0) + value
    return by_name, counts
