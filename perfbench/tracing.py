"""Spans and call counters recorded from the benchmark's own code.

The tracer replaces, for the duration of a traced iteration, the public
names that ``mtshapes`` modules look up at call time (module globals and
``TreeShape`` attributes) with wrappers.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

A span holds its name, start, end and parent.  Calls made from worker
threads (``run_chains --threads``) take the main thread's innermost open
span as parent.  Per-call hot functions are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name, options).  Options: "cpu" records process
# CPU time inside the span, "counts" snapshots every counter around it,
# "gen" wraps a generator (the span runs from creation to exhaustion and
# each yielded item is counted).  Names without a metric of their own
# still keep their time out of cli.self_s.
SPANNED = [
    ("mtshapes.cli", "run_chains", "chains.run_chains", ("cpu", "counts")),
    ("mtshapes.cli", "sample_topologies", "coalescent.sample_topologies", ("counts",)),
    ("mtshapes.cli", "shape_stats", "treestats.shape_stats", ()),
    ("mtshapes.cli", "aggregate", "treestats.aggregate", ()),
    ("mtshapes.cli", "build_hasse", "lattice.build_hasse", ()),
    ("mtshapes.chains", "build_hasse", "lattice.build_hasse", ()),
    ("mtshapes.cli", "covers", "lattice.covers", ()),
    ("mtshapes.cli", "diameter", "lattice.diameter", ()),
    ("mtshapes.lattice", "diameter", "lattice.diameter", ()),
    ("mtshapes.lattice", "generate_all", "enumeration.generate_all", ("gen",)),
    ("mtshapes.lattice", "lub", "lattice.lub", ()),
    ("mtshapes.lattice", "lub_fmatrix", "lattice.lub_fmatrix", ()),
    ("mtshapes.lattice", "validate_fmatrix", "shapes.validate_fmatrix", ()),
    ("mtshapes.shapes", "validate_fmatrix", "shapes.validate_fmatrix", ()),
    ("mtshapes.cli", "count_space", "enumeration.count_space", ()),
    ("mtshapes.chains", "count_space", "enumeration.count_space", ()),
    ("mtshapes.cli", "count_shapes", "enumeration.count_shapes", ()),
    ("mtshapes.cli", "mixing_bounds", "chains.mixing_bounds", ()),
    ("mtshapes.cli", "exact_kernel", "chains.exact_kernel", ()),
    ("mtshapes.chains", "exact_kernel", "chains.exact_kernel", ()),
    ("mtshapes.cli", "exact_gap", "chains.exact_gap", ()),
    ("mtshapes.chains", "exact_gap", "chains.exact_gap", ()),
    ("mtshapes.cli", "exact_bottleneck", "chains.exact_bottleneck", ()),
    ("mtshapes.chains", "exact_bottleneck", "chains.exact_bottleneck", ()),
    ("mtshapes.cli", "stationary_distribution", "chains.stationary_distribution", ()),
]
# (TreeShape attribute, span name)
SPANNED_METHODS = [
    ("from_text", "shapes.from_text"),
    ("to_text", "shapes.to_text"),
    ("fmatrix", "shapes.fmatrix"),
    ("from_fmatrix", "shapes.from_fmatrix"),
]
COUNTED = [
    ("mtshapes.shapes", "validate_string", "shapes.validate_string"),
    ("mtshapes.lattice", "split_count", "lattice.split_count"),
    ("mtshapes.chains", "split_count", "lattice.split_count"),
]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class _Counter:
    """Lock-free call counter: ``itertools.count.__next__`` is atomic."""

    def __init__(self):
        self._it = itertools.count()
        self._reads = 0
        self.tick = self._it.__next__

    def value(self) -> int:
        v = next(self._it) - self._reads
        self._reads += 1
        return v


@dataclass
class Span:
    sid: int
    parent: int  # 0 for a top-level span
    name: str
    start: float
    end: float
    cpu: float | None = None
    counts: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, _Counter] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[int] = []
        self._local.stack = self._root
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else 0

    def counts(self) -> dict[str, int]:
        return {name: c.value() for name, c in self.counters.items()}

    def call(self, name, fn, *args, _opts=(), **kwargs):
        stack = self._stack()
        sid, parent = next(self._ids), self._parent(stack)
        stack.append(sid)
        c0 = self.counts() if "counts" in _opts else None
        cpu0 = _cpu() if "cpu" in _opts else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            span = Span(sid, parent, name, t0, t1)
            if cpu0 is not None:
                span.cpu = _cpu() - cpu0
            if c0 is not None:
                c1 = self.counts()
                span.counts = {k: c1[k] - c0.get(k, 0) for k in c1}
            self.spans.append(span)

    def wrap(self, fn, name, opts=()):
        if "gen" in opts:
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _opts=opts, **kwargs)

        return traced

    def _wrap_generator(self, fn, name):
        counter = self.counters.setdefault(name, _Counter())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(self._ids), self._parent(self._stack())
            t0 = perf_counter()
            try:
                for item in fn(*args, **kwargs):
                    counter.tick()
                    yield item
            finally:
                self.spans.append(Span(sid, parent, name, t0, perf_counter()))

        return traced

    def count(self, fn, name):
        tick = self.counters.setdefault(name, _Counter()).tick

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    # -- installing wrappers ----------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every listed name.  A listed name the package no longer
        has raises AttributeError, so a rename fails the traced run
        instead of reading as a layer that takes no time."""
        try:
            for mod_name, attr, name in COUNTED:
                mod = importlib.import_module(mod_name)
                self._replace(mod, attr, self.count(getattr(mod, attr), name))
            for mod_name, attr, name, opts in SPANNED:
                mod = importlib.import_module(mod_name)
                self._replace(mod, attr, self.wrap(getattr(mod, attr), name, opts))
            tree_shape = importlib.import_module("mtshapes.shapes").TreeShape
            for attr, name in SPANNED_METHODS:
                raw = inspect.getattr_static(tree_shape, attr)
                if isinstance(raw, classmethod):
                    self._replace(tree_shape, attr, classmethod(self.wrap(raw.__func__, name)))
                else:
                    self._replace(tree_shape, attr, self.wrap(raw, name))
        except AttributeError:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class LayerTotals:
    """Per span name: calls, inclusive seconds, self seconds, CPU seconds
    and counter deltas, summed over every span recorded."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    cpu: float = 0.0
    counts: dict | None = None


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Aggregate spans by name.  Self time is a span's duration minus the
    part of its interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        agg = out[s.name]
        dur = s.end - s.start
        agg.calls += 1
        agg.seconds += dur
        agg.self_seconds += dur - _covered(children.get(s.sid, ()), s.start, s.end)
        if s.cpu is not None:
            agg.cpu += s.cpu
        if s.counts is not None:
            agg.counts = agg.counts or defaultdict(int)
            for k, v in s.counts.items():
                agg.counts[k] += v
    return dict(out)
