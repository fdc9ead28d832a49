"""Span tracing of the finsection layers from outside the package.

``Tracer(traced).install`` replaces the named callables (layer module
``__all__`` functions, ``cli.main`` and the methods in ``METHODS``), in
every ``finsection`` namespace that binds them, with wrappers that record a
span (name, start, end, parent, op id) in memory.  Only callables that feed
a metric are traced, so the time of every other helper stays in its
caller's self time.  Hot per-element methods (``SouslinScheme.node``,
``SampleSpace.prob``) record no span: ``node`` only counts calls, and
``prob`` also sums its time so that its callers' self time excludes it.
``uninstall`` restores the originals.  Nothing here changes what the
library computes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "finsection"
LAYERS = ("document", "measure", "filtered", "souslin", "section")
COUNT_ONLY = {"souslin.SouslinScheme.node"}
TIMED_HOT = {"measure.SampleSpace.prob"}
METHODS = (
    ("souslin", "SouslinScheme", "__post_init__"),
    ("filtered", "FilteredSpace", "__post_init__"),
    ("souslin", "SouslinScheme", "node"),
    ("measure", "SampleSpace", "prob"),
)
NODE = "souslin.SouslinScheme.node"
BUILT = "souslin.scheme_nodes_built"


class Tracer:
    def __init__(self, traced):
        """``traced``: the names (``layer.function`` or
        ``layer.Class.method``) of the callables to wrap."""
        self.traced = frozenset(traced)
        self.op = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.counts: list[int] = []
        self.hot_time: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_hot = array("d")  # time of timed hot calls made directly under the span
        self.span_nodes = array("q")  # node lookups so far, read when the span ends
        self.stack = [-1]
        self._patches: list[tuple] = []
        self._wrappers = self._build_wrappers()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.hot_time.append(0.0)
        return self.name_ids[name]

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, name):
        nid = self._id(name)
        node_id = self._id(NODE)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, hots, nodes = self.span_start, self.span_end, self.span_hot, self.span_nodes
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            hots.append(0.0)
            nodes.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                nodes[idx] = counts[node_id]

        return wrapper

    def _count(self, fn, name):
        nid = self._id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, name):
        nid = self._id(name)
        counts, hot_time, hots, stack = self.counts, self.hot_time, self.span_hot, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[nid] += 1
                hot_time[nid] += dt
                if stack[-1] >= 0:
                    hots[stack[-1]] += dt

        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._count(fn, name)
        if name in TIMED_HOT:
            return self._timed(fn, name)
        return self._span(fn, name)

    def _build_wrappers(self):
        """(owner, attribute, original, wrapper) for every callable traced;
        owner is a module for functions and a class for methods."""
        mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in ("cli",) + LAYERS}
        out = []
        if "cli.main" in self.traced:
            out.append((None, "main", mods["cli"].main, self._wrap(mods["cli"].main, "cli.main")))
        for layer in LAYERS:
            mod = mods[layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and f"{layer}.{attr}" in self.traced:
                    out.append((None, attr, fn, self._wrap(fn, f"{layer}.{attr}")))
        built = self._id(BUILT)
        counts = self.counts
        for layer, cls_name, attr in METHODS:
            if f"{layer}.{cls_name}.{attr}" not in self.traced:
                continue
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[attr]
            target = fn
            if (cls_name, attr) == ("SouslinScheme", "__post_init__"):

                def target(scheme, _init=fn):
                    _init(scheme)
                    counts[built] += len(scheme.nodes)

            out.append((cls, attr, fn, self._wrap(target, f"{layer}.{cls_name}.{attr}")))
        unknown = self.traced - set(self.names) - {BUILT}
        if unknown:
            raise ValueError(f"no such callable to trace: {sorted(unknown)}")
        return out

    # ------------------------------------------------------------- install

    def install(self):
        by_original = {id(orig): wrapper for owner, _, orig, wrapper in self._wrappers if owner is None}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_original.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for owner, attr, orig, wrapper in self._wrappers:
            if owner is not None:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ----------------------------------------------------------- reporting

    def self_times(self) -> dict:
        """Total self time in seconds per span name: each span's duration
        minus its direct child spans and its timed hot calls."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        totals: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child[i] - self.span_hot[i]
            totals[name] = totals.get(name, 0.0) + own
        for name, nid in self.name_ids.items():
            if name in TIMED_HOT:
                totals[name] = self.hot_time[nid]
        return totals

    def span_counts(self) -> dict:
        totals: dict[str, int] = {}
        for nid in self.span_name:
            name = self.names[nid]
            totals[name] = totals.get(name, 0) + 1
        return totals

    def call_count(self, name: str) -> int:
        return self.counts[self.name_ids[name]] if name in self.name_ids else 0

    def lookups_after(self, name: str) -> int:
        """Node lookups made after each span of ``name`` ended, up to the end
        of the root span of its op, summed over those spans."""
        nid = self.name_ids.get(name)
        if nid is None:
            return 0
        root_nodes = {}
        for i in range(len(self.span_start)):
            if self.span_parent[i] < 0:
                root_nodes[self.span_op[i]] = self.span_nodes[i]
        return sum(
            root_nodes[self.span_op[i]] - self.span_nodes[i]
            for i in range(len(self.span_start))
            if self.span_name[i] == nid
        )

    def write(self, path):
        """Write every span as one tab-separated line: op, index, parent,
        name, start and end in seconds of ``perf_counter``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
