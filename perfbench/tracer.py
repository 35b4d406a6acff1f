"""Span tracing of the nilfibre layers from outside the package.

The tracer wraps the public functions of each measured module and records a
span per call: name, start, end, parent span and run id.  Spans live in
compact arrays until the run ends; self times are derived from them
afterwards.  Consumer modules import functions by name (``from .linalg
import exact_rank``), so every ``nilfibre`` module's globals are scanned and
each binding of a wrapped function is replaced, then put back by
``restore``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# The measured layers; ``render`` is left out on purpose (see README.md).
LAYERS = ("core", "builder", "roots", "poly", "invariants", "linalg", "analysis", "conformance", "cli")

# Methods wrapped besides the module-level functions.
METHODS = {"poly": {"Poly": ("substitute", "from_json", "to_json")}}


def _exact_rank_cells(counts, args, result) -> None:
    rows = args[0]
    counts["linalg.exact_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _monomials(counts, args, result) -> None:
    counts["invariants.monomials"] += len(result.polynomial.terms)


# Counts computed from a call's arguments or result, keyed by span name.
HOOKS = {
    "linalg.exact_rank": _exact_rank_cells,
    "invariants.extract_invariant": _monomials,
}


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self, clock=time.perf_counter_ns, request: str | None = None):
        # ``request``: span name whose every call starts a new run id.
        self.clock = clock
        self.request = request
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def next_run(self) -> int:
        """Start a new request: later spans carry the new run id."""
        self.run_id += 1
        return self.run_id

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = HOOKS.get(name)
        starts_run = name == self.request
        clock, stack = self.clock, self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, runs = self.span_parent, self.span_run

        def traced(*args, **kwargs):
            idx = len(names)
            if starts_run:
                self.run_id += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of ``layers`` wherever it is bound."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import nilfibre  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sorted(sys.modules.items()) if key == "nilfibre" or key.startswith("nilfibre.")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"nilfibre.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped under its own layer
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue  # a span would close before the work is done
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    name = f"{layer}.{cls_name}.{method}"
                    if isinstance(raw, classmethod):
                        replacement = classmethod(self.wrap(name, raw.__func__))
                    else:
                        replacement = self.wrap(name, raw)
                    self._saved.append((cls, method, raw))
                    setattr(cls, method, replacement)
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((module, attr, obj))
                    namespace[attr] = entry[1]

    def restore(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self):
        """Spans as (name, start_ns, end_ns, parent_index, run_id)."""
        names = self.names
        for i in range(len(self.span_name)):
            yield (
                names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
                self.span_parent[i],
                self.span_run[i],
            )

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "run"]}) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def self_times(spans, keep: set[int] | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Spans are (name, start_ns, end_ns, parent_index, ...) in start order, so
    a parent always precedes its children.  Self time is a span's duration
    minus the durations of its direct children; one thread means children
    never overlap.  ``keep`` limits the totals to those span indices.
    """
    spans = list(spans)
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if keep is not None and i not in keep:
            continue
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["s"] += (end - start - child_ns[i]) / 1e9
        if not _nested_in_same(spans, i):
            row["incl_s"] += (end - start) / 1e9
    return out


def _nested_in_same(spans, i: int) -> bool:
    """Whether span ``i`` runs inside another span of the same name, so its
    time is already inside that span's inclusive time."""
    name = spans[i][0]
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_self_times(per_name: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer: the sum over that layer's span names."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in per_name.items():
        out[name.split(".", 1)[0]] += row["s"]
    return out


def layer_inclusive_times(spans) -> dict[str, float]:
    """Seconds under each layer's outermost spans, callees in other layers
    included (a span inside another span of its own layer is not counted
    again)."""
    out = {layer: 0.0 for layer in LAYERS}
    empty: frozenset = frozenset()
    unions: dict[tuple[frozenset, str], frozenset] = {}
    open_layers: list[frozenset] = []  # per span: layers of it and its ancestors
    for name, start, end, parent, *_ in spans:
        layer = name.split(".", 1)[0]
        inherited = open_layers[parent] if parent >= 0 else empty
        key = (inherited, layer)
        if key not in unions:
            unions[key] = inherited | {layer}
        open_layers.append(unions[key])
        if layer not in inherited:
            out[layer] += (end - start) / 1e9
    return out


def nested_time(spans, outer: set[str], inner: str, keep: set[int] | None = None) -> dict[str, float]:
    """Per outer name, the seconds spent in ``inner`` spans nested below it
    (nearest outer ancestor only); ``keep`` limits it to those span indices."""
    spans = list(spans)
    owner = [-1] * len(spans)
    out = {name: 0.0 for name in outer}
    for i, (name, start, end, parent, *_) in enumerate(spans):
        owner[i] = i if name in outer else (owner[parent] if parent >= 0 else -1)
        if name == inner and parent >= 0 and owner[parent] >= 0 and (keep is None or i in keep):
            out[spans[owner[parent]][0]] += (end - start) / 1e9
    return out
