"""Span tracer for the benchmark's traced run.

The package binds its functions with ``from module import name``, so a
function is reachable under several module attributes (``maximum_matching``
lives in ``matchbound.matching`` and is also bound in ``matchbound.cli`` and
``matchbound.bounds``).  :meth:`Tracer.install` therefore replaces every
binding of the original function object in every loaded ``matchbound``
module, and :meth:`Tracer.uninstall` puts the originals back.  Nothing in
``src/`` is modified.

Each span records its name, start, end, parent span, op id and a size taken
from the arguments or the result (vertices, edges or trials).  Spans are kept
in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, function, defining module, what the span's size column holds)
TARGETS = (
    ("cli", "run_cli", "matchbound.cli", None),
    ("edgelist", "parse_edge_list", "matchbound.edgelist", "edges"),
    ("edgelist", "emit_edge_list", "matchbound.edgelist", None),
    ("graphs", "build_graph", "matchbound.graphs", "edges"),
    ("graphs", "components", "matchbound.graphs", None),
    ("graphs", "degree_profile", "matchbound.graphs", None),
    ("graphs", "is_k_regular", "matchbound.graphs", None),
    ("matching", "maximum_matching", "matchbound.matching", "vertices"),
    ("matching", "tutte_berge", "matchbound.matching", "vertices"),
    ("bounds", "audit_graph", "matchbound.bounds", None),
    ("bounds", "general_coefficients", "matchbound.bounds", None),
    ("bounds", "density_coefficients", "matchbound.bounds", None),
    ("bounds", "connected_lower_bounds", "matchbound.bounds", None),
    ("families", "block_chain", "matchbound.families", None),
    ("families", "regular_gadget_ring", "matchbound.families", None),
    ("families", "tree_with_gadgets", "matchbound.families", None),
    ("fuzz", "random_connected_bounded", "matchbound.fuzz", "vertices"),
    ("fuzz", "run_fuzz", "matchbound.fuzz", "trials"),
)


def _size(kind, args, result):
    if kind == "edges":
        return result.edge_count
    if kind == "vertices":
        if hasattr(args[0], "vertex_count"):
            return args[0].vertex_count
        return args[1]  # random_connected_bounded(g_seed, n, k)
    if kind == "trials":
        return args[0].trials
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "size", "child")

    def __init__(self, name, parent, op):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.size = None
        self.child = 0.0  # time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Records spans around the package's public functions.

    ``op`` names the op the next spans belong to; the harness sets it before
    each op (``"setup"`` during set-up, ``None`` while it checks results,
    which records nothing).  The largest graph that
    ``build_graph`` returns while an op runs is kept for its memory size.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self.largest_graph = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "matchbound" or name.startswith("matchbound.")]
        for layer, fname, home, kind in TARGETS:
            original = getattr(sys.modules[home], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, kind)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._saved.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def _wrap(self, name, fn, kind):
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, parent, tracer.op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if kind is not None:
                span.size = _size(kind, args, result)
            if (name == "graphs.build_graph" and tracer.op != "setup"
                    and (tracer.largest_graph is None
                         or result.vertex_count
                         > tracer.largest_graph.vertex_count)):
                tracer.largest_graph = result
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, size."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent,
                                      s.op, s.size]) + "\n")
