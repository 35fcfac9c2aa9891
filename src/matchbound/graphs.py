"""Undirected simple graphs and the structural queries everything else uses.

Graphs are immutable after construction: dense 0-based vertex ids and sorted
adjacency tuples, O(n + m) in all. The structural queries walk a graph only
by one BFS, which builds the cached :class:`Structure` that components,
degrees and regularity are read from, and floods G - X in place. The
tuples every graph gets, its adjacency and its structure, are made from
lists at their final size, so a run of many small graphs leaves CPython's
tuple free lists as it found them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterable, NamedTuple

# Largest order an input or a generator may ask for: building a graph peaks
# at about 64 bytes per vertex even without edges (tracemalloc, n = 10^6),
# and so does refusing one, so this caps the vertices of one graph at about
# 0.7 GB either way.
MAX_VERTICES = 10 ** 7
# Largest size an input or a generator may ask for. Beyond its vertices,
# build_graph peaks at 26-37 bytes per edge, a whole generated member at
# 169-308, an edge list read in bulk at 96-170 and one read line by line at
# 149-223 (tracemalloc, m/n 1 to 20, the most at m/n = 1; the generator's
# own edge list and the parser's integers included, the text not), so this
# caps one graph at about 3.7 GB with MAX_VERTICES.
MAX_EDGES = 10 ** 7


class GraphError(ValueError):
    """Raised for malformed graph input (loops, duplicates, bad ids).

    ``index`` is the position of the offending pair in the edge input, or
    None when no single pair is at fault.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class Graph(namedtuple("Graph", "vertex_count adjacency edge_count")):
    """n, the sorted tuple of each vertex's neighbours, and m. Declared
    without ``__slots__``: the cached properties live in ``__dict__``."""

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """Neighborhood bitmasks: bit u of nbr_masks[v] is set iff {u,v} is
        an edge. They take O(n^2) bits, so they are built on first use; no
        package code reads them any more (bench/run.py reports their size)."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency)
                for v in nbrs if u < v]

    @cached_property
    def structure(self) -> Structure:
        """Components and degrees, computed on first use."""
        sizes, common = _flood(self.adjacency, [False] * self.vertex_count)
        return Structure(tuple(sizes), tuple(common),
                         max(map(len, self.adjacency), default=0))


def _flood(adjacency: tuple[tuple[int, ...], ...],
           seen: list[bool]) -> tuple[list[int], list[int | None]]:
    """The one BFS, over the vertices not yet `seen` (mark X first for
    G - X): each component's size, and the degree in G its vertices share
    or None."""
    sizes: list[int] = []
    common: list[int | None] = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        degree: int | None = len(adjacency[start])
        queue = [start]
        for v in queue:
            if len(adjacency[v]) != degree:
                degree = None
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        sizes.append(len(queue))
        common.append(degree)
    return sizes, common


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1 from unordered pairs.

    Rejects loops, duplicate pairs (in either orientation) and out-of-range
    ids, naming the first offending pair in input order and its position.
    Only a refused list is read a second time, to name its fault, with the
    pairs read so far kept in one set, so a refusal builds no structure per
    vertex beyond `assemble_graph`'s lists.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    pairs = list(edges)
    g = assemble_graph(n, pairs)
    if g is not None:
        return g
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({clip_field(u)}, {clip_field(v)}) out "
                             f"of range for n={n}", i)
        if u == v:
            raise GraphError(f"loop edge ({u}, {v}) not allowed", i)
        if (u, v) in seen or (v, u) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})", i)
        seen.add((u, v))
    raise AssertionError("no defective pair")


def assemble_graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph | None:
    """The graph of `pairs`, or None if a pair has an id outside 0..n-1, is a
    loop or repeats another pair in either orientation.

    One bucket step: each pair is appended to the lists of both ends. Pairs
    in lexicographic order with u < v, as every edge list is emitted, leave
    each list strictly increasing, which shows that no pair repeats. Any
    other order sorts each list, where a repeated pair leaves a repeated
    neighbour that a set of the list shows. No object is kept per pair, and
    `pairs` is read once, so it may be an iterator.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    ordered = True  # every list strictly increasing so far
    try:
        for u, v in pairs:
            # no loop, and no negative id, which would index from the end
            if not 0 <= u != v >= 0:
                return None
            low, high = adj[u], adj[v]
            if ordered and (low and low[-1] >= v or high and high[-1] >= u):
                ordered = False
            low.append(v)
            high.append(u)
    except IndexError:
        return None
    if not ordered:
        for nbrs in adj:
            nbrs.sort()
        if sum(map(len, map(set, adj))) != sum(map(len, adj)):
            return None
    return freeze(adj)


def freeze(adj: list[list[int]]) -> Graph:
    """The Graph of `adj`, each vertex's sorted neighbours, which it
    consumes: every Graph's tuples are made here. Each list becomes its
    tuple in place, so it is freed at once (a bulk read peaks at 124 rather
    than 166 bytes per edge), and the outer tuple is made from a list at its
    final size: CPython keeps up to 2000 freed tuples per size up to 20, and
    one grown from an iterator is taken from the size-10 list but freed onto
    its own size's, one more per graph.
    """
    for v, nbrs in enumerate(adj):
        adj[v] = tuple(nbrs)
    return Graph(len(adj), tuple(adj), sum(map(len, adj)) // 2)


def clip_field(field: str | int) -> str:
    """A field as a message echoes it: at most 40 characters, then '...'.

    An integer of more than 40 digits is cut by a power of ten before it
    is printed, so no digits past its first 45 or so are converted."""
    if isinstance(field, int) and not -10 ** 40 < field < 10 ** 40:
        # 0.30102999566 < log10(2): the quotient keeps 41 to 47 digits
        shift = max(abs(field).bit_length() * 30102999566 // 10 ** 11 - 45, 0)
        text = ("-" if field < 0 else "") + str(abs(field) // 10 ** shift)
    else:
        text = str(field)
    shown = repr(text[:40]) if isinstance(field, str) else text[:40]
    return shown + "..." if len(text) > 40 else shown


class Structure(NamedTuple):
    """Everything one BFS over a graph reveals (see :attr:`Graph.structure`).

    Components are numbered in order of their lowest vertex; BFS starts at
    that vertex and scans sorted adjacency, so every field is deterministic.
    """
    component_sizes: tuple[int, ...]
    # the degree shared by every vertex of a component, None if they differ
    component_degree: tuple[int | None, ...]
    max_degree: int

    @property
    def component_count(self) -> int:
        return len(self.component_sizes)


def components(g: Graph) -> Structure:
    """Connected components: the shared :attr:`Graph.structure` of g."""
    return g.structure


def degree_profile(g: Graph) -> Structure:
    """Maximum degree: the shared :attr:`Graph.structure` of g."""
    return g.structure


def odd_components_after_deletion(g: Graph, deleted: Iterable[int]) -> int:
    """Number of odd-order components of the graph with `deleted` removed.

    One BFS of G - X in place: the deleted vertices are marked seen before
    the flood, so it never enters them, and the odd sizes are summed."""
    n = g.vertex_count
    seen = [False] * n
    for v in deleted:
        if not 0 <= v < n:
            raise GraphError(f"vertex {clip_field(v)} out of range for n={n}")
        seen[v] = True
    return sum(s & 1 for s in _flood(g.adjacency, seen)[0])


class Regularity(NamedTuple):
    overall: bool
    per_component: tuple[bool, ...]


def is_k_regular(g: Graph, k: int) -> Regularity:
    """Whether every vertex has degree exactly k, overall and per component."""
    if k < 0:
        raise GraphError(f"degree must be non-negative, got {k}")
    per = tuple(d == k for d in g.structure.component_degree)
    return Regularity(all(per), per)
