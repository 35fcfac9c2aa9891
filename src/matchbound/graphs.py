"""Undirected simple graphs and the structural queries everything else uses.

Graphs are immutable after construction: dense 0-based vertex ids and sorted
adjacency tuples, O(n + m) in all. The structural queries walk a graph only
by one BFS, which builds the cached :class:`Structure` that components,
degrees and regularity are read from, and floods G - X in place.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterable, NamedTuple

# Largest order an input or a generator may ask for: building a graph peaks
# at about 73 bytes per vertex even without edges (tracemalloc, n = 10^6),
# so this caps the vertices of one graph at about 0.7 GB.
MAX_VERTICES = 10 ** 7
# Largest size an input or a generator may ask for. Beyond its vertices,
# build_graph peaks at 65-105 bytes per edge, a whole generated member or
# edge list read in bulk at 190-300, and one read line by line at 205-245
# (tracemalloc, m/n 1 to 20; the generator's own edge list and the parser's
# integers included, the text not), so this caps one graph at about 3.7 GB
# with MAX_VERTICES.
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
        """Components, degrees and BFS parity, computed on first use."""
        return _flood(self.adjacency, [False] * self.vertex_count)


def _flood(adjacency: tuple[tuple[int, ...], ...],
           seen: list[bool]) -> Structure:
    """The one BFS, over the vertices not yet `seen`. With X marked first, the
    sizes are those of G - X; the other fields still describe degrees in G."""
    parity = [0] * len(seen)
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
                    parity[u] = parity[v] ^ 1
                    queue.append(u)
        sizes.append(len(queue))
        common.append(degree)
    return Structure(tuple(sizes), tuple(common),
                     max(map(len, adjacency), default=0), tuple(parity))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1 from unordered pairs.

    Rejects loops, duplicate pairs (in either orientation) and out-of-range
    ids, naming the offending pair and its position in the error.

    One bucket step builds the adjacency: each pair is appended to the lists
    of both ends, and each list is sorted (linear time on sorted pairs).
    Pairs are taken as they are when each has 0 <= u < v < n and one set of
    pairs shows no duplicate; any other input, and any defect, is re-scanned
    in input order, so the error names the first defect.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    pairs = list(edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    clean = True
    try:
        for u, v in pairs:
            if not 0 <= u < v:
                clean = False
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:
        clean = False  # an id out of range: the re-scan names it
    for nbrs in adj:
        nbrs.sort()
    if clean:
        try:
            clean = len(set(pairs)) == len(pairs)
        except TypeError:  # unhashable pairs, such as lists
            clean = False
    if not clean:
        _check_in_order(n, pairs)
    return Graph(n, tuple(map(tuple, adj)), len(pairs))


def _check_in_order(n: int, pairs: list[tuple[int, int]]) -> None:
    """Raise GraphError for the first defective pair, if there is one."""
    seen: list[set[int]] = [set() for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({clip_field(u)}, {clip_field(v)}) out "
                             f"of range for n={n}", i)
        if u == v:
            raise GraphError(f"loop edge ({u}, {v}) not allowed", i)
        if v in seen[u]:
            raise GraphError(f"duplicate edge ({u}, {v})", i)
        seen[u].add(v)
        seen[v].add(u)


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
    # BFS depth mod 2 from the lowest vertex of the vertex's component
    parity: tuple[int, ...]

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
    return sum(s & 1 for s in _flood(g.adjacency, seen).component_sizes)


class Regularity(NamedTuple):
    overall: bool
    per_component: tuple[bool, ...]


def is_k_regular(g: Graph, k: int) -> Regularity:
    """Whether every vertex has degree exactly k, overall and per component."""
    if k < 0:
        raise GraphError(f"degree must be non-negative, got {k}")
    per = tuple(d == k for d in components(g).component_degree)
    return Regularity(all(per), per)
