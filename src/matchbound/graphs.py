"""Undirected simple graphs and the structural queries everything else uses.

Graphs are immutable after construction: dense 0-based vertex ids and sorted
adjacency tuples, O(n + m) in all. The per-vertex neighborhood bitmasks
(plain ints) behind the masked odd-component count below take O(n^2) bits,
so they are built on first use. This module is the only one that walks a
graph: a single BFS builds the cached :class:`Structure` that components,
degrees and regularity are read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

# Largest order an input or a generator may ask for: building a graph peaks
# at about 233 bytes per vertex even without edges, so this caps one graph
# at about 2.3 GB.
MAX_VERTICES = 10 ** 7


class GraphError(ValueError):
    """Raised for malformed graph input (loops, duplicates, bad ids).

    ``index`` is the position of the offending pair in the edge input, or
    None when no single pair is at fault.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """Neighborhood bitmasks: bit u of nbr_masks[v] is set iff {u,v} is
        an edge. Built on first use; only :func:`odd_component_count` reads
        them."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.vertex_count)
                for v in self.adjacency[u] if u < v]

    @cached_property
    def structure(self) -> Structure:
        """Components, degrees and BFS parity, from one scan on first use."""
        adjacency = self.adjacency
        n = self.vertex_count
        comp = [-1] * n
        parity = [0] * n
        sizes: list[int] = []
        common: list[int | None] = []
        counts: dict[int, int] = {}
        for start in range(n):
            if comp[start] != -1:
                continue
            idx = len(sizes)
            comp[start] = idx
            degree: int | None = len(adjacency[start])
            queue = [start]
            for v in queue:
                d = len(adjacency[v])
                counts[d] = counts.get(d, 0) + 1
                if d != degree:
                    degree = None
                for u in adjacency[v]:
                    if comp[u] == -1:
                        comp[u] = idx
                        parity[u] = parity[v] ^ 1
                        queue.append(u)
            sizes.append(len(queue))
            common.append(degree)
        return Structure(tuple(comp), tuple(sizes), tuple(common),
                         max(counts, default=0), MappingProxyType(counts),
                         tuple(parity))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1 from unordered pairs.

    Rejects loops, duplicate pairs (in either orientation) and out-of-range
    ids, naming the offending pair and its position in the error.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    m = 0
    for u, v in edges:
        # m pairs were accepted so far, so m is this pair's position
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}", m)
        if u == v:
            raise GraphError(f"loop edge ({u}, {v}) not allowed", m)
        if v in adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})", m)
        adj[u].add(v)
        adj[v].add(u)
        m += 1
    return Graph(n, tuple(tuple(sorted(s)) for s in adj), m)


@dataclass(frozen=True)
class Structure:
    """Everything one BFS over a graph reveals (see :attr:`Graph.structure`).

    Components are numbered in order of their lowest vertex; BFS starts at
    that vertex and scans sorted adjacency, so every field is deterministic.
    """
    component_of: tuple[int, ...]
    component_sizes: tuple[int, ...]
    # the degree shared by every vertex of a component, None if they differ
    component_degree: tuple[int | None, ...]
    max_degree: int
    degree_counts: Mapping[int, int]  # read-only: every caller shares it
    # BFS depth mod 2 from the lowest vertex of the vertex's component
    parity: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.component_sizes)


def components(g: Graph) -> Structure:
    """Connected components: the shared :attr:`Graph.structure` of g."""
    return g.structure


def degree_profile(g: Graph) -> Structure:
    """Maximum degree and degree counts: the shared :attr:`Graph.structure`."""
    return g.structure


def odd_component_count(nbr_masks: tuple[int, ...], vertex_mask: int) -> int:
    """Number of odd-order components of the subgraph on `vertex_mask`.

    Floods one component at a time through the neighborhood bitmasks, so
    nothing is rebuilt for a vertex subset.
    """
    remaining = vertex_mask
    odd = 0
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            t = frontier
            while t:
                bit = t & -t
                t ^= bit
                reach |= nbr_masks[bit.bit_length() - 1]
            frontier = reach & remaining & ~comp
            comp |= frontier
        remaining ^= comp
        odd += comp.bit_count() & 1
    return odd


def odd_components_after_deletion(g: Graph, deleted: Iterable[int]) -> int:
    """Number of odd-order components of the graph with `deleted` removed."""
    blocked = 0
    for v in deleted:
        if not 0 <= v < g.vertex_count:
            raise GraphError(f"vertex {v} out of range for n={g.vertex_count}")
        blocked |= 1 << v
    return odd_component_count(g.nbr_masks,
                               (1 << g.vertex_count) - 1 & ~blocked)


class Regularity(NamedTuple):
    overall: bool
    per_component: tuple[bool, ...]


def is_k_regular(g: Graph, k: int) -> Regularity:
    """Whether every vertex has degree exactly k, overall and per component."""
    if k < 0:
        raise GraphError(f"degree must be non-negative, got {k}")
    per = tuple(d == k for d in components(g).component_degree)
    return Regularity(all(per), per)
