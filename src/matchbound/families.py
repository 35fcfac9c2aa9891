"""Deterministic generators for the extremal families.

Each generator returns a :class:`GeneratedGraph`: the graph plus its
predicted order, size and matching number in closed form, so tests can
check the prediction against the matching algorithm exactly.

Two gadgets appear throughout. ``complete_minus_edge(k)`` is the complete
graph on k+1 vertices with one edge removed; its two endpoints have degree
k-1 and are the *link vertices* where an attachment edge may land without
pushing any degree past k. ``single_link_gadget(k)`` (odd k) is the graph
on k+2 vertices whose complement is a 2-edge path plus (k-1)/2 disjoint
edges; exactly one vertex — the path's center — has degree k-1 and serves
as the sole link vertex.

The families:

* ``block_chain(k, r, blocks)`` (even k) — r connector vertices, each
  adjacent to k blocks out of a row of r*(k-1)+1; consecutive connectors
  share one block. Every block is either a lone vertex or a
  complete-minus-edge gadget, per the ``blocks`` pattern. All-singles
  gives a tree; all-gadgets gives the densest member.
* ``tree_with_gadgets(k, tree)`` (odd k) — a bipartite tree whose
  second-part vertices are topped up to degree k by attaching
  single-link gadgets.
* ``regular_gadget_ring(k, r)`` (even k) — k*r/2 two-link gadgets wired
  to r hub vertices in a ring; connected and k-regular by construction.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain
from typing import NamedTuple

from matchbound.graphs import (MAX_EDGES, MAX_VERTICES, Graph, build_graph,
                               clip_field)


class GeneratedGraph(namedtuple("GeneratedGraph", "graph predicted_n "
                                "predicted_m predicted_alpha link_vertices")):
    """A member with its closed-form n, m and alpha', and its link vertices;
    construction checks the built n and m against the closed forms."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GeneratedGraph:
        self = super().__new__(cls, *args, **kwargs)
        # a raise, not an assert, so the check also runs under python -O
        built = (self.graph.vertex_count, self.graph.edge_count)
        if built != (self.predicted_n, self.predicted_m):
            raise AssertionError(
                f"built (n, m) = {built}, but the closed forms give "
                f"{(self.predicted_n, self.predicted_m)}")
        return self


def _check_size(n: int, m: int) -> None:
    """Refuse a member over MAX_VERTICES or MAX_EDGES before it is built."""
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise ValueError(f"the member would have at least {clip_field(n)} "
                         f"vertices and {clip_field(m)} edges, above the "
                         f"limit of {MAX_VERTICES} vertices or {MAX_EDGES} "
                         "edges")


def complete_minus_edge(k: int) -> GeneratedGraph:
    """Complete graph on k+1 vertices minus the edge {0, 1}."""
    if k < 2:
        raise ValueError(
            f"complete_minus_edge needs k >= 2, got {clip_field(k)}")
    n = k + 1
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) != (0, 1)]
    g = build_graph(n, edges)
    return GeneratedGraph(g, n, k * (k + 1) // 2 - 1, (k + 1) // 2, (0, 1))


def single_link_gadget(k: int) -> GeneratedGraph:
    """Dense gadget on k+2 vertices with one link vertex (vertex 0).

    Built as the complement of {0-1, 0-2} plus the perfect matching
    {3-4, 5-6, ..., k-(k+1)} on the remaining vertices. Vertex 0 ends at
    degree k-1, everything else at degree k.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"single_link_gadget needs odd k >= 3, "
                         f"got {clip_field(k)}")
    n = k + 2
    removed = {(0, 1), (0, 2)}
    removed.update((i, i + 1) for i in range(3, n, 2))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in removed]
    g = build_graph(n, edges)
    return GeneratedGraph(g, n, (k * k + 2 * k - 1) // 2, (k + 1) // 2, (0,))


def _copies(gadget, k: int, bases) -> list[tuple[int, int]]:
    # a gadget of a large k alone may exceed the limits: build it only if used
    edges = gadget(k).graph.edges() if bases else []
    return [(b + u, b + v) for b in bases for u, v in edges]


def _parse_blocks(blocks: str, length: int) -> tuple[bool, ...]:
    if blocks == "gadgets":
        return (True,) * length
    if blocks == "singles":
        return (False,) * length
    for ch in blocks:
        if ch not in "gs10":
            raise ValueError(
                f"block pattern may contain g/s (or 1/0), got {ch!r}")
    if len(blocks) != length:
        raise ValueError(
            f"need {length} block choices (r*(k-1)+1), got {len(blocks)}")
    return tuple(ch in "g1" for ch in blocks)


def block_chain(k: int, r: int, blocks: str = "gadgets") -> GeneratedGraph:
    """Chain of r*(k-1)+1 blocks on r connector vertices (even k >= 4).

    Connector i is joined to blocks i*(k-1) .. i*(k-1)+k-1, so consecutive
    connectors share exactly one block; a shared gadget spends both of its
    link vertices, every other gadget one.
    """
    if k < 4 or k % 2:
        raise ValueError(
            f"block_chain needs even k >= 4, got {clip_field(k)}")
    if r < 1:
        raise ValueError(f"block_chain needs r >= 1, got {clip_field(r)}")
    length = r * (k - 1) + 1
    # every block is at least one vertex and every connector has k edges:
    # refuse a huge r before the block pattern is expanded
    _check_size(r + length, r * k)
    flags = _parse_blocks(blocks, length)
    gadget_count = sum(flags)
    n = r + length + gadget_count * k
    m = r * k + gadget_count * (k * (k + 1) // 2 - 1)
    _check_size(n, m)
    alpha = r + gadget_count * k // 2

    # block j starts at first[j]; the last entry is the vertex count
    first = list(accumulate((k + 1 if is_gadget else 1 for is_gadget in flags),
                            initial=r))
    bases = [b for b, is_gadget in zip(first, flags) if is_gadget]
    edges = _copies(complete_minus_edge, k, bases)
    for i in range(r):
        # a gadget shared with connector i-1 gives i its second link vertex
        j = i * (k - 1)
        edges.append((i, first[j] + (1 if i and flags[j] else 0)))
        edges.extend((i, first[j + t]) for t in range(1, k))
    g = build_graph(first[-1], edges)
    return GeneratedGraph(g, n, m, alpha,
                          tuple(b + t for b in bases for t in (0, 1)))


class BipartiteTree(NamedTuple):
    """A tree with a designated bipartition, parts indexed 1 and 2."""
    graph: Graph
    part2: tuple[int, ...]


def bipartite_tree(graph: Graph, part2=None) -> BipartiteTree:
    """Validate and wrap an explicit tree with its chosen second part, by
    default the vertices at odd distance from vertex 0."""
    n = graph.vertex_count
    if graph.edge_count != n - 1 or graph.structure.component_count != 1:
        raise ValueError("input graph is not a tree")
    if part2 is None:
        side = [0] + [None] * (n - 1)
        queue = [0]
        for v in queue:
            for u in graph.adjacency[v]:
                if side[u] is None:
                    side[u] = side[v] ^ 1
                    queue.append(u)
        part2 = [v for v in range(n) if side[v]]
    in2 = set(part2)
    if not all(0 <= v < n for v in in2):
        raise ValueError("part-2 ids out of range")
    for u, v in graph.edges():
        if (u in in2) == (v in in2):
            raise ValueError(
                f"edge ({u}, {v}) does not cross the given bipartition")
    return BipartiteTree(graph, tuple(sorted(in2)))


def canonical_tree(k: int, r: int, mode: str) -> BipartiteTree:
    """Deterministic caterpillar tree with |part2| = r.

    mode "tree": every part-2 vertex has degree exactly k (so attaching
    gadgets to cover part-2 deficiencies is a no-op and the family member
    stays a tree). mode "regular": every part-1 vertex has degree exactly
    k, which forces r = (k-1)*|part1| + 1; other r are rejected.
    """
    if k < 2:
        raise ValueError(f"canonical_tree needs k >= 2, got {clip_field(k)}")
    if r < 1:
        raise ValueError(f"canonical_tree needs r >= 1, got {clip_field(r)}")
    if mode not in ("tree", "regular"):
        raise ValueError(f"mode must be 'tree' or 'regular', got {mode!r}")

    if mode == "regular":
        if (r - 1) % (k - 1) != 0 or r < k:
            raise ValueError(
                f"no tree has every part-1 vertex of degree {k} with "
                f"|part2|={clip_field(r)}: counting edges forces |part2| = "
                f"(k-1)*|part1| + 1, so r must be 1 mod {k - 1} and >= {k}")
        s = (r - 1) // (k - 1)  # the spine is part 1
    else:
        s = r  # the spine is part 2
    # every edge has exactly one spine end, and spine vertices have degree k
    _check_size(k * s + 1, k * s)

    # spine vertex i owns the ids from start[i] = s + i*(k-1) + (i > 0) to
    # start[i+1] - 1: the connector it shares with spine vertex i+1 (if
    # i + 1 < s), then k - (i > 0) - (i + 1 < s) padding leaves, so every
    # spine vertex has degree k
    start = [s + i * (k - 1) + (1 if i else 0) for i in range(s + 1)]
    edges = [(i, v) for i in range(s) for v in range(start[i], start[i + 1])]
    edges += [(i + 1, start[i]) for i in range(s - 1)]
    g = build_graph(start[-1], edges)
    part2 = range(s) if mode == "tree" else range(s, start[-1])
    return BipartiteTree(g, tuple(part2))


def tree_with_gadgets(k: int, tree: BipartiteTree) -> GeneratedGraph:
    """Top up every part-2 vertex of the tree to degree k with gadgets.

    For each part-2 vertex x with degree d, k-d copies of the single-link
    gadget are attached by an edge from their link vertex to x (odd k).
    If every part-2 vertex already has degree k the result is the tree
    itself.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(
            f"tree_with_gadgets needs odd k >= 3, got {clip_field(k)}")
    base = tree.graph
    if base.structure.max_degree > k:
        raise ValueError("tree has a vertex of degree above k")
    n2 = len(tree.part2)
    n1 = base.vertex_count - n2
    n = (k * k + k - 1) * n2 - (k + 1) * n1 + (k + 2)
    m = ((k ** 3 + k * k - k + 1) * n2 - (k * k + 2 * k - 1) * n1
         + (k * k + 2 * k - 1)) // 2
    _check_size(n, m)
    alpha = ((k * k + 1) * n2 - (k + 1) * n1 + (k + 1)) // 2

    # gadget copy t hangs by its link vertex links[t] from hosts[t]
    hosts = [x for x in tree.part2 for _ in range(k - base.degree(x))]
    links = range(base.vertex_count,
                  base.vertex_count + len(hosts) * (k + 2), k + 2)
    edges = _copies(single_link_gadget, k, links)
    edges += chain(base.edges(), zip(hosts, links))
    g = build_graph(links.stop, edges)
    return GeneratedGraph(g, n, m, alpha, tuple(links))


def regular_gadget_ring(k: int, r: int) -> GeneratedGraph:
    """Connected k-regular graph from k*r/2 gadgets on r hubs (even k >= 4).

    Gadget i of the first r is shared between hub i and hub i+1 (mod r),
    which alone makes the graph connected; each hub then takes both link
    vertices of (k-2)/2 private gadgets to reach degree k.
    """
    if k < 4 or k % 2:
        raise ValueError(f"regular_gadget_ring needs even k >= 4, "
                         f"got {clip_field(k)}")
    if r < 1:
        raise ValueError(
            f"regular_gadget_ring needs r >= 1, got {clip_field(r)}")
    n = r + (k * r // 2) * (k + 1)
    m = r * k + k * r * (k * k + k - 2) // 4
    _check_size(n, m)
    alpha = r + k * k * r // 4

    # the gadget at bases[t] joins hubs[t][0] by its first link vertex and
    # hubs[t][1] by its second
    hubs = [(i, (i + 1) % r) for i in range(r)]
    hubs += [(h, h) for h in range(r) for _ in range((k - 2) // 2)]
    bases = range(r, r + len(hubs) * (k + 1), k + 1)
    edges = _copies(complete_minus_edge, k, bases)
    for (hub_a, hub_b), base in zip(hubs, bases):
        edges += [(hub_a, base), (hub_b, base + 1)]
    g = build_graph(bases.stop, edges)
    return GeneratedGraph(g, n, m, alpha,
                          tuple(b + t for b in bases for t in (0, 1)))

