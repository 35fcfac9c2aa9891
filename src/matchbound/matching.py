"""Maximum matching (blossom contraction) and an exhaustive oracle.

Two independent routes to the matching number:

* :func:`maximum_matching` — augmenting-path search with blossom
  contraction, O(V^3), usable at any size.
* :func:`tutte_berge` — the deficiency formula evaluated by enumerating
  every vertex subset, usable only for small graphs but with no shared
  code or ideas with the blossom side, so it can audit it.

Both are deterministic for a fixed input encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from matchbound.graphs import Graph, odd_component_count


@dataclass(frozen=True)
class Matching:
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def verify_matching(g: Graph, m: Matching) -> bool:
    """True iff every edge exists in g and no two edges share a vertex."""
    seen: set[int] = set()
    for u, v in m.edges:
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            return False
        if not g.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g.

    Starts from a greedy matching, then repeatedly searches for augmenting
    paths, contracting odd cycles (blossoms) on the fly. Vertices are
    scanned in id order and adjacency is sorted, so the result is a pure
    function of the graph encoding.
    """
    n = g.vertex_count
    adj = g.adjacency
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    def find_common_ancestor(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def mark_blossom(v: int, ancestor: int, child: int,
                     in_blossom: list[bool]) -> None:
        while base[v] != ancestor:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        for v in range(n):
            parent[v] = -1
            base[v] = v
            in_queue[v] = False
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # even vertex in the same tree: an odd cycle closes here
                    ancestor = find_common_ancestor(v, to)
                    in_blossom = [False] * n
                    mark_blossom(v, ancestor, to, in_blossom)
                    mark_blossom(to, ancestor, v, in_blossom)
                    for u in range(n):
                        if in_blossom[base[u]]:
                            base[u] = ancestor
                            if not in_queue[u]:
                                in_queue[u] = True
                                queue.append(u)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting_path(v)
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt

    edges = tuple((v, match[v]) for v in range(n) if v < match[v])
    return Matching(edges)


class OracleSizeError(ValueError):
    """Raised when a graph is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class TutteBergeCertificate:
    value: int
    witness: tuple[int, ...]


def tutte_berge(g: Graph, max_n: int = 22) -> TutteBergeCertificate:
    """Minimize (n + |X| - odd_components(g - X)) / 2 over all vertex sets X.

    Enumerates all 2^n subsets, counting odd components of each remainder
    with the bitmask flood of :func:`graphs.odd_component_count`. Returns
    the minimum — which equals the matching number — together with the
    lexicographically-least minimizing set.
    """
    n = g.vertex_count
    if n > max_n:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{max_n} (raise max_n to override)")
    nbr = g.nbr_masks
    full = (1 << n) - 1
    # doubled value n + |X| - oc(g - X); X = empty set runs first, so best2
    # is always set and ties prefer the lexicographically least witness
    best2 = 2 * n + 2
    best_witness: tuple[int, ...] = ()
    for x_mask in range(1 << n):
        odd = odd_component_count(nbr, full & ~x_mask)
        value2 = n + x_mask.bit_count() - odd
        if value2 < best2:
            best2 = value2
            best_witness = _mask_to_tuple(x_mask)
        elif value2 == best2:
            candidate = _mask_to_tuple(x_mask)
            if candidate < best_witness:
                best_witness = candidate
    return TutteBergeCertificate(best2 // 2, best_witness)


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)
