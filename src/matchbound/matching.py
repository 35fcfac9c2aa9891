"""Maximum matching (blossom contraction) and an exhaustive oracle.

Two independent routes to the matching number:

* :func:`maximum_matching` — augmenting-path search with blossom
  contraction, pruned so that each search touches only what it visits;
  usable at any size.
* :func:`tutte_berge` — the deficiency formula min over X of
  (n + |X| - oc(G - X)) / 2, evaluated by enumerating vertex sets X. It
  skips the sets that cannot tie the best value found: v(X) >= 2|X| bounds
  the set size, and a flood stops once oc(G - X) cannot reach
  n + |X| - best. Usable only for small graphs, but with no shared code or
  ideas with the blossom side, so it can audit it.

Both are deterministic for a fixed input encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

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

    Starts from a greedy matching, then searches for an augmenting path from
    each free vertex in id order, contracting odd cycles (blossoms) on the
    fly. Vertices are scanned in id order and adjacency is sorted, so the
    result is a pure function of the graph encoding.

    A search costs what it visits, not n:

    * A search that fails leaves a Hungarian tree, whose vertices lie on no
      later augmenting path; they are marked dead and never scanned again
      (Edmonds, "Paths, trees, and flowers", 1965).
    * Each search lists the vertices it touches and resets only those.
    * Blossom bases live in a union-find forest (Gabow, JACM 23(2), 1976):
      contracting a blossom links the bases on its two paths to the common
      ancestor and enqueues only the odd vertices on those paths.
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
    # the blossom base of v is the root of v's tree in this forest
    uf = list(range(n))
    in_queue = [False] * n
    dead = [False] * n
    # seen[b] == stamp marks a base passed by the current ancestor walk
    seen = [0] * n
    stamp = 0
    touched: list[int] = []

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def find_common_ancestor(a: int, b: int) -> int:
        # climb from both ends in turn, so the walk is as long as the
        # blossom and not as deep as the tree; -1 is a walk past the root
        nonlocal stamp
        stamp += 1
        while True:
            if a != -1:
                a = find(a)
                if seen[a] == stamp:
                    return a
                seen[a] = stamp
                a = parent[match[a]] if match[a] != -1 else -1
            a, b = b, a

    def mark_blossom(v: int, ancestor: int, child: int,
                     bases: list[int]) -> None:
        while (b := find(v)) != ancestor:
            bases.append(b)
            bases.append(find(match[v]))
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        in_queue[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            base_v = find(v)
            for to in adj[v]:
                if dead[to] or match[v] == to:
                    continue
                base_to = uf[to]
                if uf[base_to] != base_to:
                    base_to = find(base_to)
                if base_v == base_to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # even vertex in the same tree: an odd cycle closes here
                    ancestor = find_common_ancestor(v, to)
                    bases: list[int] = []
                    mark_blossom(v, ancestor, to, bases)
                    mark_blossom(to, ancestor, v, bases)
                    # merge only after both walks: the second walk must see
                    # the sub-blossoms as they were before this contraction
                    odd = []
                    for b in bases:
                        uf[b] = ancestor
                        if not in_queue[b]:
                            in_queue[b] = True
                            odd.append(b)
                    # in id order, like every other scan, so the witness
                    # depends only on the graph encoding
                    odd.sort()
                    queue.extend(odd)
                    base_v = ancestor
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        touched.append(match[to])
                        queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting_path(v)
        if end == -1:
            for u in touched:
                dead[u] = True
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
        for u in touched:
            parent[u] = -1
            uf[u] = u
            in_queue[u] = False
        touched.clear()

    edges = tuple((v, match[v]) for v in range(n) if v < match[v])
    return Matching(edges)


class OracleSizeError(ValueError):
    """Raised when a graph is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class TutteBergeCertificate:
    value: int
    witness: tuple[int, ...]


def tutte_berge(g: Graph, max_n: int = 22) -> TutteBergeCertificate:
    """Minimize (n + |X| - odd_components(g - X)) / 2 over vertex sets X.

    Returns the minimum — which equals the matching number (Berge 1958) —
    together with the lexicographically least minimizing set. Writing
    v(X) = n + |X| - oc(g - X), only sets that can still tie or beat the
    best value found are evaluated:

    * Size cut-off. v(X) >= 2|X|, since every odd component holds a vertex
      outside X. Sets are taken by increasing size, in tuple order within a
      size, and the search stops once 2|X| exceeds the best value. In the
      size class where 2|X| equals it only a tie is possible, so the class
      ends at the current witness.
    * Flood floor. X ties or wins only if oc(g - X) >= n + |X| - best, so
      the bitmask flood of :func:`graphs.odd_component_count` stops as soon
      as the odd components so far, plus one for the component being
      flooded, plus the vertices outside it fall short of that.
    """
    n = g.vertex_count
    if n > max_n:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{max_n} (raise max_n to override)")
    nbr = g.nbr_masks
    full = (1 << n) - 1
    # doubled value v(X), always even since oc = n - |X| (mod 2)
    best2 = n - odd_component_count(nbr, full)
    best_witness: tuple[int, ...] = ()
    bits = [1 << v for v in range(n)]
    for size in range(1, n + 1):
        if 2 * size > best2:
            break
        for x, x_bits in zip(combinations(range(n), size),
                             combinations(bits, size)):
            if 2 * size == best2 and x >= best_witness:
                break
            odd = odd_component_count(nbr, full ^ sum(x_bits),
                                      n + size - best2)
            value2 = n + size - odd
            if value2 < best2 or (value2 == best2 and x < best_witness):
                best2 = value2
                best_witness = x
    return TutteBergeCertificate(best2 // 2, best_witness)
