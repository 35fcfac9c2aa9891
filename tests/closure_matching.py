"""The blossom search written with nested closures, kept as a reference.

This is ``matching.maximum_matching`` as it stood before its search became
one loop in the function body: ``find_augmenting_path``,
``find_common_ancestor`` (with a ``set`` of passed bases per blossom) and
``mark_blossom`` are closures built on every call. The package's search
must return the same ``Matching``, edge for edge, on every graph.
"""

from __future__ import annotations

from matchbound.graphs import Graph
from matchbound.matching import Matching


def closure_maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g, found by the closure-based search."""
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
    # v's blossom base is its root in this forest; -1 marks a failed tree's
    # vertex: never again a root, base or live mate, so only the scan reads it
    uf = list(range(n))
    in_queue = [False] * n
    touched: list[int] = []

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def find_common_ancestor(a: int, b: int) -> int:
        # climb from both ends in turn, so the walk is as long as the
        # blossom and not as deep as the tree; -1 is a walk past the root
        passed: set[int] = set()
        while True:
            if a != -1:
                a = find(a)
                if a in passed:
                    return a
                passed.add(a)
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
        queue = [root]
        for v in queue:
            base_v = find(v)
            for to in adj[v]:
                base_to = uf[to]
                if base_to < 0 or match[v] == to:
                    continue
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
                    for b in bases:
                        uf[b] = ancestor
                        if not in_queue[b]:
                            in_queue[b] = True
                            queue.append(b)
                    base_v = ancestor
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        return to
                    # trees take in matched pairs whole: to's mate is unvisited
                    in_queue[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting_path(v)
        failed = end == -1
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
        for u in touched:
            parent[u] = -1
            uf[u] = -1 if failed else u
            in_queue[u] = False
        touched.clear()

    edges = tuple((v, match[v]) for v in range(n) if v < match[v])
    return Matching(edges)
