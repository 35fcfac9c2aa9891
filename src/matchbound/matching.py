"""Maximum matching (blossom contraction) and an exhaustive oracle.

Two independent routes to the matching number:

* :func:`maximum_matching` — augmenting-path search with blossom
  contraction, pruned so that each search touches only what it visits;
  usable at any size.
* :func:`tutte_berge` — the deficiency formula min over X of
  (n + |X| - oc(G - X)) / 2, evaluated on every vertex set X at once: bit i
  of a big-int plane stands for the set X_i, and components are flooded
  over the adjacency in all sets in parallel, in blocks of 2^BLOCK_BITS
  sets. Usable only for small graphs, but it reads nothing but the
  adjacency and shares no code or ideas with the blossom side (nor with
  the BFS that :func:`graphs.odd_components_after_deletion` counts
  oc(G - X) by), so it can audit both.

Both are deterministic for a fixed input encoding.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from matchbound.graphs import Graph


class Matching(NamedTuple):
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
      later augmenting path; their union-find entries are set to -1 and the
      scan skips them ever after (Edmonds, "Paths, trees, and flowers", 1965).
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


# the oracle evaluates its 2^n vertex sets in blocks of 2^BLOCK_BITS, so its
# planes hold 2^BLOCK_BITS bits and its memory does not grow with n
BLOCK_BITS = 18
# The oracle's max_n unless its caller raises it, and the largest order it
# takes whatever max_n is. Its time doubles with each vertex: one call on a
# path or a fuzz sample (k = 3 or 6) took 0.07-0.10 s at n = 22, 1.2-1.6 s
# at 26, 5.1-6.8 s at 28 and 19-35 s at 30 (2-vCPU Xeon, Python 3.11).
DEFAULT_MAX_N = 22
MAX_ORACLE_ORDER = 30


class OracleSizeError(ValueError):
    """Raised when a graph is too large for exhaustive enumeration."""


class TutteBergeCertificate(NamedTuple):
    value: int
    witness: tuple[int, ...]


def tutte_berge(g: Graph, max_n: int = DEFAULT_MAX_N) -> TutteBergeCertificate:
    """Minimize (n + |X| - odd_components(g - X)) / 2 over vertex sets X.

    Returns the minimum — which equals the matching number (Berge 1958) —
    together with the lexicographically least minimizing set. No set is
    skipped; all are evaluated at once, bit-parallel in big-int planes.

    * Blocks. The sets are taken in blocks of 2^BLOCK_BITS: inside a block
      the low BLOCK_BITS vertices vary and the others are fixed, so memory
      stays at a few MiB whatever n is. Bit i of a plane stands for the set
      whose low members are the set bits of i. The least (value, witness)
      pair is kept across blocks.
    * Planes. ``member[v]`` marks the sets that contain v; ``rem[v]`` marks
      the sets in which v is outside X and not yet in a flooded component.
      What depends only on the block size (``member``, the counter's
      start) is built once per size by :func:`_planes` and shared
      read-only; all 19 sizes keep 1.6 MB, 0.8 MB of it for 2^18.
    * Singletons. First, each vertex is cleared from ``rem`` in the sets
      where no neighbor remains, and those sets gain one odd component.
    * Rounds. Each round seeds every set at its lowest remaining vertex,
      taking the seeds from a plane of the sets not yet seeded, so no plane
      is complemented. It floods from a FIFO worklist that starts with
      every vertex and takes a vertex in again only when a neighbor's plane
      grew, skipping a vertex whose component already fills its ``rem``.
      It adds the parity of the flooded components to the counter and
      clears them from ``rem``. It ends when no set has a vertex left.
    * Counter. A bit-sliced counter starts at the number of low vertices
      outside X, takes the singletons and each round, so it ends at
      oc(g - X) minus |X| plus a constant of the block; filtering its
      planes from the top bit down keeps exactly the minimizing sets.
    * Witness. A greedy walk over ``member`` picks the least of them.
    """
    n = g.vertex_count
    if n > MAX_ORACLE_ORDER:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{MAX_ORACLE_ORDER}, the oracle order limit, whatever max_n is")
    if n > max_n:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{max_n} (raise max_n to override)")
    adj = g.adjacency
    low = min(n, BLOCK_BITS)
    full, member, base = _planes(low)
    best: tuple[int, tuple[int, ...]] | None = None
    for high in range(1 << (n - low)):
        fixed = tuple(v for v in range(low, n) if high >> (v - low) & 1)
        # fresh complements, not cached ones: those were no faster at n = 16
        # and up to 2 % slower at n = 22 (2-vCPU Xeon)
        rem = [full ^ plane for plane in member]
        rem += [0 if v in fixed else full for v in range(low, n)]
        counter = list(base)
        # r ^ kept marks the sets where v is a component by itself
        for v in range(n):
            if r := rem[v]:
                nbrs = 0
                for u in adj[v]:
                    nbrs |= rem[u]
                kept = r & nbrs
                _count(counter, r ^ kept)
                rem[v] = kept
        while True:
            comp = []
            unseen = full
            for r in rem:
                if c := r & unseen:
                    unseen ^= c
                comp.append(c)
            if unseen == full:
                break
            # flood until the worklist empties; a vertex is queued again only
            # after a neighbor's plane grew, and skipped once it fills rem[v]
            queue = list(range(n))
            queued = [True] * n
            for v in queue:
                queued[v] = False
                c = comp[v]
                r = rem[v]
                if c == r:
                    continue
                reach = c
                for u in adj[v]:
                    reach |= comp[u]
                reach &= r
                if reach != c:
                    comp[v] = reach
                    for u in adj[v]:
                        if not queued[u]:
                            queued[u] = True
                            queue.append(u)
            parity = 0
            for v, c in enumerate(comp):
                parity ^= c
                rem[v] ^= c
            _count(counter, parity)
        cand = full
        top = 0
        for j in reversed(range(len(counter))):
            if kept := cand & counter[j]:
                cand = kept
                top |= 1 << j
        # the survivors agree below u, on the vertices taken into walk; with
        # no fixed vertex, the one whose index is below 2^u ends there
        walk = []
        for u in range(low):
            if not fixed and cand & ((1 << (1 << u)) - 1):
                break
            if kept := cand & member[u]:
                cand = kept
                walk.append(u)
        cert = (n + low + len(fixed) - top, tuple(walk) + fixed)
        if best is None or cert < best:
            best = cert
    return TutteBergeCertificate(best[0] // 2, best[1])


@lru_cache(maxsize=None)
def _planes(low: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The planes of a block of 2^low sets that depend on no graph.

    The full plane; ``member[v]``, the sets that contain v; and ``base``,
    a bit-sliced counter of low - |X ∩ low vertices|, the same in every
    block. They are shared, so callers copy what they change. The key is
    at most BLOCK_BITS, so the cache holds at most BLOCK_BITS + 1 entries,
    1.6 MB in all.
    """
    width = 1 << low
    full = (1 << width) - 1
    # bit i of member[v] is bit v of i: one period of 2^v zeros and 2^v
    # ones, doubled until it spans the plane
    member = []
    for v in range(low):
        plane = ((1 << (1 << v)) - 1) << (1 << v)
        span = 2 << v
        while span < width:
            plane |= plane << span
            span <<= 1
        member.append(plane)
    base: list[int] = []
    for plane in member:
        _count(base, full ^ plane)
    return full, tuple(member), tuple(base)


def _count(counter: list[int], plane: int) -> None:
    """Add a 0/1 plane to a bit-sliced counter (bit planes, lowest first)."""
    for j, c in enumerate(counter):
        if not plane:
            return
        counter[j] = c ^ plane
        plane &= c
    if plane:
        counter.append(plane)
