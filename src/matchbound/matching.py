"""Maximum matching (blossom contraction) and an exhaustive oracle.

Two independent routes to the matching number:

* :func:`maximum_matching` — augmenting-path search with blossom
  contraction, pruned so that each search touches only what it visits;
  usable at any size.
* :func:`tutte_berge` — the deficiency formula min over X of
  (n + |X| - oc(G - X)) / 2, evaluated at once on the empty set and every
  vertex set X of fewer than n // 2 vertices, the only sets that can beat
  the empty one: bit i of a big-int plane stands for the set X_i, and
  components are flooded over the adjacency in all sets in parallel, in
  blocks over the low BLOCK_BITS vertices. Usable only for small graphs,
  but it reads nothing but the adjacency and shares no code or ideas with
  the blossom side (nor with the BFS that
  :func:`graphs.odd_components_after_deletion` counts oc(G - X) by), so it
  can audit both.

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
      A root with no live neighbour fails with the one-vertex tree {root}.
    * Each search lists the vertices it touches and resets only those.
    * Blossom bases live in a union-find forest (Gabow, JACM 23(2), 1976):
      contracting a blossom links the bases on its two paths to the common
      ancestor and enqueues only the odd vertices on those paths. A base
      whose entry points at itself is read without a call to ``find``.
    * The common ancestor is found by climbing from both ends of the new
      edge in turn, so the walk is as long as the blossom and not as deep
      as the tree. Each walk stamps the bases it passes with its own number
      in a list made once per call; the first base met with the current
      stamp is the ancestor.

    The whole search is one loop in this body, with no closure but
    ``find`` and no set: fuzz samples of up to 48 vertices match in 0.84x
    and extremal members of about 10^3 in 0.79x the time of the search
    written as nested functions (2-vCPU Xeon, Python 3.11).
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
    # stamp[b] == walk marks a base the current ancestor walk has passed
    stamp = [0] * n
    walk = 0
    touched: list[int] = []

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for root in range(n):
        if match[root] != -1:
            continue
        in_queue[root] = True
        touched.append(root)
        queue = [root]
        end = -1
        for v in queue:
            base_v = uf[v]
            if uf[base_v] != base_v:
                base_v = find(base_v)
            mate_v = match[v]
            for to in adj[v]:
                base_to = uf[to]
                if base_to < 0 or to == mate_v:
                    continue
                if uf[base_to] != base_to:
                    base_to = find(base_to)
                if base_v == base_to:
                    continue
                mate_to = match[to]
                if to == root or (mate_to != -1 and parent[mate_to] != -1):
                    # even vertex in the same tree: an odd cycle closes here;
                    # climb from v and to in turn, -1 is a walk past the root
                    walk += 1
                    a, b = v, to
                    while True:
                        if a != -1:
                            if uf[a] != a:
                                a = find(a)
                            if stamp[a] == walk:
                                break
                            stamp[a] = walk
                            a = parent[match[a]] if match[a] != -1 else -1
                        a, b = b, a
                    ancestor = a
                    # relink both paths through the blossom, from v towards
                    # to and back, collecting the bases they pass
                    bases: list[int] = []
                    for x, child in ((v, to), (to, v)):
                        while True:
                            b = uf[x]
                            if uf[b] != b:
                                b = find(b)
                            if b == ancestor:
                                break
                            mate = match[x]
                            if mate == -1:
                                # only the root is free: the walk went past
                                # the ancestor and would never stop
                                raise AssertionError("blossom walk passed "
                                                     "the root")
                            bases.append(b)
                            b = uf[mate]
                            bases.append(b if uf[b] == b else find(b))
                            parent[x] = child
                            child = mate
                            x = parent[mate]
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
                    if mate_to == -1:
                        end = to
                        break
                    # trees take in matched pairs whole: to's mate is unvisited
                    in_queue[mate_to] = True
                    touched.append(mate_to)
                    queue.append(mate_to)
            if end != -1:
                break
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

    # a list, not a generator: CPython keeps up to 2000 freed tuples per
    # size up to 20, and a tuple grown from an iterator is taken from the
    # size-10 list but freed onto its own size's, one more per call
    edges = tuple([(v, match[v]) for v in range(n) if v < match[v]])
    return Matching(edges)


# the oracle takes its vertex sets in blocks of at most 2^BLOCK_BITS, so its
# planes hold at most 2^BLOCK_BITS bits and its memory does not grow with n
BLOCK_BITS = 18
# The oracle's max_n unless its caller raises it, and the largest order it
# takes whatever max_n is. Its time about doubles with each vertex: one call
# on a path or a fuzz sample (k = 3 or 6) took 0.025-0.034 s at n = 22,
# 0.45-0.56 s at 26, 1.8-2.3 s at 28 and 9.3-13 s at 30 (2-vCPU Xeon,
# Python 3.11), against 0.07-0.09 s at 22 and 0.9-1.2 s at 26 when every
# one of the 2^n sets was evaluated.
DEFAULT_MAX_N = 22
MAX_ORACLE_ORDER = 30


class OracleSizeError(ValueError):
    """Raised when a graph is too large for exhaustive enumeration."""


class TutteBergeCertificate(NamedTuple):
    value: int
    witness: tuple[int, ...]


def check_oracle_order(n: int, max_n: int) -> None:
    """Refuse an order of n above max_n or above the oracle order limit."""
    if n > MAX_ORACLE_ORDER:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{MAX_ORACLE_ORDER}, the oracle order limit, whatever max_n is")
    if n > max_n:
        raise OracleSizeError(
            f"graph has {n} vertices; exhaustive enumeration is limited to "
            f"{max_n} (raise max_n to override)")


def tutte_berge(g: Graph, max_n: int = DEFAULT_MAX_N) -> TutteBergeCertificate:
    """Minimize (n + |X| - odd_components(g - X)) / 2 over vertex sets X.

    Returns the minimum — which equals the matching number (Berge 1958) —
    together with the lexicographically least minimizing set. Only the sets
    of at most cap = max(n // 2 - 1, 0) vertices are evaluated, all at once,
    bit-parallel in big-int planes. The others cannot change the answer:
    oc(g - X) <= n - |X| gives n + |X| - oc(g - X) >= 2|X|, which is at
    least n - n % 2 >= n - oc(g) once |X| >= n // 2 (an odd n leaves an odd
    component): the empty set, which the order puts first, does as well.

    * Blocks. The sets are taken in blocks: inside a block the low
      BLOCK_BITS vertices vary and the others are fixed, so memory stays at
      a few MiB whatever n is. A block with ``len(fixed)`` fixed members
      holds the sets of at most t = cap - len(fixed) low members, in binary
      order; one with t < 0 is skipped. The least (value, witness) pair is
      kept across blocks.
    * Planes. ``member[v]`` marks the sets that contain v; ``rem[v]`` marks
      the sets in which v is outside X and not yet in a flooded component.
      What depends only on the block's shape (``member``, the counter's
      start) is built once per shape (low, t) by :func:`_planes` and
      shared read-only; the 22 shapes of orders 1..22 keep 1.9 MiB, the 31
      of orders up to MAX_ORACLE_ORDER 5.0 MiB.
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
    check_oracle_order(n, max_n)
    adj = g.adjacency
    low = min(n, BLOCK_BITS)
    cap = max(n // 2 - 1, 0)
    best: tuple[int, tuple[int, ...]] | None = None
    for high in range(1 << (n - low)):
        t = cap - high.bit_count()
        if t < 0:
            continue
        full, member, base, ends = _planes(low, t)
        # a list, as for Matching.edges: each block's tuple then goes back
        # to the free list it came from
        fixed = tuple([v for v in range(low, n) if high >> (v - low) & 1])
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
        # no fixed vertex, the one among the first ends[u] sets, those inside
        # range(u), ends there
        walk = []
        for u in range(low):
            if not fixed and cand & ((1 << ends[u]) - 1):
                break
            if kept := cand & member[u]:
                cand = kept
                walk.append(u)
        cert = (n + low + len(fixed) - top, tuple(walk) + fixed)
        if best is None or cert < best:
            best = cert
    return TutteBergeCertificate(best[0] // 2, best[1])


@lru_cache(maxsize=None)
def _planes(low: int, t: int) -> tuple[int, tuple[int, ...], tuple[int, ...],
                                       tuple[int, ...]]:
    """The planes of a block that depend on no graph, over the subsets of
    range(low) with at most t members in binary order: bit i stands for
    the i-th of them. No larger set can be the answer (see tutte_berge).

    The full plane; ``member[v]``, the sets that contain v; ``base``, a
    bit-sliced counter of low - |X ∩ low vertices|, the same in every
    block; and ``ends[u]``, the number of sets inside range(u), which come
    first. They are shared, so callers copy what they change.
    """
    # sizes[s] and members[s]: the count and member planes of the subsets of
    # range(j) with at most s members. By Pascal's rule, those of range(j + 1)
    # are the same sets, then those of at most s - 1 members shifted past
    # them, each with j added: a run of ones in j's plane. s runs downwards,
    # so row s - 1 still holds range(j) when row s reads it; a row below
    # t - (vertices still to add) is never read again.
    sizes = [1] * (t + 1)
    members: list[list[int]] = [[] for _ in range(t + 1)]
    ends = [1]
    for j in range(low):
        for s in range(t, max(t - (low - 1 - j), 0) - 1, -1):
            if s:
                size, below = sizes[s], sizes[s - 1]
                members[s] = [a | b << size for a, b in
                              zip(members[s], members[s - 1])]
                members[s].append(((1 << below) - 1) << size)
                sizes[s] = size + below
            else:
                members[0].append(0)
        ends.append(sizes[t])
    full = (1 << sizes[t]) - 1
    base: list[int] = []
    for plane in members[t]:
        _count(base, full ^ plane)
    return full, tuple(members[t]), tuple(base), tuple(ends)


def _count(counter: list[int], plane: int) -> None:
    """Add a 0/1 plane to a bit-sliced counter (bit planes, lowest first)."""
    for j, c in enumerate(counter):
        if not plane:
            return
        counter[j] = c ^ plane
        plane &= c
    if plane:
        counter.append(plane)
