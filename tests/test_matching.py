import hashlib
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from matchbound import matching
from matchbound.cli import run_cli
from matchbound.edgelist import emit_edge_list
from matchbound.families import (block_chain, canonical_tree,
                                 regular_gadget_ring, tree_with_gadgets)
from matchbound.fuzz import random_connected_bounded
from matchbound.graphs import (Graph, build_graph,
                               odd_components_after_deletion)
from matchbound.matching import (Matching, OracleSizeError, maximum_matching,
                                 tutte_berge, verify_matching)

from graph_helpers import circulant, complete, disjoint, path, petersen


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def test_paths_and_cycles():
    for n in range(1, 12):
        assert maximum_matching(path(n)).size == n // 2
    for n in range(3, 12):
        assert maximum_matching(cycle(n)).size == n // 2


def test_known_small_graphs():
    assert maximum_matching(complete(4)).size == 2
    assert maximum_matching(complete(5)).size == 2
    assert maximum_matching(petersen()).size == 5
    assert maximum_matching(circulant(7, (1, 2))).size == 3
    assert maximum_matching(circulant(9, (1, 2))).size == 4
    assert maximum_matching(build_graph(1, [])).size == 0
    assert maximum_matching(build_graph(0, [])).size == 0


def test_blossom_shrinking_case():
    # two triangles joined by a path — needs actual blossom contraction,
    # a greedy/augmenting-path-only matcher returns 3 here only by luck
    g = build_graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                        (4, 5), (5, 6), (4, 6), (6, 7)])
    assert maximum_matching(g).size == 4


def test_result_is_a_valid_matching():
    g = petersen()
    m = maximum_matching(g)
    assert verify_matching(g, m)
    assert not verify_matching(g, Matching(((0, 1), (1, 2))))
    assert not verify_matching(g, Matching(((0, 7),)))  # not an edge


def test_verify_matching_rejects_ids_out_of_range():
    g = petersen()
    # -1 indexes vertex 9, a neighbour of 4: only the range check rejects it
    assert g.has_edge(-1, 4)
    assert not verify_matching(g, Matching(((-1, 4),)))
    assert not verify_matching(g, Matching(((10, 4),)))


def test_matching_is_deterministic():
    g = circulant(9, (1, 2))
    assert maximum_matching(g).edges == maximum_matching(g).edges


def test_tutte_berge_values():
    assert tutte_berge(complete(5)).value == 2
    assert tutte_berge(path(7)).value == 3
    assert tutte_berge(build_graph(4, [])).value == 0
    assert tutte_berge(build_graph(0, [])).value == 0


def test_tutte_berge_witness_is_lex_least():
    # K5: the empty set already attains the minimum, so it must win.
    assert tutte_berge(complete(5)).witness == ()
    # a star K_{1,4}: deleting the hub leaves 4 odd singletons,
    # (5 + 1 - 4)/2 = 1 = alpha'; the empty set gives (5 + 0 - 1)/2 = 2.
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    cert = tutte_berge(star)
    assert cert.value == 1
    assert cert.witness == (0,)


def test_witness_attains_the_value():
    # the check the benchmark makes on every oracle-certify op: graphs' own
    # BFS counts oc(G - X) for the witness the oracle found
    for g in [circulant(9, (1, 2))] + oracle_golden_graphs():
        cert = tutte_berge(g)
        oc = odd_components_after_deletion(g, cert.witness)
        assert (g.vertex_count + len(cert.witness) - oc) == 2 * cert.value


def test_size_limit():
    g = build_graph(23, [])
    with pytest.raises(OracleSizeError):
        tutte_berge(g)
    # the limit is a guard, not a capability bound: raising it works
    small = path(6)
    with pytest.raises(OracleSizeError):
        tutte_berge(small, max_n=5)
    assert tutte_berge(small, max_n=6).value == 3


def test_oracle_agrees_with_blossom_on_random_graphs():
    rng = random.Random(99173)
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = build_graph(n, pairs[:rng.randint(0, len(pairs))])
        assert maximum_matching(g).size == tutte_berge(g).value


def greedy_size(g):
    """Size of the greedy start: each vertex, in id order, takes its lowest
    free neighbor."""
    mate = [-1] * g.vertex_count
    for v in range(g.vertex_count):
        if mate[v] == -1:
            for u in g.adjacency[v]:
                if mate[u] == -1:
                    mate[v], mate[u] = u, v
                    break
    return sum(1 for v, u in enumerate(mate) if v < u)


def test_oracle_agrees_with_blossom_after_failed_searches():
    # Vertices 0, 1 hang off hub a and 2, 3 off hub b of a seeded connected
    # core. The greedy start matches 0-a and 2-b, so the searches from 1 and
    # 3 run first and fail, leaving their trees dead; a graph is kept only
    # when a later search succeeds, i.e. the greedy start is not maximum.
    rng = random.Random(61129)
    checked = 0
    while checked < 150:
        n = rng.randint(11, 13)
        k = rng.randint(3, 6)
        core = random_connected_bounded(rng.getrandbits(64), n - 4, k)
        hubs = [v + 4 for v in range(n - 4) if core.degree(v) <= k - 2]
        if len(hubs) < 2:
            continue
        a, b = rng.sample(hubs, 2)
        g = build_graph(n, [(u + 4, v + 4) for u, v in core.edges()]
                        + [(0, a), (1, a), (2, b), (3, b)])
        m = maximum_matching(g)
        if m.size == greedy_size(g):
            continue
        covered = {v for e in m.edges for v in e}
        assert 1 not in covered and 3 not in covered
        assert verify_matching(g, m)
        assert m.size == tutte_berge(g).value
        checked += 1


class CountingAdjacency(tuple):
    """An adjacency tuple that counts the lists read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


@pytest.mark.parametrize("member", [
    lambda: block_chain(4, 60),
    lambda: block_chain(4, 250, "singles"),
    lambda: regular_gadget_ring(4, 91),
    lambda: tree_with_gadgets(3, canonical_tree(3, 333, "tree")),
], ids=["gkr-4-60", "gkr-4-250-singles", "fkr-4-91", "hkr-3-333-tree"])
def test_failed_trees_are_never_scanned_again(member):
    # almost every search on these members fails; its tree must not be
    # scanned by a later search, or the reads grow to 20-64 per vertex
    g = member().graph
    adj = CountingAdjacency(g.adjacency)
    counted = Graph(g.vertex_count, adj, g.edge_count)
    assert maximum_matching(counted) == maximum_matching(g)
    assert adj.reads <= 2 * g.vertex_count


def test_oracle_on_the_large_chain_instance():
    # the 21-vertex mixed chain: all 2^21 sets are evaluated, in 8 blocks
    # of 2^18, and the witness comes from the first block
    gg = block_chain(4, 2, "gssgsgs")
    cert = tutte_berge(gg.graph, max_n=22)
    assert cert.value == 8
    assert cert.witness == (0, 1)  # exactly the two connectors


def test_oracle_across_blocks_of_the_real_size():
    # n = 19 and 20 take 2 and 4 blocks of 2^BLOCK_BITS sets, so every pass
    # of the oracle also runs with high vertices fixed inside X
    rng = random.Random(19020)
    for n, blocks in ((19, 2), (20, 4)):
        assert 2 ** (n - matching.BLOCK_BITS) == blocks
        for k in (3, 4, 6):
            g = random_connected_bounded(rng.getrandbits(64), n, k)
            assert g.structure.component_count == 1
            cert = tutte_berge(g)
            assert cert.value == maximum_matching(g).size
            oc = odd_components_after_deletion(g, cert.witness)
            assert n + len(cert.witness) - oc == 2 * cert.value


# SHA-256 of the concatenated `matching` stdout over GOLDEN_FAMILY and the
# 500 seeded samples below, recorded before the pruned blossom search
# replaced the O(V^3) one: the witness must stay byte-identical.
GOLDEN_DIGEST = ("3558d638a7ae003a9e44e9b59815e03f"
                 "b4d2cb61d92e4fd7c8e2262d719440ce")

GOLDEN_FAMILY = (
    lambda: block_chain(4, 6),
    lambda: block_chain(4, 60),
    lambda: block_chain(4, 100, "singles"),
    lambda: block_chain(4, 30, "gs" * 45 + "g"),
    lambda: block_chain(6, 20),
    lambda: block_chain(6, 30, "gss" * 50 + "g"),
    lambda: regular_gadget_ring(4, 9),
    lambda: regular_gadget_ring(4, 90),
    lambda: regular_gadget_ring(6, 20),
    lambda: tree_with_gadgets(3, canonical_tree(3, 33, "tree")),
    lambda: tree_with_gadgets(3, canonical_tree(3, 300, "tree")),
    lambda: tree_with_gadgets(3, canonical_tree(3, 21, "regular")),
    lambda: tree_with_gadgets(5, canonical_tree(5, 20, "tree")),
    lambda: tree_with_gadgets(5, canonical_tree(5, 17, "regular")),
)


def test_matching_lists_its_edges_in_lexicographic_order():
    # `matching` prints m.edges as they come, so the golden digest rests on
    # this order: u < v within each edge, edges sorted
    graphs = [make().graph for make in GOLDEN_FAMILY[:3]]
    rng = random.Random(7741)
    graphs += [random_connected_bounded(rng.getrandbits(64),
                                        rng.randint(2, 40), rng.randint(3, 6))
               for _ in range(200)]
    for g in graphs:
        edges = maximum_matching(g).edges
        assert all(u < v for u, v in edges)
        assert list(edges) == sorted(edges)


def test_matching_stdout_is_byte_identical_to_the_recorded_digest(
        tmp_path, capsys):
    graphs = [make().graph for make in GOLDEN_FAMILY]
    assert min(g.vertex_count for g in graphs) >= 90
    assert max(g.vertex_count for g in graphs) <= 1000
    rng = random.Random(40213)
    for i in range(500):
        n = rng.randint(2, 60)
        k = rng.randint(3, 6)
        graphs.append(random_connected_bounded(rng.getrandbits(64), n, k,
                                               forbid_regular=i % 2 == 1))
    digest = hashlib.sha256()
    path = tmp_path / "g.el"
    for g in graphs:
        path.write_text(emit_edge_list(g))
        assert run_cli(["matching", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def brute_force_tutte_berge(g):
    """Unpruned reference: every subset X, with a plain DFS over adjacency.

    The least (n + |X| - oc, X) pair gives the value and, among the sets
    attaining it, the lexicographically least witness.
    """
    n = g.vertex_count
    best = None
    for s in range(n + 1):
        for x in combinations(range(n), s):
            seen = set(x)
            odd = 0
            for start in range(n):
                if start in seen:
                    continue
                seen.add(start)
                stack = [start]
                size = 0
                while stack:
                    v = stack.pop()
                    size += 1
                    for u in g.adjacency[v]:
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
                odd += size % 2
            if best is None or (n + s - odd, x) < best:
                best = (n + s - odd, x)
    return best[0] // 2, best[1]


def unpruned_enumeration_graphs():
    """Small seeded graphs (connected, disconnected and edgeless) checked
    against brute_force_tutte_berge."""
    rng = random.Random(28411)
    graphs = [build_graph(n, []) for n in range(6)]
    for _ in range(150):
        n = rng.randint(0, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        graphs.append(build_graph(n, pairs[:rng.randint(0, len(pairs))]))
    for _ in range(30):
        n = rng.randint(5, 10)
        k = rng.randint(2, 6)
        graphs.append(random_connected_bounded(rng.getrandbits(64), n, k))
    for _ in range(20):
        a = random_connected_bounded(rng.getrandbits(64), rng.randint(1, 5), 3)
        b = random_connected_bounded(rng.getrandbits(64), rng.randint(1, 5), 4)
        graphs.append(disjoint(a, b))
    return graphs


def test_oracle_agrees_with_an_unpruned_enumeration():
    for g in unpruned_enumeration_graphs():
        cert = tutte_berge(g)
        assert (cert.value, cert.witness) == brute_force_tutte_berge(g)


# Graphs whose least witness lies in a later block of 8 sets than another
# minimizing set: a merge that keeps the first block's witness on a tie of
# values returns (0, 4), (5,) and (4,) instead of (0, 2, 4, 6), (2, 3, 5)
# and (3, 4).
TIES_ACROSS_BLOCKS = (
    (10, [(0, 1), (0, 2), (0, 9), (2, 3), (2, 4), (3, 6), (4, 5), (4, 7),
          (6, 8), (6, 9)]),
    (9, [(0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 7), (4, 5),
         (5, 6)]),
    (8, [(0, 2), (0, 3), (0, 4), (0, 6), (1, 3), (2, 3), (2, 6), (3, 6),
         (4, 5), (4, 6), (4, 7)]),
)


def test_oracle_merges_blocks_by_value_then_witness(monkeypatch):
    # blocks of 8 sets: a graph of n vertices is split into 2^(n-3) blocks
    monkeypatch.setattr(matching, "BLOCK_BITS", 3)
    ties = [build_graph(n, edges) for n, edges in TIES_ACROSS_BLOCKS]
    for g in unpruned_enumeration_graphs() + ties:
        cert = tutte_berge(g)
        assert (cert.value, cert.witness) == brute_force_tutte_berge(g)


def test_oracle_memory_is_bounded_by_the_block_size():
    g = random_connected_bounded(22013, 22, 4)
    assert g.structure.component_count == 1
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cert = tutte_berge(g)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maximum_matching(g).size == cert.value
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def oracle_golden_graphs():
    """The fixed seeded inputs whose `tutte-berge` stdout is pinned below."""
    rng = random.Random(70607)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 16)
        k = rng.randint(2, 6)
        graphs.append(random_connected_bounded(rng.getrandbits(64), n, k))
    for _ in range(30):
        a = random_connected_bounded(rng.getrandbits(64), rng.randint(1, 8),
                                     rng.randint(2, 6))
        b = random_connected_bounded(rng.getrandbits(64), rng.randint(1, 8),
                                     rng.randint(2, 6))
        graphs.append(disjoint(a, b))
    for _ in range(100):
        n = rng.randint(0, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        graphs.append(build_graph(n, pairs[:rng.randint(0, len(pairs))]))
    graphs += [build_graph(n, []) for n in range(8)]
    return graphs


# SHA-256 of the concatenated `tutte-berge` stdout over oracle_golden_graphs(),
# recorded with the unpruned 2^n enumeration: the pruned oracle must return
# the same value and lexicographically least witness on every input.
ORACLE_DIGEST = ("2cda17b35da30ec93ff75617c0e9ab9f"
                 "2e8b08a26ef2e05cbaa4200055502657")


def test_tutte_berge_stdout_matches_the_recorded_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "g.el"
    for g in oracle_golden_graphs():
        path.write_text(emit_edge_list(g))
        assert run_cli(["tutte-berge", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ORACLE_DIGEST
