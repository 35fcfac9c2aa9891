from fractions import Fraction as F

import pytest

from matchbound import families
from matchbound.families import (bipartite_tree, block_chain, canonical_tree,
                                 complete_minus_edge, regular_gadget_ring,
                                 single_link_gadget, tree_with_gadgets)
from matchbound.graphs import build_graph, components, degree_profile, is_k_regular
from matchbound.matching import maximum_matching


def alpha(g):
    return maximum_matching(g).size


# --- building blocks ---------------------------------------------------

def test_complete_minus_edge():
    gg = complete_minus_edge(4)
    g = gg.graph
    assert g.vertex_count == 5
    assert g.edge_count == 9
    assert gg.link_vertices == (0, 1)
    assert not g.has_edge(0, 1)
    assert g.degree(0) == 3 and g.degree(2) == 4
    assert alpha(g) == 2 == gg.predicted_alpha


def test_single_link_gadget_structure():
    for k in (3, 5, 7):
        gg = single_link_gadget(k)
        g = gg.graph
        assert g.vertex_count == k + 2
        assert g.edge_count == (k * k + 2 * k - 1) // 2
        (link,) = gg.link_vertices
        assert g.degree(link) == k - 1
        others = [v for v in range(g.vertex_count) if v != link]
        assert all(g.degree(v) == k for v in others)
        # one matching edge short of perfect
        assert alpha(g) == (k + 1) // 2 == gg.predicted_alpha


def test_single_link_gadget_rejects_even_k():
    with pytest.raises(ValueError):
        single_link_gadget(4)


# --- chains of blocks --------------------------------------------------

def test_block_chain_all_singles_is_a_tree():
    gg = block_chain(4, 2, "singles")
    g = gg.graph
    assert g.edge_count == g.vertex_count - 1
    assert components(g).component_count == 1
    assert gg.predicted_alpha == 2 == alpha(g)
    # connectors have degree k, leaf blocks degree 1
    assert g.degree(0) == 4 and g.degree(1) == 4


def test_block_chain_patterns_match_predictions():
    for k, r, pattern in [(4, 1, "gsss"), (4, 2, "gssgsgs"), (4, 2, "gadgets"),
                          (4, 2, "singles"), (6, 1, "gggssg"), (4, 3, "sgsgsgsggs")]:
        gg = block_chain(k, r, pattern)
        assert components(gg.graph).component_count == 1
        assert degree_profile(gg.graph).max_degree <= k
        assert alpha(gg.graph) == gg.predicted_alpha, (k, r, pattern)


def test_block_chain_mixed_reference_instance():
    gg = block_chain(4, 2, "gssgsgs")
    assert (gg.graph.vertex_count, gg.graph.edge_count) == (21, 35)
    assert gg.predicted_alpha == 8
    # connectors come first and have degree exactly k
    assert gg.graph.degree(0) == 4 and gg.graph.degree(1) == 4


def test_block_chain_block_count_is_forced():
    # r connectors always govern r*(k-1)+1 blocks
    with pytest.raises(ValueError):
        block_chain(4, 2, "gss")  # 3 given, 7 required
    with pytest.raises(ValueError):
        block_chain(4, 2, "gssgsgx")
    with pytest.raises(ValueError):
        block_chain(4, 0)


def test_block_chain_bitstring_spelling():
    a = block_chain(4, 1, "1000")
    b = block_chain(4, 1, "gsss")
    assert a.graph.edges() == b.graph.edges()


def test_consecutive_connectors_share_one_block():
    # k=4, r=2: connector 0 gets blocks 0..3, connector 1 gets 3..6
    gg = block_chain(4, 2, "singles")
    g = gg.graph
    shared = [v for v in range(2, g.vertex_count)
              if g.has_edge(0, v) and g.has_edge(1, v)]
    assert len(shared) == 1


# --- trees dressed with gadgets ----------------------------------------

def reference_tree():
    # 9 vertices, one side {1, 3, 4, 7} with degrees (2, 1, 3, 2)
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6),
                        (6, 7), (7, 8)])
    return bipartite_tree(g, [1, 3, 4, 7])


def test_bipartite_tree_validation():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bt = bipartite_tree(g, [3, 1])
    assert bt.part2 == (1, 3)
    with pytest.raises(ValueError):
        bipartite_tree(g, [1, 2])  # edge (1,2) inside part2
    with pytest.raises(ValueError):
        bipartite_tree(build_graph(3, [(0, 1)]), [1])  # disconnected
    with pytest.raises(ValueError):
        bipartite_tree(build_graph(3, [(0, 1), (1, 2), (0, 2)]), [1])


def test_tree_with_gadgets_reference_instance():
    gg = tree_with_gadgets(3, reference_tree())
    assert (gg.graph.vertex_count, gg.graph.edge_count) == (29, 40)
    assert gg.predicted_alpha == 12 == alpha(gg.graph)
    assert degree_profile(gg.graph).max_degree == 3


def test_tree_with_gadgets_closed_forms():
    # n, m, alpha' depend only on |part1|, |part2|
    for k in (3, 5):
        for r, mode in [(1, "tree"), (2, "tree"), (3, "tree")]:
            bt = canonical_tree(k, r, mode)
            gg = tree_with_gadgets(k, bt)
            v2 = len(bt.part2)
            v1 = bt.graph.vertex_count - v2
            n_expect = ((k * k + k - 1) * v2 - (k + 1) * v1 + (k + 2))
            assert gg.graph.vertex_count == n_expect
            assert alpha(gg.graph) == gg.predicted_alpha


def test_tree_with_gadgets_rejects_even_k_and_high_degree():
    with pytest.raises(ValueError):
        tree_with_gadgets(4, reference_tree())
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(ValueError):
        tree_with_gadgets(3, bipartite_tree(star, [1, 2, 3, 4]))


def test_canonical_tree_modes():
    # tree mode: the part2 spine is k-regular, so no gadgets get attached
    bt = canonical_tree(3, 2, "tree")
    gg = tree_with_gadgets(3, bt)
    assert gg.graph.edge_count == gg.graph.vertex_count - 1  # still a tree
    assert gg.predicted_alpha == 2

    # regular mode: every vertex ends at degree exactly k
    bt = canonical_tree(3, 3, "regular")
    gg = tree_with_gadgets(3, bt)
    assert is_k_regular(gg.graph, 3).overall
    assert components(gg.graph).component_count == 1


def test_canonical_tree_regular_mode_counting_obstruction():
    # regular mode needs r ≡ 1 (mod k-1) and r >= k
    with pytest.raises(ValueError, match="counting edges forces"):
        canonical_tree(3, 4, "regular")
    with pytest.raises(ValueError):
        canonical_tree(3, 1, "regular")
    with pytest.raises(ValueError):
        canonical_tree(3, 2, "bogus")


def test_regular_mode_sizes_follow_the_arithmetic():
    # k=5: admissible r are 5? no — 1+4i with i>=1: 5, 9, 13
    gg = tree_with_gadgets(5, canonical_tree(5, 5, "regular"))
    assert is_k_regular(gg.graph, 5).overall
    assert alpha(gg.graph) == gg.predicted_alpha


def test_members_without_gadgets_build_none(monkeypatch):
    # a gadget alone has about k*k/2 edges, more than such a member
    def refuse(k):
        raise AssertionError(f"gadget built for k={k}")

    monkeypatch.setattr(families, "complete_minus_edge", refuse)
    monkeypatch.setattr(families, "single_link_gadget", refuse)
    chain = block_chain(6, 2, "singles")
    assert chain.graph.edge_count == chain.predicted_m == 12
    star = tree_with_gadgets(5, canonical_tree(5, 1, "tree"))
    assert star.graph.edge_count == star.predicted_m == 5


# --- regular rings ------------------------------------------------------

def test_regular_gadget_ring_members():
    for k, r in [(4, 1), (4, 2), (6, 1)]:
        gg = regular_gadget_ring(k, r)
        g = gg.graph
        assert is_k_regular(g, k).overall, (k, r)
        assert components(g).component_count == 1
        assert g.vertex_count == r + (k * r // 2) * (k + 1)
        assert alpha(g) == gg.predicted_alpha


def test_regular_gadget_ring_smallest():
    gg = regular_gadget_ring(4, 1)
    assert (gg.graph.vertex_count, gg.graph.edge_count) == (11, 22)
    assert gg.predicted_alpha == 5


def test_regular_gadget_ring_rejects_odd_k():
    with pytest.raises(ValueError):
        regular_gadget_ring(3, 2)
    with pytest.raises(ValueError):
        regular_gadget_ring(4, 0)


# --- predicted values ----------------------------------------------------

def average_degree(k, r):
    g = block_chain(k, r).graph
    return F(2 * g.edge_count, g.vertex_count)


def average_degree_limit(k):
    """n and m of the all-gadget chain grow by fixed steps in r, so 2m/n
    tends to 2*dm/dn."""
    one, two = block_chain(k, 1).graph, block_chain(k, 2).graph
    return F(2 * (two.edge_count - one.edge_count),
             two.vertex_count - one.vertex_count)


def test_average_degree_of_gadget_chains():
    assert average_degree(4, 1) == F(80, 21)
    limit = average_degree_limit(4)
    assert limit == 4 - F(2, 16)
    previous = F(0)
    for r in range(1, 40):
        value = average_degree(4, r)
        # the closed form of 2m/n from block_chain's predicted n and m
        assert value == 4 - F(r * 2 + 2, r * 16 + 5)
        assert previous < value < limit
        previous = value


def test_average_degree_limit_values():
    assert average_degree_limit(6) == 6 - F(4, 36)
    assert average_degree_limit(14) == 14 - F(12, 196)
