import pytest
from hypothesis import given, strategies as st

from matchbound.graphs import (GraphError, build_graph, components,
                               degree_profile, is_k_regular,
                               odd_components_after_deletion)
from matchbound.matching import maximum_matching, verify_matching


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(2, [(-1, 0)])


def test_build_rejects_loops_and_duplicates():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"\(1, 0\)"):  # as submitted
        build_graph(3, [(0, 1), (1, 0)])


def test_adjacency_is_sorted_and_symmetric():
    g = build_graph(4, [(2, 3), (0, 3), (0, 1)])
    assert g.adjacency[0] == (1, 3)
    assert g.adjacency[3] == (0, 2)
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]
    assert g.has_edge(3, 0) and not g.has_edge(1, 2)
    assert g.degree(3) == 2


def test_neighborhood_masks_are_built_on_first_use():
    g = build_graph(4, [(2, 3), (0, 3), (0, 1)])
    assert verify_matching(g, maximum_matching(g))
    components(g)
    assert "nbr_masks" not in vars(g)  # adjacency alone: O(n + m) memory
    assert g.nbr_masks == (0b1010, 0b0001, 0b1000, 0b0101)
    assert g.nbr_masks is g.nbr_masks


def test_components_partition():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])
    parts = components(g)
    assert parts.component_count == 3
    assert parts.component_of[0] == parts.component_of[2]
    assert parts.component_of[3] not in (parts.component_of[0],
                                         parts.component_of[4])
    assert sorted(parts.component_sizes) == [1, 2, 3]


def test_empty_graph():
    g = build_graph(0, [])
    assert components(g).component_count == 0
    assert degree_profile(g).max_degree == 0
    assert is_k_regular(g, 3).overall  # vacuous


def test_odd_components_after_deletion():
    # P5 minus its middle vertex leaves two P2s: zero odd components.
    p5 = build_graph(5, [(i, i + 1) for i in range(4)])
    assert odd_components_after_deletion(p5, [2]) == 0
    assert odd_components_after_deletion(p5, [1]) == 2
    assert odd_components_after_deletion(p5, []) == 1
    assert odd_components_after_deletion(p5, [0, 1, 2, 3, 4]) == 0
    # G - X is read off its own BFS, not off neighbourhood bitmasks
    assert "nbr_masks" not in vars(p5)
    with pytest.raises(GraphError, match="vertex 5 out of range"):
        odd_components_after_deletion(p5, [1, 5, -1])


def test_degree_profile_counts():
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    prof = degree_profile(star)
    assert prof.max_degree == 4
    assert prof.degree_counts[1] == 4
    assert prof.degree_counts[4] == 1


def test_regularity_per_component():
    # a triangle next to a single edge: 2-regular and 1-regular components
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    reg = is_k_regular(g, 2)
    assert reg.per_component == (True, False)
    assert not reg.overall
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_k_regular(c4, 2).overall


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True)
                 if all_pairs else st.just([]))
    return build_graph(n, edges)


@given(small_graphs())
def test_component_sizes_sum_to_n(g):
    parts = components(g)
    assert sum(parts.component_sizes) == g.vertex_count
    # component ids are dense, assigned in vertex order
    if g.vertex_count:
        assert parts.component_of[0] == 0
        assert max(parts.component_of) == parts.component_count - 1


@given(small_graphs())
def test_odd_component_count_matches_partition(g):
    parts = components(g)
    odd = sum(1 for s in parts.component_sizes if s % 2)
    assert odd_components_after_deletion(g, []) == odd
    # deleting everything leaves nothing
    assert odd_components_after_deletion(g, range(g.vertex_count)) == 0


@given(small_graphs(), st.data())
def test_odd_components_after_deletion_matches_a_plain_count(g, data):
    n = g.vertex_count
    deleted = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)
                        if n else st.just([]))  # repeats allowed
    kept = set(range(n)) - set(deleted)
    # reachable sets inside G - X by repeated expansion
    odd = 0
    while kept:
        seen = {min(kept)}
        grown = True
        while grown:
            more = {u for w in seen for u in g.adjacency[w]} & kept - seen
            seen |= more
            grown = bool(more)
        odd += len(seen) % 2
        kept -= seen
    assert odd_components_after_deletion(g, deleted) == odd
    assert odd_components_after_deletion(g, iter(deleted)) == odd


@given(small_graphs())
def test_structure_matches_a_plain_recomputation(g):
    n = g.vertex_count
    # reachable sets by repeated expansion; components ordered by lowest vertex
    reach = []
    for v in range(n):
        seen = {v}
        grown = True
        while grown:
            more = {u for w in seen for u in g.adjacency[w]} - seen
            seen |= more
            grown = bool(more)
        reach.append(seen)
    lows = sorted({min(r) for r in reach})
    s = g.structure
    assert s.component_of == tuple(lows.index(min(reach[v])) for v in range(n))
    assert s.component_sizes == tuple(len(reach[low]) for low in lows)
    for k in range(5):
        expected = tuple(all(g.degree(v) == k for v in reach[low])
                         for low in lows)
        assert is_k_regular(g, k).per_component == expected
    degrees = [g.degree(v) for v in range(n)]
    assert dict(s.degree_counts) == {d: degrees.count(d) for d in degrees}
    assert s.max_degree == max(degrees, default=0)
    # parity of the distance from the lowest vertex of each component
    for low in lows:
        dist = {low: 0}
        queue = [low]
        for w in queue:
            for u in g.adjacency[w]:
                if u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        for v, d in dist.items():
            assert s.parity[v] == d % 2


def test_structure_is_shared_and_read_only():
    g = build_graph(4, [(0, 1), (1, 2)])
    assert components(g) is degree_profile(g) is g.structure
    assert components(g) is components(g)
    with pytest.raises(TypeError):
        degree_profile(g).degree_counts[1] = 5
    assert degree_profile(g).degree_counts == {1: 2, 2: 1, 0: 1}
