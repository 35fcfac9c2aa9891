import pytest
from hypothesis import given, strategies as st

from matchbound.graphs import (Graph, GraphError, build_graph, clip_field,
                               components, degree_profile, is_k_regular,
                               odd_components_after_deletion)
from matchbound.matching import maximum_matching, verify_matching


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(2, [(-1, 0)])
    # 5001 digits, past str()'s 4300-digit limit on Python 3.11 and later:
    # the message quotes 40 characters of each end without printing it whole
    for u, shown in ((10 ** 5000, "1" + "0" * 39),
                     (-7 * 10 ** 5000 - 1, "-7" + "0" * 38)):
        with pytest.raises(GraphError) as exc:
            build_graph(3, [(0, u)])
        assert str(exc.value) == f"edge (0, {shown}...) out of range for n=3"
        assert exc.value.index == 0


def test_build_rejects_loops_and_duplicates():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"\(1, 0\)"):  # as submitted
        build_graph(3, [(0, 1), (1, 0)])


def test_an_integer_is_clipped_as_its_whole_text_would_be():
    # every integer str() still prints: the first 40 characters, then '...'
    # only when something was cut
    for digits in list(range(1, 60)) + [100, 1000, 4299]:
        for x in (10 ** digits - 1, 10 ** (digits - 1), 7 * 10 ** (digits - 1)
                  + 3):
            for field in (x, -x):
                text = str(field)
                assert clip_field(field) == (
                    text[:40] + "..." if len(text) > 40 else text)


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
    # numbered by lowest vertex: {0, 1, 2}, {3}, {4, 5}
    assert parts.component_sizes == (3, 1, 2)


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
    for digits in (4000, 5000):
        with pytest.raises(GraphError) as exc:
            odd_components_after_deletion(p5, [10 ** digits])
        assert str(exc.value) == f"vertex 1{'0' * 39}... out of range for n=5"


def test_degree_profile_counts():
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    prof = degree_profile(star)
    assert prof.max_degree == 4
    assert prof.component_degree == (None,)  # the centre and leaves differ


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
    assert all(size >= 1 for size in parts.component_sizes)


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
    assert s.component_sizes == tuple(len(reach[low]) for low in lows)
    for k in range(5):
        expected = tuple(all(g.degree(v) == k for v in reach[low])
                         for low in lows)
        assert is_k_regular(g, k).per_component == expected
    assert s.max_degree == max(map(g.degree, range(n)), default=0)
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
    with pytest.raises(AttributeError):
        degree_profile(g).max_degree = 5
    assert degree_profile(g).max_degree == 2


def reference_build(n, edges):
    """The set-based builder the bucket step replaced, kept as the reference
    for every message and index."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adj = [set() for _ in range(n)]
    m = 0
    for u, v in edges:
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


def build_outcome(build, n, pairs):
    try:
        return build(n, pairs)
    except GraphError as exc:
        return str(exc), exc.index


@st.composite
def pair_lists(draw):
    """Shuffled pairs in either orientation with at most one defect."""
    n = draw(st.integers(1, 12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True)
                  if all_pairs else st.just([]))
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    pairs = draw(st.permutations(pairs))
    kind = draw(st.sampled_from(
        ["none", "high", "negative", "loop", "duplicate", "reversed"]))
    w = draw(st.integers(0, n - 1))
    far = draw(st.integers(0, 2 * n))
    if kind == "high":
        bad = (w, n + far)
    elif kind == "negative":
        # -n..-1 index a list silently; both ends may be negative
        bad = (-1 - far, draw(st.sampled_from([w, w - n])))
    elif kind == "loop":
        bad = (w, w)
    elif kind in ("duplicate", "reversed") and pairs:
        bad = draw(st.sampled_from(pairs))
        if kind == "reversed":
            bad = bad[::-1]
    else:
        return n, pairs
    if draw(st.booleans()):
        bad = bad[::-1]
    at = draw(st.integers(0, len(pairs)))
    return n, pairs[:at] + [bad] + pairs[at:]


@given(pair_lists())
def test_build_matches_the_set_based_reference(case):
    n, pairs = case
    expected = build_outcome(reference_build, n, pairs)
    assert build_outcome(build_graph, n, pairs) == expected
    assert build_outcome(build_graph, n, sorted(pairs)) == build_outcome(
        reference_build, n, sorted(pairs))
    # a generator and pairs given as lists are read the same way
    assert build_outcome(build_graph, n, iter(pairs)) == expected
    assert build_outcome(build_graph, n, (list(p) for p in pairs)) == expected


def test_build_names_the_first_defect_in_input_order():
    # -1 indexes the last list: it must still be reported as out of range
    with pytest.raises(GraphError,
                       match=r"edge \(-1, 2\) out of range") as exc:
        build_graph(3, [(0, 1), (-1, 2), (0, 1)])
    assert exc.value.index == 1
    with pytest.raises(GraphError, match=r"duplicate edge \(2, 0\)") as exc:
        build_graph(3, [(0, 2), (0, 1), (2, 0), (1, 1)])
    assert exc.value.index == 2
    g = build_graph(3, (p for p in [(2, 1), (0, 2)]))
    assert g.adjacency == ((2,), (2,), (0, 1)) and g.edge_count == 2
