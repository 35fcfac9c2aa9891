import pytest
from hypothesis import given, strategies as st

from matchbound.edgelist import (EdgeListError, emit_edge_list,
                                 parse_edge_list, to_dot)
from matchbound.graphs import build_graph


def test_parse_basic():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.vertex_count == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_comments_and_blank_lines():
    text = """\
# a path on three vertices
3 2

0 1   # first edge
1 2
# trailing remark
"""
    g = parse_edge_list(text)
    assert g.edges() == [(0, 1), (1, 2)]


def test_emit_is_sorted():
    g = build_graph(4, [(2, 3), (0, 1), (1, 3)])
    assert emit_edge_list(g) == "4 3\n0 1\n1 3\n2 3\n"


def test_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="no header"):
        parse_edge_list("# nothing here\n")
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list("3\n")
    with pytest.raises(EdgeListError, match="promises 2 edge lines, found 1"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list("3 2\n0 1\nnope\n")
    with pytest.raises(EdgeListError, match="line 4"):
        parse_edge_list("# intro\n3 2\n0 1\n2 1\n")
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("2 1\n0 1 2\n")
    with pytest.raises(EdgeListError, match="line 3: duplicate edge"):
        parse_edge_list("2 2\n0 1\n0 1\n")
    with pytest.raises(EdgeListError,
                       match=r"line 2: edge \(0, 5\) out of range for n=3"):
        parse_edge_list("3 1\n0 5\n")
    with pytest.raises(EdgeListError, match=r"line 4: edge \(-1, 2\)"):
        parse_edge_list("3 2\n# skipped\n0 1\n-1 2\n")
    with pytest.raises(EdgeListError):
        parse_edge_list("-1 0\n")


def test_isolated_vertices_survive():
    g = parse_edge_list("5 1\n1 3\n")
    assert g.vertex_count == 5
    assert emit_edge_list(g) == "5 1\n1 3\n"


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, chosen)


@given(graphs())
def test_round_trip_identity(g):
    text = emit_edge_list(g)
    again = parse_edge_list(text)
    assert again.vertex_count == g.vertex_count
    assert again.edges() == g.edges()
    assert emit_edge_list(again) == text


def test_dot_output():
    g = build_graph(4, [(0, 1), (1, 2)])
    dot = to_dot(g)
    assert dot == "graph {\n  3;\n  0 -- 1;\n  1 -- 2;\n}\n"
