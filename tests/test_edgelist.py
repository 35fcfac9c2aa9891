import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from matchbound import edgelist
from matchbound.edgelist import (EdgeListError, emit_edge_list,
                                 parse_edge_list, to_dot)
from matchbound.families import block_chain
from matchbound.graphs import Graph, build_graph


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


SEVENS = "7" * 4000  # under int()'s 4300-digit limit
CUT = "7" * 40 + "..."


@pytest.mark.parametrize("text, message", [
    (f"3 1\n{SEVENS} 0\n",
     f"line 2: edge endpoints must satisfy u < v, got {CUT} 0"),
    (f"3 1\n0 {SEVENS}\n", f"line 2: edge (0, {CUT}) out of range for n=3"),
    (f"{SEVENS} 0\n", f"line 1: n={CUT} exceeds the limit of "
                      f"{edgelist.MAX_VERTICES} vertices"),
    (f"3 {SEVENS}\n", f"line 1: m={CUT} exceeds the limit of "
                      f"{edgelist.MAX_EDGES} edges"),
], ids=["u<v", "out_of_range", "n_limit", "m_limit"])
def test_a_long_integer_is_echoed_to_40_digits(text, message):
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_a_broken_promise_is_reported_before_a_faulty_line():
    # rows are parsed as they are read, but a wrong count of rows still wins
    for text, found in (("3 2\n0 x\n", 1), ("3 1\n1 0\n0 1\n", 2),
                        ("3 1\n0 1 2\n# c\n0 2\n1 2\n", 3)):
        with pytest.raises(EdgeListError,
                           match=f"promises . edge lines, found {found}$"):
            parse_edge_list(text)


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


def parse_outcome(parse, text):
    try:
        return parse(text)
    except EdgeListError as exc:
        return str(exc)


CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


def routes_agree(text):
    """Both parse routes give the same Graph or the same message, and the
    bulk route gives that Graph exactly when the text has the canonical
    shape, no body number has a leading zero and the line route reads it;
    on every other text it gives None."""
    by_lines = parse_outcome(edgelist._parse_lines, text)
    assert parse_outcome(parse_edge_list, text) == by_lines
    wanted = None
    body = text.partition("\n")[2]
    if CANONICAL.fullmatch(text) and not re.search(r"\b0[0-9]", body):
        wanted = by_lines if isinstance(by_lines, Graph) else None
    assert edgelist._parse_bulk(text) == wanted
    return by_lines


@given(graphs())
def test_emitted_text_takes_the_bulk_route(g):
    text = emit_edge_list(g)
    assert edgelist._parse_bulk(text) == g
    assert routes_agree(text) == g


def _token_edit(edit):
    """A mutation that rewrites the first field of a line with `edit`."""
    def mutate(lines, i, x):
        fields = lines[i].split(" ")
        fields[0] = edit(fields[0], x)
        lines[i] = " ".join(fields)
    return mutate


LINE_MUTATIONS = {
    # faults that the format rejects
    "swap": lambda lines, i, x: lines.__setitem__(
        i, " ".join(reversed(lines[i].split(" ")))),
    "duplicate": lambda lines, i, x: lines.insert(i, lines[i]),
    # graphs() has at most 10 vertices, so id 11 is always out of range
    "out_of_range": lambda lines, i, x: lines.__setitem__(
        i, "%d %d" % (x, 11 + x)),
    "drop": lambda lines, i, x: lines.pop(i),
    "extra": lambda lines, i, x: lines.append("%d %d" % (x, x + 1)),
    "three_fields": lambda lines, i, x: lines.__setitem__(
        i, lines[i] + " %d" % x),
    "letter": _token_edit(lambda tok, x: tok + "x"),
    "header_m": lambda lines, i, x: lines.__setitem__(
        0, "%s %d" % (lines[0].split(" ")[0], len(lines) - 2 + x)),
    "far_duplicate": lambda lines, i, x: lines.append(lines[i]),
    "top_id": lambda lines, i, x: lines.__setitem__(
        i, "%d %s" % (x, lines[0].split(" ")[0])),
    # canonical texts need not list their edges in order
    "shuffle": lambda lines, i, x: lines.__setitem__(
        slice(1, None), random.Random(x).sample(lines[1:], len(lines) - 1)),
    # past int()'s 4300-digit limit on Python 3.11 and later; out of range
    # on older Pythons
    "long_number": _token_edit(lambda tok, x: str(x % 9 + 1) * 5000),
    # texts outside the canonical shape
    "comment": lambda lines, i, x: lines.__setitem__(i, lines[i] + " # c"),
    "comment_line": lambda lines, i, x: lines.insert(i, "# c %d" % x),
    "blank": lambda lines, i, x: lines.insert(i, " " * (x % 3)),
    "tab": lambda lines, i, x: lines.__setitem__(
        i, lines[i].replace(" ", "\t")),
    "spaces": lambda lines, i, x: lines.__setitem__(
        i, " %s  " % lines[i].replace(" ", "  ")),
    "leading_zero": _token_edit(lambda tok, x: "0" * (x % 3 + 1) + tok),
    "plus": _token_edit(lambda tok, x: "+" + tok),
    "underscore": _token_edit(
        lambda tok, x: tok[:1] + "_" + tok[1:] if len(tok) > 1 else tok),
    "non_ascii": _token_edit(
        lambda tok, x: "".join(chr(0x660 + int(c)) if c.isdigit() else c
                               for c in tok)),
}


@st.composite
def edge_list_texts(draw):
    """Emitted texts with a few line mutations and a drawn line ending."""
    lines = emit_edge_list(draw(graphs())).splitlines()
    for name in draw(st.lists(st.sampled_from(sorted(LINE_MUTATIONS)),
                              max_size=3)):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if lines or name == "extra":
            LINE_MUTATIONS[name](lines, i, draw(st.integers(0, 12)))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    final = draw(st.sampled_from([newline, newline, ""]))
    return newline.join(lines) + final


@given(edge_list_texts())
def test_parse_routes_agree_on_mutated_texts(text):
    routes_agree(text)


def test_parse_routes_agree_on_each_single_mutation():
    g = build_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)])
    base = emit_edge_list(g).splitlines()
    outcomes = set()
    for name, mutate in sorted(LINE_MUTATIONS.items()):
        for i in range(len(base)):
            for x in (0, 3, 12):
                lines = list(base)
                mutate(lines, i, x)
                # also with the header's m set to the number of lines
                recounted = [f"{lines[0].split(' ')[0]} {len(lines) - 1}"]
                for text in (lines, recounted + lines[1:]):
                    for newline in ("\n", "\r\n"):
                        outcome = routes_agree(newline.join(text) + newline)
                        outcomes.add(outcome if isinstance(outcome, str)
                                     else "graph")
    # every kind of fault the format names is among them
    for fault in ("u < v", "duplicate edge", "out of range", "promises",
                  "edge must be 'u v'", "must be integers"):
        assert any(fault in o for o in outcomes), fault


def test_a_canonical_text_over_the_edge_limit_is_not_read_in_bulk(
        monkeypatch):
    monkeypatch.setattr(edgelist, "MAX_EDGES", 2)
    assert parse_edge_list("4 2\n0 1\n2 3\n").edge_count == 2
    with pytest.raises(EdgeListError,
                       match="line 1: m=3 exceeds the limit of 2 edges"):
        parse_edge_list("4 3\n0 1\n1 2\n2 3\n")


def test_lines_past_the_promised_count_are_counted_not_kept():
    text = "2 1\n0 1\n" + "0 1\n" * 400_000
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListError,
                           match="promises 1 edge lines, found 400001"):
            parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one copy of the text for the shape check and one piece of lines at a
    # time; every line and row of the text at once take about 75 times it
    assert peak < 4 * len(text)


def test_line_route_peak_per_edge():
    # a gkr k=4 member with a comment on every line, read line by line;
    # the bulk read of the plain file peaks at about 124 bytes per edge
    plain = emit_edge_list(block_chain(4, 1250).graph)
    text = plain.replace("\n", " # c\n")
    assert edgelist._parse_bulk(text) is None
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emit_edge_list(g) == plain
    # 174 on this file; a kept row per edge took 393, with its split
    # fields 593
    assert peak / g.edge_count < 450


def test_bulk_route_peak_per_edge():
    # a gkr k=4 member of about 10^5 vertices, read in bulk
    text = emit_edge_list(block_chain(4, 6250).graph)
    tracemalloc.start()
    try:
        g = edgelist._parse_bulk(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == edgelist._parse_lines(text)
    # 124 on this file; holding every list and its tuple at once took 166,
    # and a split into strings and a tuple per edge 267
    assert peak / g.edge_count <= 220


@pytest.mark.parametrize("text, outcome", [
    ("3 2\n01 2\n0 001\n", "graph"),
    ("03 1\n0 2\n", "graph"),
    ("3 2\n00 1\n0 01\n", "line 3: duplicate edge (0, 1)"),
    ("4 3\n0 1\n2 3\n0 1\n", "line 4: duplicate edge (0, 1)"),
    ("4 4\n2 3\n0 1\n1 3\n0 1\n", "line 5: duplicate edge (0, 1)"),
    ("3 1\n0 3\n", "line 2: edge (0, 3) out of range for n=3"),
    ("3 2\n0 1\n1 3\n", "line 3: edge (1, 3) out of range for n=3"),
    ("5 0\n", "graph"),
    ("0 0\n", "graph"),
    ("3 0\n0 1\n", "header promises 0 edge lines, found 1"),
    ("5 4\n3 4\n0 2\n1 4\n0 1\n", "graph"),
])
def test_canonical_texts_read_alike_by_both_routes(text, outcome):
    assert CANONICAL.fullmatch(text)
    found = routes_agree(text)
    assert (found if isinstance(found, str) else "graph") == outcome


@pytest.mark.parametrize("text", [
    "3 1\n0 1 # c\n", "# c\n3 1\n0 1\n", "3 1\n\n0 1\n", "3 1\r\n0 1\r\n",
    "3 1\n0\t1\n", "3 1\n0 1", "3 1\n+0 1\n", "13 1\n1_0 12\n",
    "3 1\n0 \u0662\n", "3 1\n0 1\n\u2028", " 3 1\n0 1\n"])
def test_texts_outside_the_canonical_shape_take_the_line_route(text):
    # int() accepts all of these, and a regex \d matches the non-ASCII digit
    assert not CANONICAL.fullmatch(text)
    assert isinstance(routes_agree(text), Graph)


@given(st.text(alphabet="07 \n\r\t#+\u0663", max_size=16))
@example("3 1\n 2\n")
@example("3 1\n0 2\n0")
@example("3 1\n2 \n")
@example(" 3\n")
@example("3 \u0663\n")
@example("\n")
@example("")
@example("3 1\n0 2\n10")
@example("3 1\n01 2\n")
def test_canonical_shape_is_lines_of_two_ascii_numbers(text):
    routes_agree(text)


def test_line_route_reads_lines_as_splitlines_does():
    text = "a\r\nb\rc\x0bd\x0ce\x1cf\x1dg\x1eh\x85i\u2028j\u2029k\n\nl"
    for long in ("", "x" * 70_000, "\r\n" * 40_000, ("y" * 9 + "\r\n") * 9000):
        for piece in (text, long + text, text + long, long + text + long):
            assert list(edgelist._lines(piece)) == piece.splitlines()
            assert list(edgelist._lines(piece + "\n")) == (
                piece + "\n").splitlines()
    with pytest.raises(EdgeListError, match="line 14: edge must be"):
        parse_edge_list("# \u2028# \x85#\r\n" * 3 + "\x0c\x1c 3 1\n\r\n0 1 2")
