"""Plain-text edge-list parsing and emission.

Format: '#' starts a comment (whole line or trailing); the first
significant line is "n m"; exactly m lines "u v" with 0 <= u < v < n
follow. Emission sorts edges lexicographically, so parse/emit round-trips
to the identical byte string. Parse errors carry 1-based line numbers.

Two routes give the same result. A text made only of lines of two ASCII
numbers one space apart, each ended by a newline, as every emitted text
is, is read in bulk: the header checks, one C scan of the body into a
flat list of integers (``json.loads`` once the separators are commas),
one u < v check over its two interleaved columns, then
`graphs.assemble_graph`, the loop that buckets pairs into adjacency lists
and checks ids and repeats. No tuple or string is made per edge. The bulk
read only accepts: any other text, one with an empty number or a leading
zero (which JSON refuses), and one with a fault of any kind, is parsed
line by line, which names the faulty line.
"""

from __future__ import annotations

import json
from itertools import islice
from operator import lt
from typing import Iterator

from matchbound.graphs import (MAX_EDGES, MAX_VERTICES, Graph, GraphError,
                               assemble_graph, build_graph, clip_field)

_DROP_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


class EdgeListError(ValueError):
    """A malformed edge-list document."""


def parse_edge_list(text: str) -> Graph:
    g = _parse_bulk(text)
    return _parse_lines(text) if g is None else g


def _parse_bulk(text: str) -> Graph | None:
    """The graph of a text read in one scan, or None, unworded, for the line
    route to read or to name the fault of. With the ASCII digits dropped,
    exactly " \\n" per line must be left, so a digit such as '٣', which int()
    reads, sends a text to the line route. A regex with a repeated group
    would need about 200 bytes of backtracking state per line; this test
    copies the text once."""
    shape = text.translate(_DROP_DIGITS)
    lines = shape.count(" \n")
    # without the final newline, "3 1\n0 2\n10" would read as one edge
    if len(shape) != 2 * lines or not text.endswith("\n"):
        return None
    head = text.index("\n")
    try:
        n, m = map(int, text[:head].split())
        if n > MAX_VERTICES or m > MAX_EDGES or lines != m + 1:
            return None
        # JSON refuses the empty numbers the shape test lets through
        ends = json.loads("[" + text[head + 1:-1].translate(_COMMAS) + "]")
    except ValueError:
        return None
    if not all(map(lt, islice(ends, 0, None, 2), islice(ends, 1, None, 2))):
        return None
    ids = iter(ends)
    return assemble_graph(n, zip(ids, ids))


def parse_header(text: str) -> tuple[int, int]:
    """The n and m of a text's header, checked as the parser checks them,
    without reading a line past it."""
    return _header(_rows(text))


def _header(rows: Iterator[tuple[int, str]]) -> tuple[int, int]:
    """Read the header row off rows and return its checked n and m."""
    header = next(rows, None)
    if header is None:
        raise EdgeListError("no header line found")
    lineno, body = header
    n, m = _pair(lineno, body, "header must be 'n m'",
                 "header must be two integers")
    if n < 0 or m < 0:
        raise EdgeListError(f"line {lineno}: header values must be >= 0")
    if n > MAX_VERTICES:
        raise EdgeListError(f"line {lineno}: n={clip_field(n)} exceeds the "
                            f"limit of {MAX_VERTICES} vertices")
    if m > MAX_EDGES:
        raise EdgeListError(f"line {lineno}: m={clip_field(m)} exceeds the "
                            f"limit of {MAX_EDGES} edges")
    return n, m


def _parse_lines(text: str) -> Graph:
    rows = _rows(text)
    n, m = _header(rows)

    # each row is parsed as it is read and not kept; a broken promise of
    # the header is reported before the first faulty line
    edges: list[tuple[int, int]] = []
    fault: EdgeListError | None = None
    for lineno, body in islice(rows, m):
        try:
            u, v = _pair(lineno, body, "edge must be 'u v'",
                         "edge endpoints must be integers")
            if not u < v:
                raise EdgeListError(
                    f"line {lineno}: edge endpoints must satisfy u < v, "
                    f"got {clip_field(u)} {clip_field(v)}")
        except EdgeListError as exc:
            fault = exc
            break
        edges.append((u, v))
    found = len(edges) + (fault is not None) + sum(1 for _ in rows)
    if found != m:
        raise EdgeListError(f"header promises {m} edge lines, found {found}")
    if fault is not None:
        raise fault

    try:
        return build_graph(n, edges)
    except GraphError as exc:
        # every pair passed the checks above, so the error names one pair;
        # its line is read again, row 0 being the header
        lineno, _ = next(islice(_rows(text), exc.index + 1, None))
        raise EdgeListError(f"line {lineno}: {exc}") from None


def _pair(lineno: int, body: str, shape_fault: str,
          int_fault: str) -> tuple[int, int]:
    """The two integers of a header or edge line, or its fault, worded."""
    fields = body.split()
    if len(fields) != 2:
        raise EdgeListError(f"line {lineno}: {shape_fault}, got "
                            f"{clip_field(' '.join(fields))}")
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError(f"line {lineno}: {int_fault}") from None


def _rows(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each significant line, its comment and outer
    blanks stripped, read as needed."""
    for lineno, raw in enumerate(_lines(text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), split about 64 kB at a time, so that nothing far
    past the header is split before the header is checked. Each piece ends
    just after a newline, so no line, and no \\r\\n, is cut in two."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + 65536)
        end = len(text) if cut < 0 else cut + 1
        yield from text[start:end].splitlines()
        start = end


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """Graphviz source; isolated vertices are listed so none disappear."""
    lines = ["graph {"]
    for v in range(g.vertex_count):
        if g.degree(v) == 0:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
