"""Plain-text edge-list parsing and emission.

Format: '#' starts a comment (whole line or trailing); the first
significant line is "n m"; exactly m lines "u v" with 0 <= u < v < n
follow. Emission sorts edges lexicographically, so parse/emit round-trips
to the identical byte string. Parse errors carry 1-based line numbers.

Two routes give the same result. A text made only of lines of two ASCII
numbers one space apart, each ended by a newline, as every emitted text
is, takes the bulk route: one split of the whole text, the header checks,
one u < v check over all edges, then `build_graph`. The bulk route only
accepts: any other text, and any text on which it raises a ValueError of
any kind, is parsed line by line, which names the faulty line.
"""

from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Iterator

from matchbound.graphs import (MAX_EDGES, MAX_VERTICES, Graph, GraphError,
                               build_graph)

_DROP_DIGITS = str.maketrans("", "", "0123456789")


class EdgeListError(ValueError):
    """A malformed edge-list document."""


def parse_edge_list(text: str) -> Graph:
    if _is_canonical(text):
        try:
            return _parse_bulk(text)
        except ValueError:
            pass  # the line route names the fault and its line
    return _parse_lines(text)


def _is_canonical(text: str) -> bool:
    """Whether text is only lines of two ASCII numbers one space apart, each
    ended by a newline: with the ASCII digits dropped, exactly " \\n" per
    line is left, and no number is empty. Digits such as '٣', which int()
    reads, are left too. A regex with a repeated group would need about 200
    bytes of backtracking state per line; this check copies the text once."""
    shape = text.translate(_DROP_DIGITS)
    return (len(shape) == 2 * shape.count(" \n")
            and text.endswith("\n") and not text.startswith(" ")
            and "\n " not in text and " \n" not in text)


def _parse_bulk(text: str) -> Graph:
    """The graph of a canonical text. Any fault raises a ValueError, unworded,
    for the line route to name."""
    head = text.index("\n")
    n, m = map(int, text[:head].split())
    if n > MAX_VERTICES or m > MAX_EDGES or text.count("\n") != m + 1:
        raise ValueError("header")
    ends = list(map(int, text[head:].split()))
    us, vs = ends[0::2], ends[1::2]
    if not all(map(lt, us, vs)):
        raise ValueError("u < v")
    return build_graph(n, zip(us, vs))


def _parse_lines(text: str) -> Graph:
    rows = _rows(text)
    header = next(rows, None)
    if header is None:
        raise EdgeListError("no header line found")

    lineno, body = header
    n, m = _pair(lineno, body, "header must be 'n m'",
                 "header must be two integers")
    if n < 0 or m < 0:
        raise EdgeListError(f"line {lineno}: header values must be >= 0")
    if n > MAX_VERTICES:
        raise EdgeListError(f"line {lineno}: n={n} exceeds the limit of "
                            f"{MAX_VERTICES} vertices")
    if m > MAX_EDGES:
        raise EdgeListError(f"line {lineno}: m={m} exceeds the limit of "
                            f"{MAX_EDGES} edges")

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
                    f"got {u} {v}")
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
        got = " ".join(fields)  # quoted to at most 40 characters
        raise EdgeListError(f"line {lineno}: {shape_fault}, got "
                            f"{got[:40]!r}{'...' if len(got) > 40 else ''}")
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
