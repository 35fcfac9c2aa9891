"""Plain-text edge-list parsing and emission.

Format: '#' starts a comment (whole line or trailing); the first
significant line is "n m"; exactly m lines "u v" with 0 <= u < v < n
follow. Emission sorts edges lexicographically, so parse/emit round-trips
to the identical byte string. Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

from matchbound.graphs import MAX_VERTICES, Graph, GraphError, build_graph


class EdgeListError(ValueError):
    """A malformed edge-list document."""


def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise EdgeListError("no header line found")

    lineno, fields = rows[0]
    if len(fields) != 2:
        raise EdgeListError(
            f"line {lineno}: header must be 'n m', got {' '.join(fields)!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError(
            f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(f"line {lineno}: header values must be >= 0")
    if n > MAX_VERTICES:
        raise EdgeListError(f"line {lineno}: n={n} exceeds the limit of "
                            f"{MAX_VERTICES} vertices")

    body_rows = rows[1:]
    if len(body_rows) != m:
        raise EdgeListError(
            f"header promises {m} edge lines, found {len(body_rows)}")

    edges: list[tuple[int, int]] = []
    for lineno, fields in body_rows:
        if len(fields) != 2:
            raise EdgeListError(
                f"line {lineno}: edge must be 'u v', got "
                f"{' '.join(fields)!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: edge endpoints must be integers") from None
        if not u < v:
            raise EdgeListError(
                f"line {lineno}: edge endpoints must satisfy u < v, "
                f"got {u} {v}")
        edges.append((u, v))

    try:
        return build_graph(n, edges)
    except GraphError as exc:
        # every pair passed the checks above, so the error names one pair
        raise EdgeListError(
            f"line {body_rows[exc.index][0]}: {exc}") from None


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
