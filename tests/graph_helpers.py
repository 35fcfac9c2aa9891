"""Small named graphs shared by the test modules."""

from matchbound.graphs import build_graph


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def circulant(n, offsets):
    edges = set()
    for i in range(n):
        for o in offsets:
            edges.add(tuple(sorted((i, (i + o) % n))))
    return build_graph(n, sorted(edges))


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(10, [tuple(sorted(e)) for e in edges])


def disjoint(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.vertex_count
    return build_graph(offset, edges)
