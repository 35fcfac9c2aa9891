"""Small named graphs, and the coefficient-region helpers, shared by the
test modules."""

from matchbound.families import canonical_tree, tree_with_gadgets
from matchbound.graphs import build_graph
from matchbound.region import half_spaces


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


def envelope(k, gamma):
    """Largest beta that is still good at this gamma."""
    return min(h.slope * gamma + h.intercept for h in half_spaces(k))


# goodness-preserving moves of a coefficient pair p = (a, b), eps >= 0
SHEARS = {
    "shift_down": lambda k, a, b, eps: (a, b - eps),
    "tree_shear": lambda k, a, b, eps: (a + eps, b - eps),
    "regular_shear": lambda k, a, b, eps: (a - eps * k, b + 2 * eps),
}


def mix(p, q, t):
    """t*p + (1 - t)*q for 0 <= t <= 1."""
    return t * p[0] + (1 - t) * q[0], t * p[1] + (1 - t) * q[1]


def odd_trees(k, size):
    return tree_with_gadgets(k, canonical_tree(k, size, "tree"))


def odd_regular(k, size):
    return tree_with_gadgets(
        k, canonical_tree(k, (k - 1) * size + 1, "regular"))
