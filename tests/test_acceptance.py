"""The external acceptance gate, one test per verifiable claim.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per claim. Every comparison is exact (integers, Fractions, or frozen
decimal strings); runtime-budgeted tests measure their own wall clock
with time.monotonic and fail when over budget.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction as F

from matchbound.bounds import audit_graph, bound_rows, format_decimal
from matchbound.families import (bipartite_tree, block_chain,
                                 regular_gadget_ring, tree_with_gadgets)
from matchbound.fuzz import FuzzConfig, random_connected_bounded, run_fuzz
from matchbound.graphs import (build_graph, components, degree_profile,
                               is_k_regular, odd_components_after_deletion)
from matchbound.matching import maximum_matching, tutte_berge, verify_matching
from matchbound.region import (classify_pair, classify_pair_geometric,
                               extreme_points, half_spaces)

from graph_helpers import (SHEARS, circulant, complete, envelope, mix,
                           odd_regular, odd_trees)


def test_matching_agrees_with_exhaustive_oracle_on_5000_graphs():
    start = time.monotonic()
    rng = random.Random(58141)
    checked = 0
    # half arbitrary edge subsets, half structured connected samples
    for _ in range(2500):
        n = rng.randint(1, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = build_graph(n, pairs[:rng.randint(0, len(pairs))])
        assert maximum_matching(g).size == tutte_berge(g).value
        checked += 1
    for _ in range(2500):
        n = rng.randint(2, 10)
        k = rng.randint(2, 9)
        g = random_connected_bounded(rng.getrandbits(64), n, k)
        assert maximum_matching(g).size == tutte_berge(g).value
        checked += 1
    assert checked == 5000
    assert time.monotonic() - start < 60


def test_matching_solves_extremal_families_at_100k_vertices():
    start = time.monotonic()
    for gg in (block_chain(4, 6250), regular_gadget_ring(6, 4500)):
        assert gg.graph.vertex_count >= 99_000
        m = maximum_matching(gg.graph)
        assert m.size == gg.predicted_alpha
        assert verify_matching(gg.graph, m)
    assert time.monotonic() - start < 15


def test_odd_components_after_deletion_at_100k_vertices():
    g = block_chain(4, 6250).graph
    assert g.vertex_count == 100_005
    deleted = range(0, g.vertex_count, 7)
    start = time.monotonic()
    odd = odd_components_after_deletion(g, deleted)
    assert time.monotonic() - start < 2
    assert "nbr_masks" not in vars(g)
    # a test-local count: flood each component of G - X from a stack
    seen = set(deleted)
    expected = 0
    for v in range(g.vertex_count):
        if v in seen:
            continue
        seen.add(v)
        stack, size = [v], 0
        while stack:
            size += 1
            for u in g.adjacency[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        expected += size % 2
    assert odd == expected


def test_odd_components_after_deletion_floods_in_place():
    # G - X is flooded over the adjacency of G, not built as a second graph,
    # so the peak is the seen mask and the BFS state: about 2.5 MiB here
    g = block_chain(4, 6250).graph
    deleted = range(0, g.vertex_count, 7)
    tracemalloc.start()
    try:
        odd_components_after_deletion(g, deleted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_fuzz_sample_at_100k_vertices():
    start = time.monotonic()
    g = random_connected_bounded(777, 10 ** 5, 3)
    assert time.monotonic() - start < 4
    assert g.vertex_count == 10 ** 5
    assert components(g).component_count == 1
    assert degree_profile(g).max_degree <= 3


def test_mixed_block_chain_reproduces_the_reference_instance():
    gg = block_chain(4, 2, "gssgsgs")
    assert (gg.graph.vertex_count, gg.graph.edge_count) == (21, 35)
    assert maximum_matching(gg.graph).size == 8 == gg.predicted_alpha
    report = audit_graph(gg.graph, 4)
    assert report.entry("connected_even").value == 8
    assert report.entry("connected_even").margin(report.alpha) == 0
    # the same chain with every block a gadget, same zero slack
    gg2 = block_chain(4, 2, "gadgets")
    assert (gg2.graph.vertex_count, gg2.graph.edge_count) == (37, 71)
    assert maximum_matching(gg2.graph).size == 16 == gg2.predicted_alpha
    report2 = audit_graph(gg2.graph, 4)
    assert report2.entry("connected_even").margin(report2.alpha) == 0


def test_dressed_tree_reproduces_the_reference_instance():
    backbone = build_graph(9, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5),
                               (4, 6), (6, 7), (7, 8)])
    gg = tree_with_gadgets(3, bipartite_tree(backbone, [1, 3, 4, 7]))
    assert (gg.graph.vertex_count, gg.graph.edge_count) == (29, 40)
    assert maximum_matching(gg.graph).size == 12 == gg.predicted_alpha
    report = audit_graph(gg.graph, 3)
    assert report.entry("connected_odd").value == 12
    assert report.entry("connected_odd").margin(report.alpha) == 0


def test_smallest_regular_ring_meets_the_density_bound_exactly():
    gg = regular_gadget_ring(4, 1)
    g = gg.graph
    assert (g.vertex_count, g.edge_count) == (11, 22)
    assert is_k_regular(g, 4).overall
    assert components(g).component_count == 1
    assert maximum_matching(g).size == 5 == gg.predicted_alpha
    report = audit_graph(g, 4)
    assert report.entry("connected_even_density").margin(report.alpha) == 0


SCALED_ROWS = {
    3: (9, 1, 2, 1), 4: (20, 1, 4, 1), 5: (55, 2, 9, 2), 6: (42, 1, 6, 1),
    7: (161, 3, 20, 3), 8: (72, 1, 8, 1), 9: (351, 4, 35, 4),
    10: (110, 1, 10, 1), 11: (649, 5, 54, 5),
}

SCALED_DECIMALS = {
    3: ("0.11111", "0.22222"), 4: ("0.05000", "0.20000"),
    5: ("0.03636", "0.16364"), 6: ("0.02381", "0.14286"),
    7: ("0.01863", "0.12422"), 8: ("0.01389", "0.11111"),
    9: ("0.01140", "0.09972"), 10: ("0.00909", "0.09091"),
    11: ("0.00770", "0.08320"),
}


def test_scaled_coefficient_rows_match_the_reference_table():
    for k in range(3, 12):
        row = bound_rows(k).general
        d, a, b, c = row.scale, row.n_coeff, row.m_coeff, row.c_coeff
        assert (d, a, b, c) == SCALED_ROWS[k], k
        assert c == a
        assert (format_decimal(F(a, d)), format_decimal(F(b, d))) \
            == SCALED_DECIMALS[k], k


REFERENCE_SHAPES = {
    # k odd -> alpha' >= coeff*n + const; k even -> min(coeff*n, (n-1)/2)
    3: (F(4, 9), F(-1, 9)),
    5: (F(49, 110), F(-2, 55)),
    7: (F(73, 161), F(-3, 161)),
    4: (F(5, 11),),
    6: (F(5, 11),),
    8: (F(17, 37),),
}

SAMPLED_N = {3: (4, 10, 50), 4: (5, 11, 40), 5: (6, 12, 30),
             6: (7, 11, 44), 7: (8, 14, 28), 8: (9, 19, 74)}


def test_regular_reference_bound_matches_its_closed_shapes():
    for k, ns in SAMPLED_N.items():
        shape = REFERENCE_SHAPES[k]
        for n in ns:
            # offsets 1..k/2, plus the antipode n/2 for odd k
            offsets = list(range(1, k // 2 + 1))
            if k % 2:
                offsets.append(n // 2)
            g = circulant(n, offsets)
            assert is_k_regular(g, k).overall, (k, n)
            assert components(g).component_count == 1, (k, n)
            got = audit_graph(g, k).entry("regular_reference").value
            if len(shape) == 2:
                coeff, const = shape
                assert got == coeff * n + const, (k, n)
            else:
                (coeff,) = shape
                assert got == min(coeff * n, F(n - 1, 2)), (k, n)


def test_extreme_points_equal_independent_cap_intersections():
    assert extreme_points(3) == [(F(1, 9), F(2, 9))]
    assert extreme_points(4) == [(F(1, 20), F(1, 5)), (F(-1, 11), F(3, 11))]
    for k in range(3, 51):
        caps = half_spaces(k)
        pts = extreme_points(k)
        assert len(pts) == (1 if k % 2 else 2)

        def crossing(h1, h2):
            # Cramer's rule on [beta - slope*gamma = intercept] x2
            det = h2.slope - h1.slope
            gamma = (h1.intercept - h2.intercept) / det
            beta = (h1.intercept * h2.slope - h2.intercept * h1.slope) / det
            return gamma, beta

        if k % 2:
            assert pts == [crossing(caps[0], caps[1])], k
        else:
            assert pts == [crossing(caps[0], caps[2]),
                           crossing(caps[1], caps[2])], k


def test_classifiers_agree_on_the_dense_grid():
    start = time.monotonic()
    count = 0
    for k in (3, 4, 5, 6):
        for gi in range(-20, 41):          # gamma from -1/2 to 1
            for bi in range(-20, 45):      # beta from -1/2 to 1.1
                p = (F(gi, 40), F(bi, 40))
                assert classify_pair(k, p) == classify_pair_geometric(k, p)
                count += 1
    assert count == 4 * 61 * 65  # 3965 points per k
    assert time.monotonic() - start < 10


FUZZ_SEEDS = {3: 93101, 4: 93401, 5: 93501, 6: 93601}


def test_fuzz_sweeps_find_no_bound_violations():
    start = time.monotonic()
    for k, seed in FUZZ_SEEDS.items():
        outcome = run_fuzz(FuzzConfig(k=k, trials=10_000, max_n=16,
                                      seed=seed))
        assert outcome.trials_run == 10_000
        assert outcome.violations == [], k
    assert time.monotonic() - start < 300


def test_exceptional_regular_graphs_meet_their_bounds_exactly():
    # smallest 4-regular graph: the oracle pins alpha', the bounds meet it
    k5 = complete(5)
    assert tutte_berge(k5).value == 2
    report = audit_graph(k5, 4)
    assert report.alpha == 2
    assert report.entry("connected_even").value == 2
    assert report.entry("connected_even").margin(report.alpha) == 0
    assert report.entry("connected_even_density").margin(report.alpha) == 0
    # 4-regular on k+3 = 7 vertices
    c7 = circulant(7, (1, 2))
    assert tutte_berge(c7).value == 3
    report7 = audit_graph(c7, 4)
    assert report7.alpha == 3
    assert report7.entry("connected_even").value == 3
    assert report7.entry("connected_even").margin(report7.alpha) == 0
    assert report7.entry("connected_even_density").margin(report7.alpha) == 0


AVERAGE_DEGREE_TRUNCATIONS = {
    4: "3.875", 6: "5.888", 8: "7.906", 10: "9.920", 12: "11.930",
    14: "13.938",
}


def test_gadget_chain_average_degree_limits():
    for k, printed in AVERAGE_DEGREE_TRUNCATIONS.items():
        chains = {r: block_chain(k, r).graph for r in (1, 2, 3, 8, 21)}
        # n and m grow by fixed steps in r, so 2m/n tends to 2*dm/dn
        dn, dm = (chains[2].vertex_count - chains[1].vertex_count,
                  chains[2].edge_count - chains[1].edge_count)
        assert (chains[3].vertex_count - chains[2].vertex_count,
                chains[3].edge_count - chains[2].edge_count) == (dn, dm), k
        limit = F(2 * dm, dn)
        assert limit == k - F(k - 2, k * k)
        truncated = F(math.floor(limit * 1000), 1000)
        assert truncated == F(printed), k
        previous = F(0)
        for r, g in chains.items():
            value = F(2 * g.edge_count, g.vertex_count)
            assert previous < value < limit, (k, r)
            previous = value


def test_region_is_convex_and_closed_under_the_transforms():
    for k in (3, 4, 5, 6):
        rng = random.Random(k * 7919)
        good = []
        for _ in range(1000):
            gamma = F(rng.randint(-200, 400), 400)
            drop = F(rng.randint(0, 300), 300)
            p = (gamma, envelope(k, gamma) - drop)
            assert classify_pair(k, p)
            good.append(p)
        # mixtures of good points stay good
        for _ in range(1000):
            p, q = rng.choice(good), rng.choice(good)
            t = F(rng.randint(0, 16), 16)
            mixed = mix(p, q, t)
            assert classify_pair(k, mixed)
            assert classify_pair_geometric(k, mixed)
        # the three shears keep good points good
        for p in good:
            eps = F(rng.randint(0, 40), 160)
            for shear in SHEARS.values():
                assert classify_pair(k, shear(k, *p, eps))
        # above the envelope everything is bad, and stays bad going up
        for _ in range(1000):
            gamma = F(rng.randint(-200, 400), 400)
            lift = F(rng.randint(1, 300), 300)
            beta = envelope(k, gamma) + lift
            assert not classify_pair(k, (gamma, beta))
            assert not classify_pair(k, (gamma, beta + F(rng.randint(1, 9), 7)))


BOUNDARY_PROBES = {
    # three boundary points per k: one on each cap, plus a corner/middle
    3: ((F(1, 4), None), (F(1, 9), F(2, 9)), (F(-1, 20), None)),
    4: ((F(1, 8), None), (F(-9, 440), F(13, 55)), (F(-1, 8), None)),
}


def even_trees(k, size):
    return block_chain(k, size, "singles")


def gadget_chains(k, size):
    return block_chain(k, size, "gadgets")


# the families meeting each probe's bound: trees on the unit-slope cap,
# connected k-regular members on the regular-density cap, all-gadget chains
# on the even-k connecting cap; an extreme point lies on two caps
BOUNDARY_WITNESSES = {
    (3, F(1, 4)): (odd_trees,),
    (3, F(1, 9)): (odd_trees, odd_regular),
    (3, F(-1, 20)): (odd_regular,),
    (4, F(1, 8)): (even_trees,),
    (4, F(-9, 440)): (gadget_chains,),
    (4, F(-1, 8)): (regular_gadget_ring,),
}


def test_boundary_witness_families_share_one_constant():
    for k, probes in BOUNDARY_PROBES.items():
        for gamma, beta in probes:
            if beta is None:
                beta = envelope(k, gamma)
            assert classify_pair_geometric(k, (gamma, beta))
            assert any(h.on_boundary((gamma, beta)) for h in half_spaces(k))
            for family in BOUNDARY_WITNESSES[k, gamma]:
                constants = set()
                for size in (1, 2, 3):
                    gg = family(k, size)
                    alpha = maximum_matching(gg.graph).size
                    constants.add(gamma * gg.graph.vertex_count
                                  + beta * gg.graph.edge_count - alpha)
                # one constant S: the bound gamma*n + beta*m - S has zero
                # slack at every instantiated size
                assert len(constants) == 1, (k, (gamma, beta), family)
    # spot-value checks on the constants that have closed forms
    ((a3, b3),) = extreme_points(3)
    for family in BOUNDARY_WITNESSES[3, a3]:
        gg = family(3, 2)
        s = a3 * gg.graph.vertex_count + b3 * gg.graph.edge_count \
            - maximum_matching(gg.graph).size
        assert s == F(1, 9)
    mid = (F(-9, 440), F(13, 55))
    (family,) = BOUNDARY_WITNESSES[4, mid[0]]
    gg = family(4, 2)
    s = mid[0] * gg.graph.vertex_count + mid[1] * gg.graph.edge_count \
        - maximum_matching(gg.graph).size
    assert s == F(1, 40)
