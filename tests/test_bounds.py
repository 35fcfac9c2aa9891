import hashlib
import random
from fractions import Fraction as F

import pytest

from matchbound.bounds import (BoundEntry, CoefficientSet, audit_graph,
                               bound_rows, connected_lower_bounds,
                               density_coefficients, evaluate_bounds,
                               format_decimal, general_coefficients)
from matchbound.cli import run_cli
from matchbound.edgelist import emit_edge_list
from matchbound.families import (block_chain, canonical_tree,
                                 regular_gadget_ring, tree_with_gadgets)
from matchbound.fuzz import random_connected_bounded
from matchbound.graphs import build_graph
from matchbound.matching import maximum_matching

from graph_helpers import circulant, complete, disjoint, path, petersen


# --- coefficient sets -------------------------------------------------

def test_general_coefficients_small_k():
    c3 = general_coefficients(3)
    assert (c3.a, c3.b) == (F(1, 9), F(2, 9))
    c4 = general_coefficients(4)
    assert (c4.a, c4.b) == (F(1, 20), F(1, 5))
    c5 = general_coefficients(5)
    assert (c5.a, c5.b) == (F(2, 55), F(9, 55))
    c6 = general_coefficients(6)
    assert (c6.a, c6.b) == (F(1, 42), F(1, 7))


def test_general_coefficients_row_sum():
    # a + b = 1/k for every k: adding an isolated edge raises the bound by
    # exactly what a new K2 component contributes
    for k in range(3, 40):
        c = general_coefficients(k)
        assert c.a + c.b == F(1, k)
        assert c.a > 0 and c.b > 0


def test_general_coefficients_epsilon_form():
    for k in range(3, 20):
        c = general_coefficients(k)
        if k % 2:
            assert 2 * c.a == F(2 * k - 2, k * (k * k - 3))
        else:
            assert 2 * c.a == F(2, k * (k + 1))


def test_density_coefficients():
    c4 = density_coefficients(4)
    assert (c4.a, c4.b) == (F(1, 11), F(3, 11))
    for k in range(2, 30, 2):
        c = density_coefficients(k)
        assert k * c.b - c.a == 1
    with pytest.raises(ValueError):
        density_coefficients(5)
    with pytest.raises(ValueError):
        general_coefficients(2)


# --- scalar bound formulas --------------------------------------------

def test_lower_bound_general_values():
    # P7: n=7, m=6, one component, k=3: (7+2*6-1)/9 = 2 = alpha'
    assert audit_graph(path(7), 3).entry("general").value == 2
    # forest of two P4s, k=3: (8+2*6)/9
    assert audit_graph(disjoint(path(4), path(4)), 3).entry(
        "general").value == F(8 + 12 - 2, 9)


def test_lower_bound_density_values():
    row = bound_rows(4).density
    # 2m = 70 != 4n = 84: the graph is not 4-regular, so no cap applies
    assert F(row.numerator(21, 35, 1), row.scale) == F(3 * 35 - 21, 11)
    assert bound_rows(3).density is None  # odd k has no density bound
    with pytest.raises(ValueError):
        density_coefficients(3)


def test_connected_bounds_odd_k():
    out = connected_lower_bounds(29, 40, 3)
    assert [name for name, _ in out] == ["connected_odd"]
    assert out[0][1] == F(29, 9) + F(2 * 40, 9) - F(1, 9)  # == 12
    assert out[0][1] == 12


def test_connected_bounds_even_k():
    out = dict(connected_lower_bounds(21, 35, 4))
    assert set(out) == {"connected_even", "connected_even_weak",
                        "connected_even_density"}
    assert out["connected_even"] == F(21, 20) + F(35, 5) - F(1, 20) == 8
    assert out["connected_even_weak"] == F(21, 20) + F(35, 5) - F(1, 4)
    assert out["connected_even_density"] == F(3 * 35 - 21, 11)


def test_connected_bounds_regular_exceptions():
    # K5: k=4, n=k+1 -> larger subtracted constants; 2m = kn marks it regular
    out = dict(connected_lower_bounds(5, 10, 4))
    assert out["connected_even"] == F(5, 20) + F(10, 5) - F(1, 4) == 2
    assert out["connected_even_density"] == F(30 - 5, 11) - F(6, 22) == 2
    assert out["connected_even_weak"] == 2
    # circulant on k+3=7 vertices
    out7 = dict(connected_lower_bounds(7, 14, 4))
    assert out7["connected_even"] == F(7, 20) + F(14, 5) - F(3, 20) == 3
    assert out7["connected_even_density"] == F(42 - 7, 11) - F(4, 22) == 3
    # k=4, n=9 has its own exceptional constant
    out9 = dict(connected_lower_bounds(9, 18, 4))
    assert out9["connected_even_density"] == F(54 - 9, 11) - F(2, 22)


def test_the_floor_cap_binds_at_exactly_the_exceptional_orders():
    # The cap at floor(n/2) on a k-regular graph replaces the paper's
    # exceptional constants; for even k it binds at the odd n below a
    # threshold per row, and never for odd k or the weak row.
    def uncapped(row, n, m, c):
        return (row.n_coeff * n + row.m_coeff * m - row.c_coeff * c
                - row.const)

    for k in range(3, 41):
        thresholds = {}
        if k % 2 == 0:
            thresholds = {
                "connected_even": F((k + 2) * (k - 1), k - 2),
                "connected_even_density": F(k * k + k + 2, k - 2)}
        binding = {name: [] for name in thresholds}
        rows = bound_rows(k)
        for n in range(k + 1, 8 * k):
            if k * n % 2:
                continue
            m = k * n // 2
            for row in rows.connected:
                cap = row.scale * (n // 2)
                value = uncapped(row, n, m, 1)
                binds = (row.name in thresholds and n % 2 == 1
                         and n < thresholds[row.name])
                assert (value > cap) == binds, (k, n, row.name)
                assert row.numerator(n, m, 1) == min(value, cap)
                if binds:
                    assert row.numerator(n, m, 1) == (
                        row.scale * (n - 1) // 2)
                    binding[row.name].append(n)
            # the cap never moves the least reference row
            ref = rows.reference
            assert (min(row.numerator(n, m, 1) for row in ref)
                    == min(uncapped(row, n, m, 1) for row in ref)
                    <= ref[0].scale * (n // 2)), (k, n)
        if k % 2 == 0:
            # the paper's exceptional orders
            assert binding["connected_even"] == [k + 1, k + 3]
            assert binding["connected_even_density"] == (
                [5, 7, 9] if k == 4 else [k + 1, k + 3])
    # nor the k = 3 general row (the subcubic profile bound) at m = 3n'/2,
    # where the n' non-isolated vertices are cubic and the c components
    # number at most n'/4 cubic ones plus the isolated vertices
    cubic = bound_rows(3).general
    for n in range(0, 8 * 40, 2):
        for c in range(1, n // 4 + 4):
            value = uncapped(cubic, n, 3 * n // 2, c)
            assert value < cubic.scale * (n // 2), (n, c)
            assert cubic.numerator(n, 3 * n // 2, c) == value, (n, c)


def test_kregular_reference_bound():
    def reference(g, k):
        return audit_graph(g, k).entry("regular_reference").value

    assert reference(complete(4), 3) == F(15, 9)
    assert reference(complete(5), 4) == 2
    assert reference(circulant(22, (1, 2)), 4) == 10
    assert reference(circulant(100, (1, 2)), 4) == F(500, 11)


def test_subcubic_degree_bound():
    def subcubic(g):
        return audit_graph(g, 3).entry("subcubic_profile")

    # the Petersen counts: 10 cubic vertices, one component
    assert subcubic(petersen()).value == F(40 - 1, 9)
    assert subcubic(path(2)).value == F(1, 3)  # a single edge
    assert subcubic(build_graph(1, [])).value == F(-1, 9)
    assert subcubic(build_graph(0, [])).reason == "empty graph"


def test_scaled_rows():
    def general(k):
        row = bound_rows(k).general
        return row.scale, row.n_coeff, row.m_coeff, row.c_coeff

    assert general(3) == (9, 1, 2, 1)
    assert general(5) == (55, 2, 9, 2)
    assert general(7) == (161, 3, 20, 3)


def test_format_decimal_half_even():
    assert format_decimal(F(1, 9)) == "0.11111"
    assert format_decimal(F(1, 20)) == "0.05000"
    assert format_decimal(F(-1, 11)) == "-0.09091"
    assert format_decimal(F(1, 200000)) == "0.00000"  # ties to even
    assert format_decimal(F(3, 200000)) == "0.00002"
    # a value that rounds to zero has no sign
    assert format_decimal(F(-1, 200000)) == "0.00000"
    assert format_decimal(F(-1, 300000)) == "0.00000"
    assert format_decimal(F(-3, 200000)) == "-0.00002"
    # rounded once and exactly, at any magnitude: just below a tie rounds down
    assert format_decimal(F(15, 10**6) - F(1, 10**40)) == "0.00001"
    assert format_decimal(F(-10**26)) == "-100000000000000000000000000.00000"


# --- audit ------------------------------------------------------------

def test_entries_store_each_fact_once():
    assert CoefficientSet._fields == ("a", "b")
    assert BoundEntry._fields == ("name", "reason", "numerator", "scale")
    report = audit_graph(complete(5), 4)
    skipped = report.entry("general")
    assert skipped.value is None and skipped.reason
    # neither applicable nor tight nor violated
    assert skipped.margin(report.alpha) is None
    assert skipped not in report.violations
    with pytest.raises(KeyError):
        report.entry("nope")


def test_audit_on_connected_cubic_graph():
    g = petersen()
    report = audit_graph(g, 3)
    assert report.alpha == 5
    # 3-regular: the no-regular-component bounds must be skipped
    assert report.entry("general").margin(report.alpha) is None
    assert report.entry("connected_odd").margin(report.alpha) is not None
    assert report.entry("regular_reference").margin(report.alpha) is not None
    assert report.entry("regular_reference").value == F(39, 9)
    assert report.entry("subcubic_profile").value == F(39, 9)
    assert not report.violations


def test_audit_skips_connected_bounds_on_forests():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    report = audit_graph(g, 3)
    assert report.entry("general").margin(report.alpha) is not None
    assert report.entry("general").value == F(6 + 6 - 3, 9)
    entry = report.entry("connected_odd")
    assert entry.margin(report.alpha) is None and "connected" in entry.reason


def test_audit_subcubic_applies_under_any_k():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    report = audit_graph(g, 7)  # k=7 audit of a path
    assert report.entry("subcubic_profile").margin(report.alpha) is not None
    # P4: two degree-1 ends, two degree-2 middles -> 4/9 + 2/3 - 1/9
    assert report.entry("subcubic_profile").value == 1


def test_audit_skips_subcubic_when_degree_exceeds_three():
    report = audit_graph(complete(5), 4)
    entry = report.entry("subcubic_profile")
    assert entry.margin(report.alpha) is None


def test_audit_regular_exception_values():
    rep5 = audit_graph(complete(5), 4)
    assert rep5.entry("connected_even").margin(rep5.alpha) == 0
    assert rep5.entry("connected_even_density").margin(rep5.alpha) == 0
    rep7 = audit_graph(circulant(7, (1, 2)), 4)
    assert rep7.entry("connected_even").margin(rep7.alpha) == 0
    assert rep7.entry("connected_even_density").margin(rep7.alpha) == 0
    # C9(1,2): 4-regular on 9 vertices, the third exceptional case
    rep9 = audit_graph(circulant(9, (1, 2)), 4)
    assert rep9.alpha == 4
    assert rep9.entry("connected_even_density").margin(rep9.alpha) == 0
    assert not rep9.violations


def test_audit_input_validation():
    with pytest.raises(ValueError):
        audit_graph(complete(5), 2)
    with pytest.raises(ValueError):
        audit_graph(complete(6), 4)  # max degree 5 > 4


def test_audit_never_reports_negative_slack_on_reference_graphs():
    # a grab bag: stars, paths, cycles, cliques minus edges
    graphs = [build_graph(5, [(0, i) for i in range(1, 5)]),
              build_graph(7, [(i, i + 1) for i in range(6)]),
              build_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
              circulant(9, (1, 2))]
    for g in graphs:
        for k in (3, 4, 5):
            from matchbound.graphs import degree_profile
            if degree_profile(g).max_degree > k:
                continue
            assert not audit_graph(g, k).violations


# SHA-256 of `audit --k K` exit code, stdout, stderr and `--json` bytes for
# each graph below at K in {k, k+1, 3}, recorded while connected_lower_bounds
# still took the regular order from its caller and BoundEntry stored
# `applicable`. The plain graphs are the regular orders with exceptional
# constants (n = k+1, n = k+3, k=4 with n=9) and a disconnected regular one.
GOLDEN_AUDIT = ("9dfd9813cda79314b4d37fd56181a27e"
                "0c44b0c335ecfe86fa13abf222fdc936")

GOLDEN_AUDIT_GRAPHS = (
    (4, lambda: block_chain(4, 1).graph),
    (4, lambda: block_chain(4, 2, "gssgsgs").graph),
    (4, lambda: block_chain(4, 3, "singles").graph),
    (4, lambda: block_chain(4, 12).graph),
    (6, lambda: block_chain(6, 2, "gsgsgsgsgsg").graph),
    (4, lambda: regular_gadget_ring(4, 1).graph),
    (4, lambda: regular_gadget_ring(4, 5).graph),
    (6, lambda: regular_gadget_ring(6, 2).graph),
    (3, lambda: tree_with_gadgets(3, canonical_tree(3, 9, "tree")).graph),
    (3, lambda: tree_with_gadgets(3, canonical_tree(3, 21, "regular")).graph),
    (5, lambda: tree_with_gadgets(5, canonical_tree(5, 8, "tree")).graph),
    (3, lambda: complete(4)),
    (4, lambda: complete(5)),
    (4, lambda: circulant(7, (1, 2))),
    (4, lambda: circulant(9, (1, 2))),
    (6, lambda: complete(7)),
    (6, lambda: circulant(9, (1, 2, 3))),
    (4, lambda: build_graph(10, [(i + s, j + s) for s in (0, 5)
                                 for i in range(5) for j in range(i + 1, 5)])),
)


def test_audit_output_matches_the_recorded_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path, out = tmp_path / "g.el", tmp_path / "report.json"
    for k, make in GOLDEN_AUDIT_GRAPHS:
        path.write_text(emit_edge_list(make()))
        for audit_k in sorted({k, k + 1, 3}):
            out.unlink(missing_ok=True)
            code = run_cli(["audit", str(path), "--k", str(audit_k),
                            "--json", str(out)])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}{captured.err}".encode())
            if out.exists():
                digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_AUDIT


# --- integer rows against a Fraction reference -------------------------

def reference_pieces(k):
    """Affine pieces (coeff, const) of the connected k-regular reference
    bound, the least ``coeff*n + const``: the connected bound at m = k*n/2
    and, for even k, the (n-1)/2 cap."""
    if k % 2 == 0:
        ds = density_coefficients(k)
        return [(ds.b * k / 2 - ds.a, F(0)), (F(1, 2), F(-1, 2))]
    cs = general_coefficients(k)
    return [(cs.a + cs.b * k / 2, -cs.a)]


def test_reference_rows_equal_the_fraction_pieces():
    for k in range(3, 80):
        rows = bound_rows(k).reference
        assert all((row.m_coeff, row.c_coeff, row.scale)
                   == (0, 0, rows[0].scale) for row in rows), k
        pieces = [(F(row.n_coeff, row.scale), F(-row.const, row.scale))
                  for row in rows]
        assert pieces == reference_pieces(k), k


def reference_bounds(g, k):
    """Each bound that applies to g at k, computed in Fractions straight
    from the coefficient sets, independently of the integer rows."""
    n, m = g.vertex_count, g.edge_count
    s = g.structure
    c = s.component_count
    regular_part = k in s.component_degree
    regular_n = n if c == 1 and 2 * m == n * k else None
    cs = general_coefficients(k)
    out = {}
    if not regular_part and n >= 1:
        out["general"] = cs.a * (n - c) + cs.b * m
    if k % 2 == 0:
        ds = density_coefficients(k)
        if not regular_part:
            out["density"] = ds.b * m - ds.a * n
    if c == 1 and k % 2:
        out["connected_odd"] = cs.a * n + cs.b * m - cs.a
    elif c == 1:
        den = k * k + k + 2
        strong = {k + 1: F(1, k), k + 3: F(3, k * (k + 1))}
        dense = {k + 1: F(k + 2, den), k + 3: F(4, den)}
        if k == 4:
            dense[9] = F(2, den)
        out["connected_even"] = (cs.a * n + cs.b * m
                                 - strong.get(regular_n, F(1, k * (k + 1))))
        out["connected_even_weak"] = cs.a * n + cs.b * m - F(1, k)
        out["connected_even_density"] = (ds.b * m - ds.a * n
                                         - dense.get(regular_n, 0))
    if regular_n is not None:
        out["regular_reference"] = min(coeff * n + const
                                       for coeff, const in reference_pieces(k))
    degrees = [g.degree(v) for v in range(n)]
    if n >= 1 and max(degrees) <= 3:
        counts = {d: degrees.count(d) for d in degrees}
        out["subcubic_profile"] = (F(4 * counts.get(3, 0), 9)
                                   + F(counts.get(2, 0), 3)
                                   + F(2 * counts.get(1, 0), 9) - F(c, 9))
    return out


def cycle_complement(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 2, n)
                           if (i, j) != (0, n - 1)])


def verdict_graphs(k):
    rng = random.Random(1000 + k)
    yield complete(k + 1)  # n = k+1
    yield cycle_complement(k + 3)  # k-regular on n = k+3
    if k == 4:
        yield circulant(9, (1, 2))
    yield build_graph(0, [])
    for i in range(60):
        n = rng.randint(1, 20)
        yield random_connected_bounded(rng.getrandbits(64), n, k,
                                       forbid_regular=i % 2 == 0 and n > 1)
    for _ in range(30):
        parts = [random_connected_bounded(rng.getrandbits(64),
                                          rng.randint(1, 9), k,
                                          forbid_regular=rng.random() < 0.5)
                 for _ in range(rng.randint(2, 3))]
        yield disjoint(*parts)


def test_integer_verdicts_match_a_fraction_reference():
    regular_orders = set()
    for k in range(3, 13):
        for g in verdict_graphs(k):
            alpha = maximum_matching(g).size
            expected = reference_bounds(g, k)
            got = {e.name: e for e in evaluate_bounds(g, k)
                   if e.numerator is not None}
            assert set(got) == set(expected), (k, g.edges())
            for name, e in got.items():
                assert e.value == expected[name], (k, name)
                # the verdicts at alpha' and at alpha' - 1, where every
                # bound that was tight is violated
                for a in (alpha, alpha - 1):
                    slack = a - expected[name]
                    margin = e.margin(a)
                    assert F(margin, e.scale) == slack, (k, name, a)
                    assert (margin == 0) == (slack == 0)
                    assert (margin < 0) == (slack < 0)
            if "regular_reference" in got:
                regular_orders.add((k, g.vertex_count))
    assert {(k, k + 1) for k in range(3, 13)} <= regular_orders
    assert {(k, k + 3) for k in range(3, 13)} <= regular_orders
    assert (4, 9) in regular_orders


def star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_capped(seed, n, cap):
    """A seeded graph on n vertices, often disconnected, degrees <= cap."""
    rng = random.Random(seed)
    degree = [0] * n
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) in edges or max(degree[u], degree[v]) >= cap:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    return build_graph(n, sorted(edges))


# SHA-256 of `audit --k K` exit code, stdout, stderr and `--json` bytes for
# each graph below at K = 3..8, recorded while every bound was still
# evaluated in Fractions. These are the cases GOLDEN_AUDIT lacks: n = 0 and
# 1 (the empty graph has `density` evaluated and tight, `general` skipped),
# forests, and disconnected non-regular graphs, where the component term of
# the general bound and the subcubic constant matter; a few maximum degrees
# exceed the smaller K.
GOLDEN_AUDIT_EDGE_CASES = ("005efe34ee1c13a8777a1f0805145088"
                           "0805a663994080e443357efc5b1373a9")

EDGE_CASE_GRAPHS = (
    lambda: build_graph(0, []),
    lambda: build_graph(1, []),
    lambda: build_graph(2, []),
    lambda: build_graph(5, []),
    lambda: path(2),
    lambda: disjoint(path(2), build_graph(1, [])),
    lambda: path(3),
    lambda: star(3),
    lambda: star(5),
    lambda: disjoint(path(2), path(2), path(2)),
    lambda: disjoint(path(4), path(3), build_graph(2, [])),
    lambda: disjoint(star(3), path(5), star(4)),
    lambda: disjoint(circulant(3, (1,)), path(4)),
    lambda: disjoint(circulant(5, (1,)), star(3), build_graph(1, [])),
    lambda: disjoint(complete(4), path(3)),
    lambda: disjoint(complete(5), circulant(4, (1,))),
    lambda: disjoint(complete(4), complete(4)),
    *(lambda s=s: random_capped(s, 2 + s % 19, 3 + s % 4)
      for s in range(24)),
)


def test_audit_edge_cases_match_the_recorded_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path_, out = tmp_path / "g.el", tmp_path / "report.json"
    for make in EDGE_CASE_GRAPHS:
        path_.write_text(emit_edge_list(make()))
        for audit_k in range(3, 9):
            out.unlink(missing_ok=True)
            code = run_cli(["audit", str(path_), "--k", str(audit_k),
                            "--json", str(out)])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}{captured.err}".encode())
            if out.exists():
                digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_AUDIT_EDGE_CASES
