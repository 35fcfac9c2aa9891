import hashlib
import random
import sys
from fractions import Fraction as F

import pytest

from matchbound.cli import DEFAULT_BBOX, run_cli
from matchbound.bounds import (bound_rows, density_coefficients,
                               general_coefficients)
from matchbound.families import block_chain, regular_gadget_ring
from matchbound.matching import maximum_matching
from matchbound.region import (classify_pair, classify_pair_geometric,
                               extreme_points, half_spaces, polygon_svg,
                               region_polygon)

from graph_helpers import SHEARS, envelope, mix, odd_regular, odd_trees

BBOX = DEFAULT_BBOX


def caps_through(k, p):
    """Indices into half_spaces(k) of the caps whose boundary holds p."""
    assert classify_pair_geometric(k, p)
    return [i for i, h in enumerate(half_spaces(k)) if h.on_boundary(p)]


def test_half_space_counts_and_slopes():
    assert len(half_spaces(3)) == 2
    assert len(half_spaces(4)) == 3
    for k in range(3, 20):
        caps = half_spaces(k)
        assert caps[0].slope == -1
        assert caps[0].intercept == F(1, k)
        # slopes get steeper from the last cap to the first
        slopes = sorted(h.slope for h in caps)
        assert slopes[0] == -1
        # so a box's lower-left corner is strictly inside every cap
        assert slopes[-1] < 0


def test_extreme_points_exact():
    assert extreme_points(3) == [(F(1, 9), F(2, 9))]
    assert extreme_points(4) == [(F(1, 20), F(1, 5)), (F(-1, 11), F(3, 11))]
    assert extreme_points(5) == [(F(2, 55), F(9, 55))]
    # the independent route: the pairs the coefficient functions state
    for k in range(3, 61):
        cs = general_coefficients(k)
        expected = [(cs.a, cs.b)]
        if k % 2 == 0:
            ds = density_coefficients(k)
            expected.append((-ds.a, ds.b))
        assert extreme_points(k) == expected, k


def test_region_reads_only_the_cached_bound_rows(monkeypatch):
    # once bound_rows(k) is warm, the region never converts the
    # coefficient pairs again
    for k in range(3, 9):
        bound_rows(k)

    def refuse(k):
        raise AssertionError("coefficients converted again")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "matchbound":
            continue
        for attr in ("general_coefficients", "density_coefficients"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for k in range(3, 9):
        points = extreme_points(k)
        assert len(points) == (1 if k % 2 else 2)
        assert len(half_spaces(k)) == len(points) + 1
        for p in (*points, (F(0), F(0)), (F(1, 3), F(1, 3))):
            assert classify_pair(k, p) == classify_pair_geometric(k, p)
        assert region_polygon(k, BBOX)


def test_extreme_points_lie_on_their_caps():
    for k in range(3, 30):
        caps = half_spaces(k)
        for p in extreme_points(k):
            touching = sum(1 for h in caps if h.on_boundary(p))
            assert touching == 2
            assert classify_pair_geometric(k, p)


def test_classifiers_agree_on_random_rationals():
    rng = random.Random(7710)
    for _ in range(4000):
        k = rng.choice((3, 4, 5, 6, 9, 12))
        p = (F(rng.randint(-60, 120), 120), F(rng.randint(-60, 132), 120))
        assert classify_pair(k, p) == classify_pair_geometric(k, p), (k, p)


def test_boundary_points_are_good():
    # the caps are closed: points exactly on the envelope are good; the
    # piecewise rule switches branch at each extreme point's gamma
    tiny = F(1, 10 ** 9)
    for k in range(3, 14):
        gammas = [F(-1, 7), F(0), F(1, 50), F(1, 8), F(1, 2)]
        gammas += [a + d for a, _ in extreme_points(k)
                   for d in (-tiny, 0, tiny)]
        for gamma in gammas:
            b = envelope(k, gamma)
            for p, good in (((gamma, b), True), ((gamma, b + tiny), False)):
                assert classify_pair(k, p) is good, (k, p)
                assert classify_pair_geometric(k, p) is good, (k, p)


def test_transforms_preserve_goodness():
    rng = random.Random(33)
    for _ in range(400):
        k = rng.choice((3, 4, 5, 6))
        gamma = F(rng.randint(-40, 80), 80)
        beta = envelope(k, gamma) - F(rng.randint(0, 50), 100)
        p = (gamma, beta)
        assert classify_pair(k, p)
        eps = F(rng.randint(0, 30), 120)
        for rule, shear in SHEARS.items():
            q = shear(k, *p, eps)
            assert classify_pair(k, q), (k, p, rule, eps)


def test_mix_rule():
    p1, p2 = extreme_points(4)
    mid = mix(p1, p2, F(1, 2))
    assert mid == (F(-9, 440), F(13, 55))
    assert classify_pair(4, mid)
    assert mix(p1, p2, F(1)) == p1


def test_witness_kinds_by_cap():
    # even k: cap 0 is met by trees, cap 1 by connected k-regular members,
    # cap 2 by all-gadget chains
    k = 4
    (a1, b1), (a2, b2) = extreme_points(k)
    # interior of the unit-slope segment
    on_l1 = (a1 + F(1, 100), envelope(k, a1 + F(1, 100)))
    assert caps_through(k, on_l1) == [0]
    # interior of the steep regular cap
    on_l3 = (a2 - F(1, 100), envelope(k, a2 - F(1, 100)))
    assert caps_through(k, on_l3) == [1]
    # between the corners
    assert caps_through(k, (F(-9, 440), F(13, 55))) == [2]
    # corners lie on two caps each
    assert caps_through(k, (a1, b1)) == [0, 2]
    assert caps_through(k, (a2, b2)) == [1, 2]


def test_witness_kinds_odd_k():
    ((a, b),) = extreme_points(3)
    assert caps_through(3, (a, b)) == [0, 1]
    assert caps_through(3, (a, b - F(1, 50))) == []
    assert not classify_pair_geometric(3, (a, b + F(1, 50)))


def test_witnesses_meet_their_bound_with_constant_slack():
    # instantiating a witness at growing sizes keeps gamma*n + beta*m - alpha'
    # pinned to a single constant
    cases = [
        (3, (F(1, 5), envelope(3, F(1, 5))), odd_trees),
        (4, (F(1, 10), envelope(4, F(1, 10))),
         lambda k, size: block_chain(k, size, "singles")),
        (4, (F(-9, 440), F(13, 55)), block_chain),     # all-gadget chains
        (3, (F(0), envelope(3, F(0))), odd_regular),
        (4, (F(-1, 11) - F(1, 90), envelope(4, F(-1, 11) - F(1, 90))),
         regular_gadget_ring),
    ]
    for k, (gamma, beta), family in cases:
        assert caps_through(k, (gamma, beta)), (k, gamma, beta)
        values = []
        for i in (1, 2, 3):
            gg = family(k, i)
            a = maximum_matching(gg.graph).size
            values.append(gamma * gg.graph.vertex_count
                          + beta * gg.graph.edge_count - a)
        assert values[0] == values[1] == values[2], (k, gamma, values)


def test_region_polygon_k4():
    poly = region_polygon(4, BBOX)
    assert poly == [
        (F(-1, 4), F(-1, 2)), (F(1, 4), F(-1, 2)), (F(1, 4), F(0)),
        (F(1, 20), F(1, 5)), (F(-1, 11), F(3, 11)), (F(-1, 4), F(31, 88)),
    ]


def test_region_polygon_properties():
    # every extreme point lies in the default box, so `region --polygon`
    # and `--svg` need no --bbox
    for k in range(3, 61):
        poly = region_polygon(k, BBOX)
        assert poly[0] == (BBOX[0], BBOX[2])  # the lower-left corner
        # counterclockwise by the shoelace sign
        doubled = sum(poly[i][0] * poly[(i + 1) % len(poly)][1]
                      - poly[(i + 1) % len(poly)][0] * poly[i][1]
                      for i in range(len(poly)))
        assert doubled > 0
        for p in extreme_points(k):
            assert p in poly
        for q in poly:
            assert classify_pair_geometric(k, q)
        # no repeated vertices at all
        assert len(set(poly)) == len(poly)


def test_region_polygon_bbox_validation():
    with pytest.raises(ValueError):
        region_polygon(4, (F(0), F(1, 4), F(-1, 2), F(1, 2)))  # cuts a corner
    with pytest.raises(ValueError):
        region_polygon(4, (F(1, 4), F(-1, 4), F(-1, 2), F(1, 2)))  # empty


def test_polygon_svg_shape():
    poly = region_polygon(4, BBOX)
    svg = polygon_svg(poly, BBOX)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polygon") == 1
    assert svg.count("<line") == 2  # both axes cross the default box


# SHA-256 of `region --k K` stdout for K = 3..20 followed by `tables --which 1`
# and `tables --which 2` stdout, and of the bytes of `region --k 4 --polygon
# ... --svg ...` (CSV then SVG), recorded while every cap and table entry
# was still written as its own closed form in k.
GOLDEN_STDOUT = ("ebb98679bbdfc717681be61067d826a3"
                 "376436a51d56b009c6998b477129f03a")
GOLDEN_POLYGON = ("7974783deb4c7b29261fa3c80d6583d0"
                  "5ea5ede2415069841133d3151d72c82b")


def test_region_and_table_output_matches_the_recorded_digests(
        tmp_path, capsys):
    stdout = hashlib.sha256()
    for argv in ([["region", "--k", str(k)] for k in range(3, 21)]
                 + [["tables", "--which", "1"], ["tables", "--which", "2"]]):
        assert run_cli(argv) == 0
        stdout.update(capsys.readouterr().out.encode())
    assert stdout.hexdigest() == GOLDEN_STDOUT
    csv_path, svg_path = tmp_path / "poly.csv", tmp_path / "poly.svg"
    assert run_cli(["region", "--k", "4", "--polygon", str(csv_path),
                    "--svg", str(svg_path)]) == 0
    polygon = hashlib.sha256(csv_path.read_bytes() + svg_path.read_bytes())
    assert polygon.hexdigest() == GOLDEN_POLYGON
