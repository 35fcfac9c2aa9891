"""The convex set of valid (gamma, beta) coefficient pairs, per degree cap k.

A pair (gamma, beta) is *good* for k if alpha'(G) >= gamma*n + beta*m - K
holds with some constant K over all connected graphs with maximum degree at
most k. The good set is the intersection of closed half-spaces of the form
beta <= slope*gamma + intercept: two of them for odd k, three for even k.
The paper's bounds describe this set completely, so it is read from their
integer rows, :func:`matchbound.bounds.bound_rows`: each cap passes through
one of its extreme points, the general and density rows' coefficient pairs.

Coordinates are exact rationals throughout; a point is a (gamma, beta)
tuple of Fractions.

Two classifiers are provided: :func:`classify_pair` implements the
piecewise case analysis, :func:`classify_pair_geometric` just checks every
half-space. They agree everywhere; keeping both allows one to audit the
other. Boundary points are classified good (the half-spaces are closed).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from matchbound.bounds import bound_rows

Point = tuple[Fraction, Fraction]


class HalfSpace(NamedTuple):
    """The closed constraint beta <= slope*gamma + intercept."""
    slope: Fraction
    intercept: Fraction

    def contains(self, p: Point) -> bool:
        gamma, beta = p
        return beta <= self.slope * gamma + self.intercept

    def on_boundary(self, p: Point) -> bool:
        gamma, beta = p
        return beta == self.slope * gamma + self.intercept


def half_spaces(k: int) -> list[HalfSpace]:
    """The bounding half-spaces, outermost segment first.

    Odd k: [unit-slope cap, regular-density cap]. Even k: [unit-slope cap,
    regular-density cap, the connecting cap between the two extreme points].
    A cap of slope -n/m keeps the bound fixed, up to a constant, on graphs
    with that ratio: slope -1 for trees (m = n - 1) through the first extreme
    point, and -2/k for k-regular graphs (m = k*n/2) through the last one.
    """
    points = extreme_points(k)
    through = [(points[0], Fraction(-1)), (points[-1], Fraction(-2, k))]
    if len(points) == 2:
        (g1, b1), (g2, b2) = points
        through.append((points[0], (b1 - b2) / (g1 - g2)))
    return [HalfSpace(slope, beta - slope * gamma)
            for (gamma, beta), slope in through]


def extreme_points(k: int) -> list[Point]:
    """The (n, m) coefficients of the general row, where the tree cap
    (m = n - 1) ends, and for even k of the density row, (-a, b), where the
    k-regular cap (m = k*n/2) ends, each over its scale. Larger gamma first.
    """
    if k < 3:
        raise ValueError(f"extreme_points needs k >= 3, got {k}")
    rows = bound_rows(k)
    return [(Fraction(r.n_coeff, r.scale), Fraction(r.m_coeff, r.scale))
            for r in (rows.general, rows.density) if r is not None]


def classify_pair(k: int, p: Point) -> bool:
    """True iff (gamma, beta) is good for k, by piecewise case analysis:
    slope -2/k up to P2, the last extreme point, the chord from P2 to P1,
    the first, then slope -1. For odd k P1 = P2 and the chord is empty."""
    gamma, beta = p
    points = extreme_points(k)
    (a1, b1), (a2, b2) = points[0], points[-1]
    if gamma <= a2:
        return beta <= b2 + Fraction(2, k) * (a2 - gamma)
    if gamma > a1:
        return beta <= b1 + (a1 - gamma)
    return beta <= b2 + (b1 - b2) * (gamma - a2) / (a1 - a2)


def classify_pair_geometric(k: int, p: Point) -> bool:
    """True iff (gamma, beta) lies in every bounding half-space."""
    return all(h.contains(p) for h in half_spaces(k))


def region_polygon(k: int, bbox: tuple[Fraction, Fraction, Fraction, Fraction]
                   ) -> list[Point]:
    """The good region clipped to a box, as a counterclockwise vertex list.

    bbox is (gamma_min, gamma_max, beta_min, beta_max) and must strictly
    contain every extreme point; successive-half-space clipping of the box
    rectangle is exact, so extreme points appear verbatim among the
    vertices.
    """
    gmin, gmax, bmin, bmax = (Fraction(x) for x in bbox)
    if not (gmin < gmax and bmin < bmax):
        raise ValueError("bbox is empty")
    for gamma, beta in extreme_points(k):
        if not (gmin < gamma < gmax and bmin < beta < bmax):
            raise ValueError(
                f"bbox must strictly contain the extreme point "
                f"({gamma}, {beta})")
    poly: list[Point] = [(gmin, bmin), (gmax, bmin), (gmax, bmax),
                         (gmin, bmax)]
    for cap in half_spaces(k):
        poly = _clip(poly, cap)
    # Each cap has negative slope through an extreme point inside the box, so
    # the box's lower-left corner lies strictly inside every cap: it stays
    # first, and a vertex on a cap line is repeated only next to itself.
    return [q for i, q in enumerate(poly) if i == 0 or q != poly[i - 1]]


def _clip(poly: list[Point], cap: HalfSpace) -> list[Point]:
    out: list[Point] = []
    for i, cur in enumerate(poly):
        nxt = poly[(i + 1) % len(poly)]
        cur_in = cap.contains(cur)
        if cur_in:
            out.append(cur)
        if cur_in != cap.contains(nxt):
            out.append(_cross(cur, nxt, cap))
    return out


def _cross(p: Point, q: Point, cap: HalfSpace) -> Point:
    fp = p[1] - cap.slope * p[0] - cap.intercept
    fq = q[1] - cap.slope * q[0] - cap.intercept
    t = fp / (fp - fq)
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def polygon_svg(points: list[Point],
                bbox: tuple[Fraction, Fraction, Fraction, Fraction]) -> str:
    """A minimal 480-wide SVG: the filled region polygon plus axis lines."""
    width = 480
    gmin, gmax, bmin, bmax = (Fraction(x) for x in bbox)
    span_g = gmax - gmin
    span_b = bmax - bmin
    height = int(width * span_b / span_g)
    # sy() maps beta onto 0..height as floats
    if not 1 <= height <= sys.float_info.max:
        raise ValueError(
            f"bbox cannot be drawn {width} pixels wide: its beta span must be "
            f"at least 1/{width} of its gamma span, and its height must fit "
            "a float")

    def sx(gamma: Fraction) -> float:
        return float((gamma - gmin) / span_g * width)

    def sy(beta: Fraction) -> float:
        return float(height - (beta - bmin) / span_b * height)

    coords = " ".join(f"{sx(g):.2f},{sy(b):.2f}" for g, b in points)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'  <polygon points="{coords}" fill="#c8c8c8" stroke="black" '
        f'stroke-width="1"/>',
    ]
    if gmin < 0 < gmax:
        x = sx(Fraction(0))
        lines.append(f'  <line x1="{x:.2f}" y1="0" x2="{x:.2f}" '
                     f'y2="{height}" stroke="black" stroke-width="1"/>')
    if bmin < 0 < bmax:
        y = sy(Fraction(0))
        lines.append(f'  <line x1="0" y1="{y:.2f}" x2="{width}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
