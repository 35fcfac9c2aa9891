"""The convex set of valid (gamma, beta) coefficient pairs, per degree cap k.

A pair (gamma, beta) is *good* for k if alpha'(G) >= gamma*n + beta*m - K
holds with some constant K over all connected graphs with maximum degree at
most k. The good set is the intersection of closed half-spaces of the form
beta <= slope*gamma + intercept: two of them for odd k, three for even k.
The paper's bounds describe this set completely, so it is read from their
coefficients in :mod:`matchbound.bounds`: each cap passes through one of
its extreme points, the bounds' own coefficient pairs.

Coordinates are exact rationals throughout; a point is a (gamma, beta)
tuple of Fractions, written (a, b) in the transform rules below.

Two classifiers are provided: :func:`classify_pair` implements the
piecewise case analysis, :func:`classify_pair_geometric` just checks every
half-space. They agree everywhere; keeping both allows one to audit the
other. Boundary points are classified good (the half-spaces are closed),
and :func:`tight_family_for` names the graph families that meet the bound
with bounded slack along each boundary piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from matchbound.bounds import density_coefficients, general_coefficients
from matchbound.families import (GeneratedGraph, block_chain, canonical_tree,
                                 regular_gadget_ring, tree_with_gadgets)

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class HalfSpace:
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
    """The general pair (a, b), where the tree cap (m = n - 1) ends; for even
    k also the density pair as (-a, b), where the k-regular cap (m = k*n/2)
    ends. Larger gamma first.
    """
    if k < 3:
        raise ValueError(f"extreme_points needs k >= 3, got {k}")
    cs = general_coefficients(k)
    if k % 2:
        return [(cs.a, cs.b)]
    ds = density_coefficients(k)
    return [(cs.a, cs.b), (-ds.a, ds.b)]


def intersect_boundaries(h1: HalfSpace, h2: HalfSpace) -> Point:
    """The point where two boundary lines meet (they must not be parallel)."""
    if h1.slope == h2.slope:
        raise ValueError("boundary lines are parallel")
    gamma = (h2.intercept - h1.intercept) / (h1.slope - h2.slope)
    return gamma, h1.slope * gamma + h1.intercept


def classify_pair(k: int, p: Point) -> bool:
    """True iff (gamma, beta) is good for k, by piecewise case analysis."""
    if k < 3:
        raise ValueError(f"classify_pair needs k >= 3, got {k}")
    gamma, beta = p
    if k % 2:
        ((a_star, b_star),) = extreme_points(k)
        if gamma <= a_star:
            return beta <= b_star + Fraction(2, k) * (a_star - gamma)
        return beta <= b_star + (a_star - gamma)
    (a1, b1), (a2, b2) = extreme_points(k)
    if gamma <= a2:
        return beta <= b2 + Fraction(2, k) * (a2 - gamma)
    if gamma > a1:
        return beta <= b1 + (a1 - gamma)
    return beta <= b2 + (b1 - b2) * (gamma - a2) / (a1 - a2)


def classify_pair_geometric(k: int, p: Point) -> bool:
    """True iff (gamma, beta) lies in every bounding half-space."""
    return all(h.contains(p) for h in half_spaces(k))


def transform_good_pair(k: int, p: Point, rule: str, eps: Fraction,
                        other: Point | None = None) -> Point:
    """Apply a goodness-preserving transformation to a coefficient pair.

    rules (eps >= 0, rationals):
      shift_down     -> (a, b - eps)
      tree_shear     -> (a + eps, b - eps)
      regular_shear  -> (a - eps*k, b + 2*eps)
      mix            -> eps*p + (1 - eps)*other, 0 <= eps <= 1
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    a, b = p
    if rule == "shift_down":
        return a, b - eps
    if rule == "tree_shear":
        return a + eps, b - eps
    if rule == "regular_shear":
        return a - eps * k, b + 2 * eps
    if rule == "mix":
        if other is None:
            raise ValueError("mix rule needs a second point")
        if eps > 1:
            raise ValueError(f"mix needs 0 <= eps <= 1, got {eps}")
        a2, b2 = other
        return eps * a + (1 - eps) * a2, eps * b + (1 - eps) * b2
    raise ValueError(f"unknown rule {rule!r}")


@dataclass(frozen=True)
class TightnessWitness:
    """A graph family meeting a boundary bound with a fixed constant.

    kinds: "trees" (tree members; parity picks the generator),
    "gadget_chain" (all-gadget block chains, even k only), and
    "regular" (connected k-regular members). instantiate(i) yields the
    i-th smallest member, i = 1, 2, 3, ...
    """
    kind: str
    k: int

    def instantiate(self, index: int) -> GeneratedGraph:
        if index < 1:
            raise ValueError(f"index must be >= 1, got {index}")
        k = self.k
        if self.kind == "trees":
            if k % 2 == 0:
                return block_chain(k, index, "singles")
            return tree_with_gadgets(k, canonical_tree(k, index, "tree"))
        if self.kind == "gadget_chain":
            return block_chain(k, index, "gadgets")
        if self.kind == "regular":
            if k % 2 == 0:
                return regular_gadget_ring(k, index)
            return tree_with_gadgets(
                k, canonical_tree(k, (k - 1) * index + 1, "regular"))
        raise ValueError(f"unknown witness kind {self.kind!r}")


def tight_family_for(k: int, p: Point) -> list[TightnessWitness]:
    """Witness families for a boundary point; empty if p is not on the boundary.

    A point on the unit-slope cap is met by trees; on the regular-density
    cap by connected k-regular members; on the even-k connecting cap by
    all-gadget chains. Extreme points lie on two caps and get both
    witnesses.
    """
    if not classify_pair_geometric(k, p):
        return []
    caps = half_spaces(k)
    witnesses: list[TightnessWitness] = []
    if caps[0].on_boundary(p):
        witnesses.append(TightnessWitness("trees", k))
    if k % 2:
        if caps[1].on_boundary(p):
            witnesses.append(TightnessWitness("regular", k))
    else:
        if caps[2].on_boundary(p):
            witnesses.append(TightnessWitness("gadget_chain", k))
        if caps[1].on_boundary(p):
            witnesses.append(TightnessWitness("regular", k))
    return witnesses


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
        if not poly:
            break
    deduped: list[Point] = []
    for q in poly:
        if not deduped or q != deduped[-1]:
            deduped.append(q)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def _clip(poly: list[Point], cap: HalfSpace) -> list[Point]:
    out: list[Point] = []
    for i, cur in enumerate(poly):
        nxt = poly[(i + 1) % len(poly)]
        cur_in = cap.contains(cur)
        nxt_in = cap.contains(nxt)
        if cur_in:
            out.append(cur)
            if not nxt_in:
                out.append(_cross(cur, nxt, cap))
        elif nxt_in:
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
