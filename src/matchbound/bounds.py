"""Every matching lower bound the library knows, in exact rationals.

There are two coefficient families for graphs of maximum degree at most k:

* the *general* pair (a, b) with ``alpha' >= a*(n - c) + b*m`` whenever no
  component is k-regular (a + b = 1/k);
* the *density* pair for even k with ``alpha' >= b*m - a*n`` under the same
  hypothesis (k*b - a = 1), stronger on dense graphs.

For connected graphs the additive constants improve. Every bound assumes
maximum degree at most k, so a graph is k-regular exactly when 2m = kn.

On a k-regular graph each bound is capped at floor(n/2), which bounds
alpha' for every graph: each row carries its k, and
:meth:`BoundRow.numerator` reads regularity from that identity rather
than from its caller. This one rule gives the paper's exceptional
constants: for even k the cap binds exactly at the odd n below
(k+2)(k-1)/(k-2) for ``connected_even`` and below (k^2+k+2)/(k-2) for
``connected_even_density`` (k = 4: n = 5, 7 and n = 5, 7, 9), and it
never binds for odd k or for ``connected_even_weak``.

The coefficients are written once, as Fractions, in
:func:`general_coefficients` and :func:`density_coefficients`. Every bound
is affine in n, m and the component count c, so :func:`bound_rows` scales
each one, once per k, to an integer row with
``D*bound = A*n + B*m - C*c - const``. Two more bounds are read off these
rows rather than written again: the reference bound of connected k-regular
graphs, in n alone, is the last connected row at c = 1 and m = kn/2 (for
even k capped by (n-1)/2), and the subcubic profile bound is the general
row at k = 3 over the non-isolated vertices. The general and density
rows' (n, m) coefficients are the extreme points of :mod:`matchbound.region`.

A bound is checked by one integer comparison: :func:`evaluate_bounds`
gives each bound as a :class:`BoundEntry` holding its numerator and scale
D, and :meth:`BoundEntry.margin` is ``D*alpha' - numerator``, zero when
the bound is tight and negative when it exceeds alpha'. Audit and fuzz
both read that margin from :func:`audit_graph`, and a ``Fraction`` is
built only for an entry that is printed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from matchbound.graphs import Graph, clip_field
from matchbound.matching import maximum_matching


class CoefficientSet(NamedTuple):
    a: Fraction
    b: Fraction


def general_coefficients(k: int) -> CoefficientSet:
    """The (a, b) pair of the component-penalized bound a*(n-c) + b*m.

    Defined through epsilon = 2a: a = epsilon/2 and
    b = (2 - k*epsilon)/(2k), so a + b = 1/k always holds.
    """
    if k < 3:
        raise ValueError(
            f"general coefficients need k >= 3, got {clip_field(k)}")
    if k % 2 == 0:
        eps = Fraction(2, k * (k + 1))
    else:
        eps = Fraction(2 * k - 2, k * (k * k - 3))
    return CoefficientSet(eps / 2, Fraction(2 - k * eps, 2 * k))


def density_coefficients(k: int) -> CoefficientSet:
    """The even-k pair (a, b) of the density bound b*m - a*n (k*b - a = 1)."""
    if k < 2 or k % 2:
        raise ValueError(f"density coefficients need even k >= 2, "
                         f"got {clip_field(k)}")
    den = k * k + k + 2
    return CoefficientSet(Fraction(k - 2, den), Fraction(k + 2, den))


class BoundRow(NamedTuple):
    """One bound at one k, scaled to integers by its least denominator.

    ``scale * bound = n_coeff*n + m_coeff*m - c_coeff*c - const``, capped
    at ``scale * (n // 2)`` when 2m = kn (a k-regular graph): the paper's
    exceptional orders are those where the cap binds (module docstring).
    """
    name: str
    k: int
    scale: int
    n_coeff: int
    m_coeff: int
    c_coeff: int
    const: int

    def numerator(self, n: int, m: int, c: int) -> int:
        value = (self.n_coeff * n + self.m_coeff * m - self.c_coeff * c
                 - self.const)
        return (min(value, self.scale * (n // 2)) if 2 * m == self.k * n
                else value)


def _row(name: str, k: int, n_coeff: Fraction, m_coeff: Fraction,
         c_coeff: Fraction = Fraction(0),
         const: Fraction = Fraction(0)) -> BoundRow:
    """Scale the rational bound ``n_coeff*n + m_coeff*m - c_coeff*c - const``
    at k by the least common denominator of its coefficients."""
    values = (n_coeff, m_coeff, c_coeff, const)
    scale = lcm(*(Fraction(v).denominator for v in values))
    return BoundRow(name, k, scale, *(int(v * scale) for v in values))


class BoundRows(NamedTuple):
    """Every bound at one k as integer rows, in audit order."""
    general: BoundRow
    density: BoundRow | None  # even k only
    connected: tuple[BoundRow, ...]
    # the regular reference bound is the least of these; m_coeff and c_coeff
    # are 0 and all share one scale
    reference: tuple[BoundRow, ...]


@lru_cache(maxsize=None)
def bound_rows(k: int) -> BoundRows:
    """The integer rows of every bound at k, read off the two coefficient
    sets once per k; the frozen result is shared."""
    cs = general_coefficients(k)
    general = _row("general", k, cs.a, cs.b, c_coeff=cs.a)
    if k % 2:
        density = None
        connected = (_row("connected_odd", k, cs.a, cs.b, const=cs.a),)
        cap = ()
    else:
        ds = density_coefficients(k)
        density = _row("density", k, -ds.a, ds.b)
        connected = (
            _row("connected_even", k, cs.a, cs.b, const=cs.a),  # 1/(k(k+1))
            _row("connected_even_weak", k, cs.a, cs.b, const=Fraction(1, k)),
            density._replace(name="connected_even_density"),
        )
        # (n-1)/2 on the reference's scale, twice the density row's
        cap = (BoundRow("regular_reference", k, 2 * density.scale,
                        density.scale, 0, 0, density.scale),)
    # The regular reference: 2*D*bound of the last connected row (scale D)
    # at c = 1 and m = k*n/2, and for even k the (n-1)/2 cap.
    last = connected[-1]
    reference = (BoundRow("regular_reference", k, 2 * last.scale,
                          2 * last.n_coeff + k * last.m_coeff, 0, 0,
                          2 * (last.c_coeff + last.const)), *cap)
    return BoundRows(general, density, connected, reference)


def connected_lower_bounds(n: int, m: int, k: int
                           ) -> list[tuple[str, Fraction]]:
    """The improved bounds for a connected graph, as (name, value) pairs.

    On a k-regular graph (2m = kn) each is capped at floor(n/2), which
    weakens the strong and density bounds at a handful of small odd
    orders. Odd k yields one bound, even k three (the strong constant, the
    weak constant that the cap never touches, and the density form).
    """
    return [(row.name, Fraction(row.numerator(n, m, 1), row.scale))
            for row in bound_rows(k).connected]


def format_decimal(x: Fraction) -> str:
    """Round-half-even decimal string with five places, rounded once and
    exactly at any magnitude (``round`` of a Fraction ties to even)."""
    q = round(x * 100000)
    sign = "-" if q < 0 else ""
    return f"{sign}{abs(q) // 100000}.{abs(q) % 100000:05d}"


class BoundEntry(NamedTuple):
    """One bound on one graph: numerator/scale, or a None numerator and
    the reason its hypotheses fail."""
    name: str
    reason: str  # why not applicable; empty when applicable
    numerator: int | None
    scale: int

    @property
    def value(self) -> Fraction | None:
        if self.numerator is None:
            return None
        return Fraction(self.numerator, self.scale)

    def margin(self, alpha: int) -> int | None:
        """``scale * alpha - numerator``: 0 when alpha meets the bound
        exactly, negative when the bound exceeds alpha, None when the
        bound does not apply."""
        if self.numerator is None:
            return None
        return self.scale * alpha - self.numerator


class BoundReport(NamedTuple):
    alpha: int
    entries: tuple[BoundEntry, ...]

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries
                     if (e.margin(self.alpha) or 0) < 0)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def evaluate_bounds(g: Graph, k: int) -> list[BoundEntry]:
    """Every bound at k for g, in audit order.

    Applicability (connectivity, per-component regularity, parity, degree
    caps) is checked here so callers cannot apply a bound outside its
    hypotheses: an inapplicable entry has numerator None and a reason.
    """
    if k < 3:
        raise ValueError(f"audit needs k >= 3, got {clip_field(k)}")
    structure = g.structure
    if structure.max_degree > k:
        raise ValueError(
            f"maximum degree {structure.max_degree} exceeds k={k}")
    n = g.vertex_count
    m = g.edge_count
    c = structure.component_count
    # why a hypothesis fails; empty when it holds
    has_regular_part = ("k-regular component present"
                        if k in structure.component_degree else "")
    disconnected = "" if c == 1 else "graph is not connected"
    empty = "" if n >= 1 else "empty graph"
    # a connected graph with a k-regular component is k-regular
    not_regular = ("" if has_regular_part and not disconnected
                   else "graph is not connected and k-regular")
    cubic_reason = empty or ("maximum degree exceeds 3"
                             if structure.max_degree > 3 else "")

    rows = bound_rows(k)
    pairs = [(rows.general, has_regular_part or empty),
             (rows.density, has_regular_part),
             *((row, disconnected) for row in rows.connected)]
    out = [BoundEntry(row.name, reason,
                      None if reason else row.numerator(n, m, c), row.scale)
           for row, reason in pairs if row is not None]
    # The floor(n/2) cap moves neither entry below: on a k-regular graph
    # the least reference row is at most connected_odd (odd k), whose cap
    # never binds, or (n-1)/2 (even k); the k = 3 general row at m = 3n'/2
    # is (4n' - c)/9, below n'/2.
    ref = rows.reference
    out.append(BoundEntry(ref[0].name, not_regular, None if not_regular else
                          min(row.numerator(n, m, c) for row in ref),
                          ref[0].scale))
    # with n_d vertices of degree d, 2*n1 + 3*n2 + 4*n3 = (n - n0) + 2*m
    cubic = bound_rows(3).general
    out.append(BoundEntry(
        "subcubic_profile", cubic_reason,
        None if cubic_reason else cubic.numerator(
            n - structure.component_sizes.count(1), m, c),
        cubic.scale))
    return out


def audit_graph(g: Graph, k: int) -> BoundReport:
    """Every bound of :func:`evaluate_bounds` against alpha'(g).

    The bounds are evaluated first, so a bad k or degree fails before the
    matching search.
    """
    entries = tuple(evaluate_bounds(g, k))
    return BoundReport(maximum_matching(g).size, entries)
