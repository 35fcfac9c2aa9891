"""Every matching lower bound the library knows, in exact rationals.

There are two coefficient families for graphs of maximum degree at most k:

* the *general* pair (a, b) with ``alpha' >= a*(n - c) + b*m`` whenever no
  component is k-regular (a + b = 1/k);
* the *density* pair for even k with ``alpha' >= b*m - a*n`` under the same
  hypothesis (k*b - a = 1), stronger on dense graphs.

For connected graphs the additive constants improve, with exceptional
constants for k-regular graphs of a few small orders. Every bound assumes
maximum degree at most k, so a graph is k-regular exactly when 2m = kn,
and regularity is read from that identity rather than passed in.

The coefficients are written once, as Fractions, in
:func:`general_coefficients` and :func:`density_coefficients`. Every bound
is affine in n, m and the component count c, so :func:`bound_rows` scales
each one, once per k, to an integer row with
``D*bound = A*n + B*m - C*c - const``. Two more bounds are read off these
rows rather than written again: the reference bound of connected k-regular
graphs, in n alone, is the last connected row at c = 1 and m = kn/2 (for
even k capped by (n-1)/2), and the subcubic profile bound is the general
row at k = 3 over the non-isolated vertices.

A bound is checked by one integer comparison, ``D*alpha' >= A*n + B*m -
C*c - const``: :func:`evaluate_bounds` gives each bound's numerator and
scale D, the fuzzer compares them with alpha' directly, and a ``Fraction``
is built only for an entry that is printed, in :func:`audit_graph`, which
reports the slack of each bound against the true matching number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from matchbound.graphs import Graph, components, degree_profile, is_k_regular
from matchbound.matching import maximum_matching


class CoefficientSet(NamedTuple):
    a: Fraction
    b: Fraction


@lru_cache(maxsize=None)
def general_coefficients(k: int) -> CoefficientSet:
    """The (a, b) pair of the component-penalized bound a*(n-c) + b*m.

    Defined through epsilon = 2a: a = epsilon/2 and
    b = (2 - k*epsilon)/(2k), so a + b = 1/k always holds. Computed once
    per k; the frozen result is shared.
    """
    if k < 3:
        raise ValueError(f"general coefficients need k >= 3, got {k}")
    if k % 2 == 0:
        eps = Fraction(2, k * (k + 1))
    else:
        eps = Fraction(2 * k - 2, k * (k * k - 3))
    return CoefficientSet(eps / 2, Fraction(2 - k * eps, 2 * k))


@lru_cache(maxsize=None)
def density_coefficients(k: int) -> CoefficientSet:
    """The even-k pair (a, b) of the density bound b*m - a*n (k*b - a = 1).

    Computed once per k; the frozen result is shared.
    """
    if k < 2 or k % 2:
        raise ValueError(f"density coefficients need even k >= 2, got {k}")
    den = k * k + k + 2
    return CoefficientSet(Fraction(k - 2, den), Fraction(k + 2, den))


class BoundRow(NamedTuple):
    """One bound at one k, scaled to integers by its least denominator.

    ``scale * bound = n_coeff*n + m_coeff*m - c_coeff*c - const``, except
    that a k-regular graph whose order is listed in ``regular_consts``
    subtracts the constant paired with it (the paper's exceptional orders).
    """
    name: str
    scale: int
    n_coeff: int
    m_coeff: int
    c_coeff: int
    const: int
    regular_consts: tuple[tuple[int, int], ...] = ()

    def numerator(self, n: int, m: int, c: int, regular: bool) -> int:
        const = self.const
        if regular:
            const = dict(self.regular_consts).get(n, const)
        return self.n_coeff * n + self.m_coeff * m - self.c_coeff * c - const


def _row(name: str, n_coeff: Fraction, m_coeff: Fraction,
         c_coeff: Fraction = Fraction(0), const: Fraction = Fraction(0),
         regular: dict[int, Fraction] | None = None) -> BoundRow:
    """Scale the rational bound ``n_coeff*n + m_coeff*m - c_coeff*c - const``
    (with ``regular`` mapping an order to its exceptional constant) by the
    least common denominator of all its values."""
    regular = regular or {}
    values = (n_coeff, m_coeff, c_coeff, const, *regular.values())
    scale = lcm(*(Fraction(v).denominator for v in values))
    n_, m_, c_, const_, *alt = (int(v * scale) for v in values)
    return BoundRow(name, scale, n_, m_, c_, const_,
                    tuple(zip(regular, alt)))


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
    general = _row("general", cs.a, cs.b, c_coeff=cs.a)
    if k % 2:
        density = None
        connected = (_row("connected_odd", cs.a, cs.b, const=cs.a),)
    else:
        ds = density_coefficients(k)
        den = k * k + k + 2
        dense = {k + 1: Fraction(k + 2, den), k + 3: Fraction(4, den)}
        if k == 4:
            dense[9] = Fraction(2, den)
        density = _row("density", -ds.a, ds.b)
        connected = (
            _row("connected_even", cs.a, cs.b, const=Fraction(1, k * (k + 1)),
                 regular={k + 1: Fraction(1, k),
                          k + 3: Fraction(3, k * (k + 1))}),
            _row("connected_even_weak", cs.a, cs.b, const=Fraction(1, k)),
            _row("connected_even_density", -ds.a, ds.b, regular=dense),
        )
    # The regular reference: 2*D*bound of the last connected row (scale D)
    # at c = 1 and m = k*n/2, its regular exceptions left out, and for even
    # k the (n-1)/2 cap on the same scale.
    last = connected[-1]
    scale = 2 * last.scale
    reference = (BoundRow("regular_reference", scale,
                          2 * last.n_coeff + k * last.m_coeff, 0, 0,
                          2 * (last.c_coeff + last.const)),)
    if k % 2 == 0:
        reference += (BoundRow("regular_reference", scale, last.scale, 0, 0,
                               last.scale),)
    return BoundRows(general, density, connected, reference)


def connected_lower_bounds(n: int, m: int, k: int
                           ) -> list[tuple[str, Fraction]]:
    """The improved bounds for a connected graph, as (name, value) pairs.

    A k-regular graph (2m = kn) of one of a handful of small orders gets
    weaker additive constants. Odd k yields one bound, even k three (the
    strong constant, the weak constant that needs no exceptions, and the
    density form).
    """
    regular = 2 * m == n * k
    return [(row.name, Fraction(row.numerator(n, m, 1, regular), row.scale))
            for row in bound_rows(k).connected]


def format_decimal(x: Fraction) -> str:
    """Round-half-even decimal string with five places, rounded once and
    exactly at any magnitude (``round`` of a Fraction ties to even)."""
    q = abs(round(x * 100000))
    sign = "-" if x < 0 else ""
    return f"{sign}{q // 100000}.{q % 100000:05d}"


class BoundEntry(NamedTuple):
    name: str
    reason: str  # why not applicable; empty when applicable
    value: Fraction | None
    slack: Fraction | None

    @property
    def applicable(self) -> bool:
        return self.value is not None

    @property
    def tight(self) -> bool:
        return self.slack == 0

    @property
    def violated(self) -> bool:
        return self.slack is not None and self.slack < 0


class BoundReport(NamedTuple):
    alpha: int
    entries: tuple[BoundEntry, ...]

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.violated)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


# (name, reason, numerator, scale): see evaluate_bounds
Evaluation = tuple[str, str, int | None, int]


def evaluate_bounds(g: Graph, k: int) -> list[Evaluation]:
    """Every bound at k for g as (name, reason, numerator, scale), in order.

    The bound is numerator/scale, so alpha'(g) meets it exactly when
    ``scale * alpha' >= numerator``. Applicability (connectivity,
    per-component regularity, parity, degree caps) is checked here so
    callers cannot apply a bound outside its hypotheses: an inapplicable
    entry has numerator None and a reason.
    """
    if k < 3:
        raise ValueError(f"audit needs k >= 3, got {k}")
    profile = degree_profile(g)
    if profile.max_degree > k:
        raise ValueError(
            f"maximum degree {profile.max_degree} exceeds k={k}")
    n = g.vertex_count
    m = g.edge_count
    c = components(g).component_count
    regular = 2 * m == n * k
    # why a hypothesis fails; empty when it holds
    has_regular_part = ("k-regular component present"
                        if any(is_k_regular(g, k).per_component) else "")
    disconnected = "" if c == 1 else "graph is not connected"
    empty = "" if n >= 1 else "empty graph"

    def entry(row: BoundRow, reason: str) -> Evaluation:
        numerator = None if reason else row.numerator(n, m, c, regular)
        return row.name, reason, numerator, row.scale

    rows = bound_rows(k)
    out = [entry(rows.general, has_regular_part or empty)]
    if rows.density is not None:
        out.append(entry(rows.density, has_regular_part))
    out.extend(entry(row, disconnected) for row in rows.connected)

    ref = rows.reference
    if disconnected or not regular:
        out.append(entry(ref[0], "graph is not connected and k-regular"))
    else:
        out.append((ref[0].name, "",
                    min(row.numerator(n, m, c, False) for row in ref),
                    ref[0].scale))

    cubic_reason = empty or ("maximum degree exceeds 3"
                             if profile.max_degree > 3 else "")
    cubic = None
    cubic_row = bound_rows(3).general
    if not cubic_reason:
        # with n_d vertices of degree d, 2*n1 + 3*n2 + 4*n3 = (n - n0) + 2*m
        isolated = profile.component_sizes.count(1)
        cubic = cubic_row.numerator(n - isolated, m, c, False)
    out.append(("subcubic_profile", cubic_reason, cubic, cubic_row.scale))
    return out


def audit_graph(g: Graph, k: int) -> BoundReport:
    """Evaluate every bound whose hypotheses hold for g against alpha'(g).

    The entries are those of :func:`evaluate_bounds`; only here does an
    applicable bound become a Fraction, with its slack.
    """
    evaluated = evaluate_bounds(g, k)
    alpha = maximum_matching(g).size
    entries = []
    for name, reason, numerator, scale in evaluated:
        if numerator is None:
            entries.append(BoundEntry(name, reason, None, None))
        else:
            value = Fraction(numerator, scale)
            entries.append(BoundEntry(name, "", value, alpha - value))
    return BoundReport(alpha, tuple(entries))
