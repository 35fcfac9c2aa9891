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
Connected k-regular graphs additionally have a reference bound in n
alone, and subcubic graphs a bound from the degree counts.
:func:`audit_graph` evaluates everything that applies to a given graph
and reports the slack of each bound against the true matching number.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from functools import lru_cache
from math import lcm

from matchbound.graphs import Graph, components, degree_profile, is_k_regular
from matchbound.matching import maximum_matching


@dataclass(frozen=True)
class CoefficientSet:
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


def lower_bound_general(n: int, m: int, c: int, k: int) -> Fraction:
    """a*(n - c) + b*m; valid when no component is k-regular."""
    cs = general_coefficients(k)
    return cs.a * (n - c) + cs.b * m


def lower_bound_density(n: int, m: int, k: int) -> Fraction:
    """b*m - a*n for even k; valid when no component is k-regular."""
    cs = density_coefficients(k)
    return cs.b * m - cs.a * n


def connected_lower_bounds(n: int, m: int, k: int
                           ) -> list[tuple[str, Fraction]]:
    """The improved bounds for a connected graph, as (name, value) pairs.

    A k-regular graph (2m = kn) of one of a handful of small orders gets
    weaker additive constants. Odd k yields one bound, even k three (the
    strong constant, the weak constant that needs no exceptions, and the
    density form).
    """
    if k < 3:
        raise ValueError(f"connected bounds need k >= 3, got {k}")
    regular_n = n if 2 * m == n * k else None
    cs = general_coefficients(k)
    if k % 2:
        return [("connected_odd", cs.a * n + cs.b * m - cs.a)]

    strong_const = Fraction(1, k * (k + 1))
    if regular_n == k + 1:
        strong_const = Fraction(1, k)
    elif regular_n == k + 3:
        strong_const = Fraction(3, k * (k + 1))

    ds = density_coefficients(k)
    density_const = Fraction(0)
    if regular_n == k + 1:
        density_const = Fraction(k + 2, k * k + k + 2)
    elif regular_n == k + 3:
        density_const = Fraction(4, k * k + k + 2)
    elif k == 4 and regular_n == 9:
        density_const = Fraction(2, k * k + k + 2)

    return [
        ("connected_even", cs.a * n + cs.b * m - strong_const),
        ("connected_even_weak", cs.a * n + cs.b * m - Fraction(1, k)),
        ("connected_even_density", ds.b * m - ds.a * n - density_const),
    ]


def kregular_reference_pieces(k: int) -> list[tuple[Fraction, Fraction]]:
    """Affine pieces (coeff, const) of the connected k-regular reference bound.

    The bound at order n is the least ``coeff*n + const`` over the pieces:
    the connected bound at m = k*n/2 and, for even k, the (n-1)/2 cap.
    """
    if k % 2 == 0:
        ds = density_coefficients(k)
        return [(ds.b * k / 2 - ds.a, Fraction(0)),
                (Fraction(1, 2), Fraction(-1, 2))]
    cs = general_coefficients(k)
    return [(cs.a + cs.b * k / 2, -cs.a)]


def kregular_reference_bound(n: int, k: int) -> Fraction:
    """Lower bound for a connected k-regular graph of order n."""
    pieces = kregular_reference_pieces(k)
    if n < k + 1 or n * k % 2:
        raise ValueError(f"no k-regular graph has n={n} vertices "
                         f"(needs n >= {k + 1} and n*k even)")
    return min(coeff * n + const for coeff, const in pieces)


def subcubic_degree_bound(n1: int, n2: int, n3: int, c: int) -> Fraction:
    """Degree-count bound for graphs of maximum degree at most 3."""
    if min(n1, n2, n3, c) < 0:
        raise ValueError("degree counts must be non-negative")
    return (Fraction(4 * n3, 9) + Fraction(n2, 3) + Fraction(2 * n1, 9)
            - Fraction(c, 9))


def scaled_bound_row(k: int) -> tuple[int, int, int, int]:
    """Integer-scaled general bound: (D, A, B, C) with D*alpha' >= A*n + B*m - C*c."""
    cs = general_coefficients(k)
    d = lcm(cs.a.denominator, cs.b.denominator)
    a_scaled = cs.a * d
    b_scaled = cs.b * d
    assert a_scaled.denominator == 1 and b_scaled.denominator == 1
    return d, int(a_scaled), int(b_scaled), int(a_scaled)


def format_decimal(x: Fraction) -> str:
    """Round-half-even decimal string with five places."""
    d = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
        Decimal("0.00001"), rounding=ROUND_HALF_EVEN)
    return str(d)


@dataclass(frozen=True)
class BoundEntry:
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


@dataclass(frozen=True)
class BoundReport:
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


def audit_graph(g: Graph, k: int) -> BoundReport:
    """Evaluate every bound whose hypotheses hold for g against alpha'(g).

    Applicability (connectivity, per-component regularity, parity, degree
    caps) is checked here so callers cannot apply a bound outside its
    hypotheses. Inapplicable entries carry the reason.
    """
    if k < 3:
        raise ValueError(f"audit needs k >= 3, got {k}")
    profile = degree_profile(g)
    if profile.max_degree > k:
        raise ValueError(
            f"maximum degree {profile.max_degree} exceeds k={k}")
    n = g.vertex_count
    m = g.edge_count
    parts = components(g)
    c = parts.component_count
    reg = is_k_regular(g, k)
    has_regular_component = any(reg.per_component)
    connected = c == 1
    alpha = maximum_matching(g).size

    entries: list[BoundEntry] = []

    def add(name: str, value: Fraction) -> None:
        entries.append(BoundEntry(name, "", value, alpha - value))

    def skip(name: str, reason: str) -> None:
        entries.append(BoundEntry(name, reason, None, None))

    no_regular = not has_regular_component
    if no_regular and n >= 1:
        add("general", lower_bound_general(n, m, c, k))
    else:
        skip("general",
             "k-regular component present" if not no_regular else "empty graph")

    if k % 2 == 0:
        if no_regular:
            add("density", lower_bound_density(n, m, k))
        else:
            skip("density", "k-regular component present")

    for name, value in connected_lower_bounds(n, m, k):
        if connected:
            add(name, value)
        else:
            skip(name, "graph is not connected")

    if connected and reg.overall:
        add("regular_reference", kregular_reference_bound(n, k))
    else:
        skip("regular_reference", "graph is not connected and k-regular")

    if n >= 1 and profile.max_degree <= 3:
        counts = profile.degree_counts
        add("subcubic_profile",
            subcubic_degree_bound(counts.get(1, 0), counts.get(2, 0),
                                  counts.get(3, 0), c))
    else:
        skip("subcubic_profile",
             "maximum degree exceeds 3" if n >= 1 else "empty graph")

    return BoundReport(alpha, tuple(entries))
