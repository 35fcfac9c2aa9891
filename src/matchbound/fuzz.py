"""Seeded random generation of connected bounded-degree graphs, batch auditing.

Trial t of a run reads positions 2t and 2t + 1 of the seed's splitmix64
stream (:func:`_mix`): its order ``n = 2 + _mix(seed, 2t) % (max_n - 1)``
and its sample's seed ``_mix(seed, 2t + 1)``. So a trial depends on
(seed, t) alone, not on the run's length or on other trials, and a config
reproduces byte-identically. As max_n <= 10^5, the modulo bias of the
order is below 10^-14. The one generator a trial sets up is its sample's,
``_random.Random`` (the C base class of ``random.Random``; both seed an int
by the same ``init_by_array``). Graphs are built spanning-tree-first
(every new vertex attaches to an existing one with spare degree, which
always exists for k >= 2, drawn from a list of those vertices that is kept
in increasing order as degrees grow), then sprinkled with extra edges
rejected as loops, at the degree cap or as duplicates. A sample is kept as
drawn, one list of neighbours per vertex (a degree is a list's length, a
duplicate is found in it), and :func:`matchbound.graphs.freeze` takes the
sorted lists with no second pass over the edges. Each draw calls the
generator's ``getrandbits`` in the rejection loop of ``randrange``, so a
sample takes the same numbers from the same stream as the library's
``choice``, ``randrange`` and ``randint`` would. With forbid_regular set,
a sample that lands exactly k-regular (read as 2m = kn, since no degree
exceeds k) has its first non-bridge edge (in sorted order) removed; a
connected k-regular graph with k >= 2 contains a cycle, so one always
exists.

A trial is one :func:`matchbound.bounds.audit_graph` call, the same audit
that ``matchbound audit`` prints: a bound with a negative margin is a
violation and one with a zero margin a tight hit. It builds no
``Fraction``, which only printed audit entries need. :func:`run_fuzz`
returns its findings as a plain :class:`FuzzOutcome` record, which
:mod:`matchbound.cli` writes as JSON.
"""

from __future__ import annotations

import _random
from collections import namedtuple
from typing import Callable, NamedTuple

from matchbound.bounds import audit_graph
from matchbound.graphs import (Graph, build_graph, clip_field, components,
                               freeze)

_MASK64 = (1 << 64) - 1
# Largest order a fuzz sample may have. At n = 10^5 (seed 777) one sample
# takes 0.2-0.46 s at k = 3..10 and peaks at 151 (k = 3) to 213 (k = 7) bytes
# per vertex, while matching it and evaluating its bounds takes 2.8-3.6 s at
# k = 3..5 and 5.2-6.5 s at k = 6..10 (tracemalloc; 2-vCPU Xeon, Python
# 3.11), so the limit is held by the matching, not by the sampler.
MAX_FUZZ_ORDER = 10 ** 5


def _mix(seed: int, index: int) -> int:
    """splitmix64 output for stream `seed` at position `index`."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class FuzzConfig(namedtuple("FuzzConfig", "k trials max_n seed "
                            "forbid_regular_components", defaults=(True,))):
    """Checked on construction. The seed must fit in 64 bits: :func:`_mix`
    reads no more, so seeds 2**64 apart would run the same trials."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FuzzConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 2 <= self.max_n <= MAX_FUZZ_ORDER:
            raise ValueError(f"max_n must be in 2..{MAX_FUZZ_ORDER}, the "
                             f"fuzz order limit, got {self.max_n}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in 0..2**64 - 1, "
                             f"got {clip_field(self.seed)}")
        return self


class FuzzViolation(NamedTuple):
    seed: int
    trial: int
    graph: Graph
    bound: str


class FuzzOutcome(NamedTuple):
    """What a run found: ``trials_run``, the trial count; ``violations``,
    one :class:`FuzzViolation` per negative margin, in trial order; and
    ``tight_hits``, the number of zero margins per bound name."""
    trials_run: int
    violations: list[FuzzViolation]
    tight_hits: dict[str, int]


def random_connected_bounded(g_seed: int, n: int, k: int,
                             forbid_regular: bool = False) -> Graph:
    """A seeded connected graph on n vertices with maximum degree <= k.

    Deterministic in (g_seed, n, k, forbid_regular). With forbid_regular,
    the result is additionally never k-regular.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > 2 and k < 2:
        raise ValueError(
            f"no connected graph on {n} vertices has maximum degree <= {k}")
    if forbid_regular and n == 2 and k == 1:
        raise ValueError(
            f"the only connected option on {n} vertices is {k}-regular")

    bits = _random.Random(g_seed & _MASK64).getrandbits
    adj: list[list[int]] = [[] for _ in range(n)]  # neighbours, as drawn

    spare = [0]  # vertices below v with degree < k, in increasing order
    for v in range(1, n):
        s = len(spare)  # choice(spare): _below(bits, s), inline
        w = s.bit_length()
        i = bits(w)
        while i >= s:
            i = bits(w)
        u = spare[i]
        adj[u].append(v)
        adj[v].append(u)
        if len(adj[u]) == k:
            del spare[i]
        spare.append(v)

    w = n.bit_length()
    for _ in range(_below(bits, 2 * n + 1)):  # randint(0, 2n)
        u = bits(w)  # randrange(n): _below(bits, n), inline
        while u >= n:
            u = bits(w)
        v = bits(w)
        while v >= n:
            v = bits(w)
        if u == v or len(adj[u]) >= k or len(adj[v]) >= k or v in adj[u]:
            continue
        adj[u].append(v)
        adj[v].append(u)

    for nbrs in adj:
        nbrs.sort()
    g = freeze(adj)
    if forbid_regular and 2 * g.edge_count == n * k:
        g = _drop_non_bridge(g)
    return g


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), n >= 1, with ``bits`` a generator's getrandbits.

    This is CPython's ``Random._randbelow``, through which ``randrange(n)``,
    ``choice(seq)`` and ``randint(a, b)`` all draw, so it takes the same
    numbers from the stream in one C call each. The sampler draws
    ``randint(0, 2 * n)`` as ``_below(bits, 2 * n + 1)``, and writes
    ``choice(spare)`` and ``randrange(n)`` as this loop inline.
    """
    w = n.bit_length()
    r = bits(w)
    while r >= n:
        r = bits(w)
    return r


def _drop_non_bridge(g: Graph) -> Graph:
    """Remove the first edge (sorted order) whose removal keeps g connected."""
    edge_list = g.edges()
    for skip in edge_list:
        trimmed = [e for e in edge_list if e != skip]
        candidate = build_graph(g.vertex_count, trimmed)
        if components(candidate).component_count == 1:
            return candidate
    raise AssertionError("regular connected graph with no cycle edge")


def run_fuzz(config: FuzzConfig) -> FuzzOutcome:
    violations: list[FuzzViolation] = []
    tight_hits: dict[str, int] = {}
    seed, span = config.seed, config.max_n - 1
    for trial in range(config.trials):
        n = 2 + _mix(seed, 2 * trial) % span
        g = random_connected_bounded(_mix(seed, 2 * trial + 1), n, config.k,
                                     config.forbid_regular_components)

        if components(g).component_count != 1:
            raise AssertionError(f"trial {trial}: sample is disconnected")

        report = audit_graph(g, config.k)
        for e in report.entries:
            margin = e.margin(report.alpha)
            if margin == 0:
                tight_hits[e.name] = tight_hits.get(e.name, 0) + 1
            elif margin is not None and margin < 0:
                violations.append(FuzzViolation(config.seed, trial, g, e.name))
    return FuzzOutcome(config.trials, violations, tight_hits)
