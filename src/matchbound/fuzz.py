"""Seeded random generation of connected bounded-degree graphs, batch auditing.

Each trial derives its own 64-bit state from (seed, trial index) with a
splitmix64-style mixer, so trials are order-independent and a config
reproduces byte-identically. Graphs are built spanning-tree-first (every
new vertex attaches to an existing one with spare degree, which always
exists for k >= 2, drawn from a list of those vertices that is kept in
increasing order as degrees grow), then sprinkled with extra edges
rejected at the degree cap or as duplicates. Each draw calls the
generator's ``getrandbits`` in the rejection loop of ``randrange``, so a
sample takes the same numbers from the same stream as the library's
``choice``, ``randrange`` and ``randint`` would. With forbid_regular set,
a sample that lands exactly k-regular (read as 2m = kn, since no degree
exceeds k) has its first non-bridge edge (in sorted order) removed; a
connected k-regular graph with k >= 2 contains a cycle, so one always
exists.

A trial checks each bound as one integer comparison, ``D*alpha' >=
numerator``, on the scaled rows of :func:`matchbound.bounds.evaluate_bounds`;
it builds no ``Fraction``, which only printed audit entries need.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from itertools import repeat
from typing import Callable, NamedTuple

from matchbound.bounds import evaluate_bounds
from matchbound.edgelist import emit_edge_list
from matchbound.graphs import Graph, build_graph, clip_field, components
from matchbound.matching import maximum_matching

_MASK64 = (1 << 64) - 1
# Largest order a fuzz sample may have. At n = 10^5 (seed 777) one sample
# takes 0.8-1.0 s at k = 3..10 and peaks at 427 (k = 3) to 647 (k = 7) bytes
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


class FuzzOutcome:
    def __init__(self, trials_run: int) -> None:
        self.trials_run = trials_run
        self.violations: list[FuzzViolation] = []
        self.tight_hits: dict[str, int] = {}

    def to_json(self) -> str:
        payload = {
            "trials_run": self.trials_run,
            "violations": [
                {
                    "seed": v.seed,
                    "trial": v.trial,
                    "graph": emit_edge_list(v.graph),
                    "bound": v.bound,
                }
                for v in self.violations
            ],
            "tight_hits": self.tight_hits,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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

    rng = random.Random(g_seed & _MASK64)
    bits = rng.getrandbits
    deg = [0] * n
    keys: set[int] = set()  # u * n + v for each drawn edge, u < v

    spare = [0]  # vertices below v with degree < k, in increasing order
    for v in range(1, n):
        i = _below(bits, len(spare))
        u = spare[i]
        keys.add(u * n + v)
        deg[u] += 1
        deg[v] = 1
        if deg[u] == k:
            del spare[i]
        if k > 1:  # v has spare degree
            spare.append(v)

    w = n.bit_length()
    for _ in range(_below(bits, 2 * n + 1)):
        u = bits(w)
        while u >= n:
            u = bits(w)
        v = bits(w)
        while v >= n:
            v = bits(w)
        if u == v or deg[u] >= k or deg[v] >= k:
            continue
        key = u * n + v if u < v else v * n + u
        if key in keys:
            continue
        keys.add(key)
        deg[u] += 1
        deg[v] += 1

    # sorted keys are the pairs in lexicographic order; with the set dropped
    # and the pairs decoded lazily, only build_graph's list holds tuples
    order = sorted(keys)
    del keys
    g = build_graph(n, map(divmod, order, repeat(n)))
    if forbid_regular and 2 * g.edge_count == n * k:
        g = _drop_non_bridge(g)
    return g


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), n >= 1, with ``bits`` a generator's getrandbits.

    This is CPython's ``Random._randbelow``, through which ``randrange(n)``,
    ``choice(seq)`` and ``randint(a, b)`` all draw, so it takes the same
    numbers from the stream in one C call each.
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
    outcome = FuzzOutcome(trials_run=config.trials)
    for trial in range(config.trials):
        state = _mix(config.seed, trial)
        rng = random.Random(state)
        n = rng.randint(2, config.max_n)
        g = random_connected_bounded(rng.getrandbits(64), n, config.k,
                                     config.forbid_regular_components)

        if components(g).component_count != 1:
            raise AssertionError(f"trial {trial}: sample is disconnected")

        alpha = maximum_matching(g).size
        for name, _, numerator, scale in evaluate_bounds(g, config.k):
            if numerator is None:
                continue
            if scale * alpha < numerator:
                outcome.violations.append(
                    FuzzViolation(config.seed, trial, g, name))
            elif scale * alpha == numerator:
                outcome.tight_hits[name] = outcome.tight_hits.get(name, 0) + 1
    return outcome
