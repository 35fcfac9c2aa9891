"""Seeded random generation of connected bounded-degree graphs, batch auditing.

Each trial derives its own 64-bit state from (seed, trial index) with a
splitmix64-style mixer, so trials are order-independent and a config
reproduces byte-identically. Graphs are built spanning-tree-first (every
new vertex attaches to an existing one with spare degree, which always
exists for k >= 2, drawn from a list of those vertices that is kept in
increasing order as degrees grow), then sprinkled with extra edges
rejected at the degree cap. With forbid_regular set, a sample that
lands exactly k-regular (read as 2m = kn, since no degree exceeds k) has
its first non-bridge edge (in sorted order) removed; a connected k-regular
graph with k >= 2 contains a cycle, so one always exists.

A trial checks each bound as one integer comparison, ``D*alpha' >=
numerator``, on the scaled rows of :func:`matchbound.bounds.evaluate_bounds`;
it builds no ``Fraction``, which only printed audit entries need.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from matchbound.bounds import evaluate_bounds
from matchbound.edgelist import emit_edge_list
from matchbound.graphs import MAX_VERTICES, Graph, build_graph, components
from matchbound.matching import maximum_matching

_MASK64 = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """splitmix64 output for stream `seed` at position `index`."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class FuzzConfig:
    k: int
    trials: int
    max_n: int
    seed: int
    forbid_regular_components: bool = True

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 2 <= self.max_n <= MAX_VERTICES:
            raise ValueError(f"max_n must be in 2..{MAX_VERTICES}, "
                             f"got {self.max_n}")


@dataclass(frozen=True)
class FuzzViolation:
    seed: int
    trial: int
    graph: Graph
    bound: str


@dataclass
class FuzzOutcome:
    trials_run: int
    violations: list[FuzzViolation] = field(default_factory=list)
    tight_hits: dict[str, int] = field(default_factory=dict)

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
    nbrs: list[set[int]] = [set() for _ in range(n)]

    spare = [0]  # vertices below v with degree < k, in increasing order
    for v in range(1, n):
        u = rng.choice(spare)
        nbrs[u].add(v)
        nbrs[v].add(u)
        if len(nbrs[u]) == k:
            spare.remove(u)
        if k > 1:  # v has degree 1
            spare.append(v)

    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or v in nbrs[u] or max(len(nbrs[u]), len(nbrs[v])) >= k:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)

    g = build_graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])
    if forbid_regular and 2 * g.edge_count == n * k:
        g = _drop_non_bridge(g)
    return g


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
