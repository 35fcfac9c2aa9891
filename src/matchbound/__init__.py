"""Matching numbers and exact lower bounds for bounded-degree graphs.

The package has four layers:

* :mod:`matchbound.graphs` / :mod:`matchbound.matching` — simple-graph
  plumbing, a blossom-contraction maximum matching, and an exhaustive
  deficiency-formula minimizer used as an independent oracle.
* :mod:`matchbound.bounds` — every lower bound on the matching number that
  the library knows, checked exactly as scaled integers, plus a one-shot
  per-graph audit whose printed entries are Fractions.
* :mod:`matchbound.families` — deterministic generators for the extremal
  families that meet those bounds with equality.
* :mod:`matchbound.region` / :mod:`matchbound.fuzz` — the convex set of
  valid (gamma, beta) bound coefficients, and a seeded fuzzer that hunts
  for bound violations.

``matchbound.cli`` exposes all of it on the command line.
"""

from matchbound.graphs import Graph, build_graph
from matchbound.matching import maximum_matching, tutte_berge

__all__ = ["Graph", "build_graph", "maximum_matching", "tutte_berge"]

__version__ = "0.1.0"
