"""The benchmark's three closed-loop workloads.

Each workload turns the workload seed into rounds of ops.  An op is one or
more ``matchbound`` CLI invocations; the program sees only the generated
files and the flags.  Every round has the same mix of sizes and kinds, so a
run that completes whole rounds samples the same latency distribution
whatever the seed.

* ``extremal-solve`` - ``matching FILE`` then ``audit FILE --k K --json OUT``
  on an extremal family member of n = 100..1000 vertices.  Blossom matching
  takes almost all of each op.  Every op has its own instance.
* ``fuzz-sweep`` - ``fuzz --k K --trials 200 --max-n N --seed S``.  Thousands
  of tiny graphs: generation, structure passes and Fraction arithmetic.
* ``oracle-certify`` - ``tutte-berge FILE`` then ``matching FILE`` on a
  seeded connected graph of n = 10..16.  The 2^n oracle takes almost all of
  each op.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Op:
    """One op: the CLI invocations it makes and what its checks expect."""
    key: str
    calls: list[list[str]]
    expect: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)  # outputs in the digest
    # input files written just before the op runs, outside its latency
    inputs: dict[str, str] = field(default_factory=dict)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


class ExtremalSolve:
    name = "extremal-solve"
    why = ("matching then audit on distinct extremal family members, "
           "n = 100..1000: blossom matching dominates")
    # small enough that the whole pool runs within the timed phase even when
    # the machine is slow: which round a cut-off drops would change p90
    rounds_in_pool = 5
    trace_rounds = 1
    per_variant = 20

    # family, k, construct flags, r range giving n of about 100..1000, step
    # between valid r (hkr regular needs r = 1 mod k-1, so k=5 has only 9)
    VARIANTS = (
        ("gkr", 4, ["--blocks", "gadgets"], 6, 62, 1),
        ("gkr", 4, ["--blocks", "singles"], 25, 250, 1),
        ("gkr", 4, ["--blocks", "pattern"], 10, 100, 1),
        ("gkr", 6, ["--blocks", "gadgets"], 3, 27, 1),
        ("gkr", 6, ["--blocks", "singles"], 17, 167, 1),
        ("gkr", 6, ["--blocks", "pattern"], 5, 48, 1),
        ("fkr", 4, [], 9, 91, 1),
        ("fkr", 6, [], 5, 45, 1),
        ("hkr", 3, ["--mode", "tree"], 33, 333, 1),
        ("hkr", 5, ["--mode", "tree"], 20, 200, 1),
        ("hkr", 3, ["--mode", "regular"], 11, 107, 2),
        ("hkr", 5, ["--mode", "regular"], 5, 37, 4),
    )

    def __init__(self, seed: int, rounds: int | None = None):
        """The rounds of ops for `seed`; `rounds` keeps only the first."""
        self.seed = seed
        self._rounds: list[list[Op]] = []
        pool: list[list[tuple[str, list[str], int]]] = [
            [] for _ in range(self.rounds_in_pool)]
        for family, k, flags, r_lo, r_hi, step in self.VARIANTS:
            label = f"{family}{k}{''.join(flags[1:])}"
            rng = _rng(seed, label)
            picks = _log_spread(list(range(r_lo, r_hi + 1, step)),
                                self.per_variant)
            # deal the sorted sizes out like cards, so that every round gets
            # the whole size range and all rounds cost about the same
            offset = rng.randrange(self.rounds_in_pool)
            for i, r in enumerate(picks):
                argv = ["construct", family, "--k", str(k), "--r", str(r)]
                argv += flags
                key = f"{label}-r{r}"
                if flags[1:] == ["pattern"]:
                    argv[-1] = "".join(rng.choice("gs")
                                       for _ in range(r * (k - 1) + 1))
                    key += f"-{rng.getrandbits(24):06x}"
                pool[(i + offset) % self.rounds_in_pool].append((key, argv, k))
        order = _rng(seed, "order")
        for specs in pool:
            order.shuffle(specs)
        self._pool = pool[:rounds]
        self._warmup = ("warmup", ["construct", "gkr", "--k", "4", "--r",
                                   "2", "--blocks", "gsgsgsg"], 4)

    def generate(self, mb, cli_call, work: Path) -> None:
        """Write every instance with ``construct --out`` (the set-up work)."""
        self._rounds = []
        for specs in self._pool:
            self._rounds.append([self._make(cli_call, work, s) for s in specs])
        self._warmup_op = self._make(cli_call, work, self._warmup)

    def _make(self, cli_call, work: Path, spec) -> Op:
        key, argv, k = spec
        path = str(work / f"{key}.el")
        code, _, err = cli_call(argv + ["--out", path])
        if code != 0:
            raise RuntimeError(f"construct {argv} failed: {err}")
        sidecar = json.loads(Path(path + ".json").read_text())
        report = str(work / f"{key}.audit.json")
        return Op(key,
                  [["matching", path],
                   ["audit", path, "--k", str(k), "--json", report]],
                  {"alpha": sidecar["alpha_predicted"], "path": path},
                  [report])

    def warmup(self) -> Op:
        return self._warmup_op

    def rounds(self):
        return iter(self._rounds)

    def check(self, op: Op, outs, mb) -> list[str]:
        (rc_m, out_m, _), (rc_a, out_a, _) = outs
        alpha = op.expect["alpha"]
        problems = []
        if rc_m != 0:
            return [f"matching exited {rc_m}"]
        payload = json.loads(out_m)
        if payload["alpha"] != alpha:
            problems.append(f"alpha {payload['alpha']} != predicted {alpha}")
        witness = tuple(tuple(e) for e in payload["witness"])
        if len(witness) != payload["alpha"]:
            problems.append("witness size differs from alpha")
        g = mb.edgelist.parse_edge_list(Path(op.expect["path"]).read_text())
        if not mb.matching.verify_matching(g, mb.matching.Matching(witness)):
            problems.append("witness is not a matching of the graph")
        if rc_a != 0 or "VIOLATED" in out_a:
            problems.append(f"audit exited {rc_a} or reported a violation")
        if out_a.splitlines()[0] != f"alpha = {alpha}":
            problems.append(f"audit alpha line {out_a.splitlines()[0]!r}")
        return problems


class FuzzSweep:
    name = "fuzz-sweep"
    why = ("fuzz ops of 200 trials on graphs of at most 16 or 48 vertices: "
           "generation, structure passes and Fraction arithmetic")
    trials = 200
    trace_rounds = 4

    def __init__(self, seed: int, rounds: int | None = None):
        """Endless rounds for `seed`; `rounds` keeps only the first."""
        self.seed = seed
        self._limit = rounds

    def generate(self, mb, cli_call, work: Path) -> None:
        """Nothing to write: the program gets flags only."""

    def _op(self, index: int, fuzz_seed: int) -> Op:
        # K cycles over 3..6; N alternates between 16 and 48 once per cycle,
        # so every round of eight covers each (K, N) pair once
        k = 3 + index % 4
        max_n = (16, 48)[index // 4 % 2]
        return Op(f"fuzz-k{k}-n{max_n}-t{self.trials}-s{fuzz_seed}",
                  [["fuzz", "--k", str(k), "--trials", str(self.trials),
                    "--max-n", str(max_n), "--seed", str(fuzz_seed)]],
                  {"trials": self.trials})

    def warmup(self) -> Op:
        return self._op(0, _rng(self.seed, "warmup").getrandbits(32))

    def rounds(self):
        rng = _rng(self.seed, "fuzz")
        t = 0
        while self._limit is None or t < self._limit:
            yield [self._op(i, rng.getrandbits(32)) for i in range(8)]
            t += 1

    def check(self, op: Op, outs, mb) -> list[str]:
        (rc, out, _), = outs
        if rc != 0:
            return [f"fuzz exited {rc}"]
        payload = json.loads(out)
        problems = []
        if payload["trials_run"] != op.expect["trials"]:
            problems.append(f"trials_run {payload['trials_run']} != "
                            f"{op.expect['trials']}")
        if payload["violations"]:
            problems.append(f"violations {payload['violations']}")
        return problems


class OracleCertify:
    name = "oracle-certify"
    why = ("tutte-berge then matching on seeded connected graphs of "
           "n = 10..16: the exhaustive 2^n oracle dominates")
    rounds_in_pool = 13
    trace_rounds = 1
    # per k and round; n = 16 three times so that the 90th percentile lies
    # inside the n = 16 group and the median inside the n = 14 group
    ORDERS = (10, 11, 12, 13, 14, 15, 16, 16, 16)

    def __init__(self, seed: int, rounds: int | None = None):
        """The rounds of ops for `seed`; `rounds` keeps only the first."""
        self.seed = seed
        rng = _rng(seed, "oracle")
        self._warmup = (10, 3, rng.getrandbits(64))
        self._pool = []
        for _ in range(rounds or self.rounds_in_pool):
            specs = [(n, k, rng.getrandbits(64))
                     for k in (3, 4, 5, 6) for n in self.ORDERS]
            rng.shuffle(specs)
            self._pool.append(specs)

    def generate(self, mb, cli_call, work: Path) -> None:
        """Make each graph with the package's seeded generator.

        The files are written when their op runs: creating hundreds of files
        took from 30 to 300 ms on the same machine, which would swamp the
        generation time in `setup_s`.
        """
        def make(n, k, g_seed):
            key = f"oracle-n{n}-k{k}-{g_seed:016x}"
            path = str(work / f"{key}.el")
            g = mb.fuzz.random_connected_bounded(g_seed, n, k)
            return Op(key, [["tutte-berge", path], ["matching", path]],
                      {"path": path},
                      inputs={path: mb.edgelist.emit_edge_list(g)})

        self._rounds = [[make(*s) for s in specs] for specs in self._pool]
        self._warmup_op = make(*self._warmup)

    def warmup(self) -> Op:
        return self._warmup_op

    def rounds(self):
        return iter(self._rounds)

    def check(self, op: Op, outs, mb) -> list[str]:
        (rc_t, out_t, _), (rc_m, out_m, _) = outs
        if rc_t != 0 or rc_m != 0:
            return [f"tutte-berge exited {rc_t}, matching exited {rc_m}"]
        cert = json.loads(out_t)
        alpha = json.loads(out_m)["alpha"]
        problems = []
        if cert["alpha"] != alpha:
            problems.append(f"oracle alpha {cert['alpha']} != matching "
                            f"alpha {alpha}")
        g = mb.edgelist.parse_edge_list(Path(op.expect["path"]).read_text())
        x = cert["witness"]
        odd = mb.graphs.odd_components_after_deletion(g, x)
        if g.vertex_count + len(x) - odd != 2 * cert["alpha"]:
            problems.append(f"witness {x} gives (n + |X| - oc) / 2 = "
                            f"{(g.vertex_count + len(x) - odd) / 2}")
        return problems


WORKLOADS = {w.name: w for w in (ExtremalSolve, FuzzSweep, OracleCertify)}


def _log_spread(candidates: list[int], count: int) -> list[int]:
    """Up to `count` distinct candidates spread evenly in log scale, sorted.

    Target i sits at quantile (i + 1/2) / count of the log range and takes
    the free candidate nearest to it.  The sizes do not depend on the seed:
    the slowest tenth of the ops spans a factor of two in latency, so sizes
    drawn per seed moved `p90_ms` by 20% between seeds.
    """
    count = min(count, len(candidates))
    lo, hi = math.log(candidates[0]), math.log(candidates[-1])
    free = list(candidates)
    picks = []
    for i in range(count):
        target = lo + (hi - lo) * (i + 0.5) / count
        free.sort(key=lambda r: (abs(math.log(r) - target), r))
        picks.append(free.pop(0))
    return sorted(picks)
