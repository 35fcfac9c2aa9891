import _random
import gc
import hashlib
import json
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from matchbound import bounds, fuzz
from matchbound.cli import run_cli
from matchbound.edgelist import emit_edge_list, parse_edge_list
from matchbound.fuzz import (MAX_FUZZ_ORDER, FuzzConfig, FuzzOutcome,
                             FuzzViolation, _below, _drop_non_bridge, _mix,
                             random_connected_bounded, run_fuzz)
from matchbound.graphs import (build_graph, components, degree_profile,
                               is_k_regular)
from matchbound.matching import maximum_matching


def test_mix_spreads_streams():
    outs = {_mix(s, t) for s in range(4) for t in range(256)}
    assert len(outs) == 4 * 256
    assert all(0 <= z < 2 ** 64 for z in outs)
    assert _mix(0, 0) != _mix(0, 1)


def test_below_draws_what_the_library_draws():
    sizes = list(range(1, 301))
    sizes += [2 ** j + d for j in range(1, 71) for d in (-1, 0, 1)]
    for seed in (0, 1, 7, 2 ** 63 + 5):
        for n in sizes:
            drawn = _below(random.Random(seed).getrandbits, n)
            assert drawn == random.Random(seed).randrange(n), (seed, n)
            assert drawn == random.Random(seed).randint(0, n - 1), (seed, n)
            if n <= sys.maxsize:  # the longest sequence choice can take
                assert drawn == random.Random(seed).choice(range(n)), n
        # one generator, many draws: the streams stay in step
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _below(ours.getrandbits, n) == theirs.randrange(n)
            assert _below(ours.getrandbits, n) == theirs.randint(0, n - 1)
            if n <= sys.maxsize:
                assert _below(ours.getrandbits, n) == theirs.choice(range(n))
        assert ours.getstate() == theirs.getstate()


def reference_sample(g_seed, n, k, forbid_regular):
    """The sampler written with the library's ``choice``, ``randrange`` and
    ``randint`` and one set of neighbours per vertex: the reference that
    random_connected_bounded must equal."""
    rng = random.Random(g_seed & (2 ** 64 - 1))
    nbrs = [set() for _ in range(n)]
    spare = [0]
    for v in range(1, n):
        u = rng.choice(spare)
        nbrs[u].add(v)
        nbrs[v].add(u)
        if len(nbrs[u]) == k:
            spare.remove(u)
        if k > 1:
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


def test_samples_equal_the_library_draw_reference():
    rng = random.Random(500)
    cases = [(rng.getrandbits(64), 10 ** 4, 3, False)]
    for i in range(600):
        n = rng.randint(1, 500)
        k = rng.randint(1 if n <= 2 else 2, 12)
        forbid = i % 2 == 1 and (n, k) != (2, 1)
        cases.append((rng.getrandbits(64), n, k, forbid))
    # small orders, where regular samples and their trims are common
    for n in range(1, 9):
        for k in range(1 if n <= 2 else 2, n + 1):
            for forbid in (False, True):
                if forbid and (n, k) == (2, 1):
                    continue
                cases += [(seed, n, k, forbid) for seed in range(10)]
    # seeds at the ends of the 64-bit range, and two the sampler masks
    for g_seed in (0, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -1):
        cases += [(g_seed, n, 3, forbid) for n in (1, 7, 60)
                  for forbid in (False, True)]
    for case in cases:
        assert random_connected_bounded(*case) == reference_sample(*case), \
            case


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 14), st.integers(2, 6))
@settings(max_examples=150, deadline=None)
def test_sample_postconditions(seed, n, k):
    g = random_connected_bounded(seed, n, k)
    assert g.vertex_count == n
    assert components(g).component_count == 1
    assert degree_profile(g).max_degree <= k
    # the sample is frozen without a second look: it must be exactly what
    # the validating constructor makes of its edges
    assert build_graph(n, g.edges()) == g


def test_samples_are_reproducible():
    a = random_connected_bounded(555, 13, 4)
    b = random_connected_bounded(555, 13, 4)
    assert a.edges() == b.edges()
    # different seeds give different graphs at least once in a while
    assert any(random_connected_bounded(s, 13, 4).edges() != a.edges()
               for s in range(10))


def test_forbid_regular_strips_one_edge():
    hits = 0
    for seed in range(120):
        free = random_connected_bounded(seed, 4, 3)
        if not is_k_regular(free, 3).overall:
            continue
        hits += 1
        stripped = random_connected_bounded(seed, 4, 3, forbid_regular=True)
        assert not is_k_regular(stripped, 3).overall
        assert components(stripped).component_count == 1
        assert stripped.edge_count == free.edge_count - 1
    assert hits > 0  # K4 does come up at n=4, k=3


def test_drop_non_bridge_keeps_a_leading_bridge():
    # two K4s, each with one edge subdivided, joined by {0, 1}: a bridge
    # that comes first in sorted order, so the next edge, {0, 2}, is dropped
    g = build_graph(10, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 4),
                         (3, 5), (4, 5), (1, 6), (1, 7), (6, 8), (6, 9),
                         (7, 8), (7, 9), (8, 9)])
    assert is_k_regular(g, 3).overall
    trimmed = _drop_non_bridge(g)
    assert set(g.edges()) - set(trimmed.edges()) == {(0, 2)}
    assert components(trimmed).component_count == 1


def test_infeasible_requests():
    with pytest.raises(ValueError):
        random_connected_bounded(1, 3, 1)  # no connected graph fits
    with pytest.raises(ValueError):
        random_connected_bounded(1, 2, 1, forbid_regular=True)  # only K2
    with pytest.raises(ValueError):
        random_connected_bounded(1, 0, 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        random_connected_bounded(0, 5, 0)
    # fine: a lone vertex, and K2 when regularity is allowed
    assert random_connected_bounded(1, 1, 3).vertex_count == 1
    assert random_connected_bounded(1, 2, 1).edge_count == 1


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(k=2, trials=1, max_n=8, seed=0)
    with pytest.raises(ValueError):
        FuzzConfig(k=3, trials=0, max_n=8, seed=0)
    with pytest.raises(ValueError):
        FuzzConfig(k=3, trials=1, max_n=1, seed=0)
    FuzzConfig(k=3, trials=1, max_n=MAX_FUZZ_ORDER, seed=0)
    with pytest.raises(ValueError, match=f"2..{MAX_FUZZ_ORDER}, the fuzz "
                                         "order limit"):
        FuzzConfig(k=3, trials=1, max_n=MAX_FUZZ_ORDER + 1, seed=0)
    # the trials read the seed's low 64 bits only: a seed beyond them would
    # repeat the trials of another
    FuzzConfig(k=3, trials=1, max_n=8, seed=2 ** 64 - 1)
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError,
                           match=rf"0\.\.2\*\*64 - 1, got {seed}$"):
            FuzzConfig(k=3, trials=1, max_n=8, seed=seed)


def splitmix64(state):
    """The splitmix64 generator of Steele, Lea and Flood (2014), written
    as a stateful stream: the reference that each trial's draws read."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        yield z ^ (z >> 31)


def record_draws(monkeypatch, sample=None):
    """Record each trial's (g_seed, n) and hand the audit ``sample``'s graph,
    or a lone vertex, which the audit need not see at order n."""
    drawn = []
    lone = build_graph(1, [])

    def record(g_seed, n, k, forbid_regular=False):
        drawn.append((g_seed, n))
        return sample(g_seed, n, k, forbid_regular) if sample else lone

    monkeypatch.setattr("matchbound.fuzz.random_connected_bounded", record)
    return drawn


def test_trials_read_their_order_and_seed_from_the_stream(monkeypatch):
    # trial t reads positions 2t and 2t + 1 of the seed's splitmix64 stream:
    # its order from the first, its sample's seed from the second
    first = splitmix64(0)
    assert [next(first) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    drawn = record_draws(monkeypatch)
    for max_n in (2, 3, 4, 5, 16, 17, 48, 10 ** 5):
        for seed in (0, 1, 2 ** 63, 2 ** 64 - 1):
            drawn.clear()
            run_fuzz(FuzzConfig(k=3, trials=40, max_n=max_n, seed=seed))
            stream = splitmix64(seed)
            expected = []
            for t in range(40):
                n = 2 + next(stream) % (max_n - 1)
                expected.append((next(stream), n))
            assert drawn == expected, (max_n, seed)
    drawn.clear()
    run_fuzz(FuzzConfig(k=3, trials=400, max_n=5, seed=9))
    assert {n for _, n in drawn} == {2, 3, 4, 5}


def test_a_trial_sets_up_one_generator(monkeypatch):
    # a construction and a seed call each set up a Mersenne Twister's whole
    # state (init_by_array), the largest fixed cost of a small trial. A
    # construction is counted in __new__: before 3.11 _random.Random seeds
    # there and inherits object.__init__, which takes no arguments
    set_up = []

    class Counting(_random.Random):
        def __new__(cls, *args):
            set_up.append(args)
            return super().__new__(cls, *args)

        def seed(self, *args):
            set_up.append(args)
            super().seed(*args)

    config = FuzzConfig(k=4, trials=30, max_n=16, seed=12)
    outcome = run_fuzz(config)
    monkeypatch.setattr(fuzz, "_random", SimpleNamespace(Random=Counting))
    assert run_fuzz(config) == outcome
    assert len(set_up) == 30


def test_trials_do_not_depend_on_the_run_length(monkeypatch):
    graphs = []

    def sample(*args):
        graphs.append(random_connected_bounded(*args))
        return graphs[-1]

    drawn = record_draws(monkeypatch, sample)
    runs = []
    for trials in (10, 40):
        drawn.clear()
        graphs.clear()
        run_fuzz(FuzzConfig(k=5, trials=trials, max_n=48, seed=2 ** 64 - 3))
        runs.append((drawn[:10], graphs[:10]))
    assert runs[0] == runs[1]
    assert len(set(runs[0][0])) == 10


def test_run_fuzz_small_sweep():
    out = run_fuzz(FuzzConfig(k=3, trials=200, max_n=10, seed=2024))
    assert out.trials_run == 200
    assert out.violations == []


def test_run_fuzz_allows_regular_components():
    out = run_fuzz(FuzzConfig(k=3, trials=200, max_n=6, seed=5,
                              forbid_regular_components=False))
    assert out.violations == []


def test_outcome_serialization_is_stable(capsys):
    outputs = []
    for _ in range(2):
        assert run_cli(["fuzz", "--k", "4", "--trials", "50", "--max-n", "9",
                        "--seed", "77"]) == 0
        outputs.append(capsys.readouterr().out)
    first, second = outputs
    assert first == second
    payload = json.loads(first)
    assert payload["trials_run"] == 50
    assert payload["violations"] == []
    assert all(isinstance(v, int) for v in payload["tight_hits"].values())


def test_violations_serialize_with_the_graph(monkeypatch, capsys):
    outcome = FuzzOutcome(
        1, [FuzzViolation(9, 0, build_graph(2, [(0, 1)]), "general")], {})
    monkeypatch.setattr("matchbound.cli.run_fuzz", lambda config: outcome)
    assert run_cli(["fuzz", "--k", "3", "--trials", "1", "--max-n", "2",
                    "--seed", "9"]) == 1
    assert capsys.readouterr().out == (
        '{\n  "tight_hits": {},\n  "trials_run": 1,\n  "violations": [\n'
        '    {\n      "bound": "general",\n      "graph": "2 1\\n0 1\\n",\n'
        '      "seed": 9,\n      "trial": 0\n    }\n  ]\n}\n')


# SHA-256 of the exit code and stdout of each `fuzz --trials 200` run for
# k 3..6 x seeds 1/7/42 x max-n 16/48, with and without --allow-regular,
# recorded once each trial read its order and its sample's seed straight
# from the splitmix64 stream. The sample of a given (g_seed, n) is pinned
# apart from this by GOLDEN_SAMPLES and GOLDEN_SAMPLES_FULL_RANGE.
GOLDEN_FUZZ = ("c2d5f9b7f6214f20ef931a09469fca7b"
               "2922c2cd9ad72ad101112918e2be7b12")


def test_fuzz_stdout_matches_the_recorded_digest(capsys):
    digest = hashlib.sha256()
    for k in range(3, 7):
        for seed in (1, 7, 42):
            for max_n in (16, 48):
                for extra in ([], ["--allow-regular"]):
                    code = run_cli(["fuzz", "--k", str(k), "--trials", "200",
                                    "--max-n", str(max_n), "--seed",
                                    str(seed), *extra])
                    digest.update(f"{code}\n".encode())
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_FUZZ


# SHA-256 of the edge lists of 3000 seeded samples, n 1..14, k 2..6, a third
# of them allowed to stay regular, recorded with the first GOLDEN_FUZZ, while
# the generator still kept a degree list and a set of edges next to each other.
# The fuzz report alone does not show whether a regular sample was trimmed.
GOLDEN_SAMPLES = ("60b90d112c6c49316b4afce2f1247463"
                  "67da2648265fe2d3a1c5aa8fd98ba2d1")


def test_samples_match_the_recorded_digest():
    rng = random.Random(81)
    digest = hashlib.sha256()
    stripped = 0
    for i in range(3000):
        n, k = rng.randint(1, 14), rng.randint(2, 6)
        g_seed = rng.getrandbits(64)
        g = random_connected_bounded(g_seed, n, k, forbid_regular=i % 3 > 0)
        stripped += g.edges() != random_connected_bounded(g_seed, n, k).edges()
        digest.update(emit_edge_list(g).encode())
    assert stripped > 50  # the regular case is exercised
    assert digest.hexdigest() == GOLDEN_SAMPLES


# SHA-256 of the edge lists of 2000 seeded samples over the whole range fuzz
# draws from, n 1..48 and k 1..9 (k = 1 only with n <= 2), every other one
# kept from being regular. Recorded while the spanning-tree step still
# rescanned every earlier vertex for spare degree on each new vertex.
GOLDEN_SAMPLES_FULL_RANGE = ("55c693f72e6bcac2b99b28b33214e640"
                             "58348033112bf46896324568bafe5223")


def test_full_range_samples_match_the_recorded_digest():
    rng = random.Random(48)
    digest = hashlib.sha256()
    for i in range(2000):
        n = rng.randint(1, 48)
        k = rng.randint(1 if n <= 2 else 2, 9)
        forbid = i % 2 == 1 and (n, k) != (2, 1)
        g = random_connected_bounded(rng.getrandbits(64), n, k,
                                     forbid_regular=forbid)
        digest.update(emit_edge_list(g).encode())
    assert digest.hexdigest() == GOLDEN_SAMPLES_FULL_RANGE


def test_run_fuzz_reports_a_bound_that_exceeds_alpha(monkeypatch, capsys,
                                                     tmp_path):
    real_rows = bounds.bound_rows

    def inflated(k):
        rows = real_rows(k)
        if k != 4:  # k = 3's general row is the subcubic_profile row
            return rows
        general = rows.general._replace(const=-10 ** 6 * rows.general.scale)
        return rows._replace(general=general)

    monkeypatch.setattr(bounds, "bound_rows", inflated)
    config = FuzzConfig(k=4, trials=3, max_n=12, seed=31)
    outcome = run_fuzz(config)
    expected = []
    for trial in range(3):
        n = 2 + _mix(31, 2 * trial) % 11
        g = random_connected_bounded(_mix(31, 2 * trial + 1), n, 4, True)
        expected.append(FuzzViolation(31, trial, g, "general"))
    assert outcome.violations == expected

    code = run_cli(["fuzz", "--k", "4", "--trials", "3", "--max-n", "12",
                    "--seed", "31"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 1
    # the bytes FuzzOutcome.to_json wrote for this report, kept by the CLI
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cfd789857db8a80f93270e212f32d983ce62045f8515f2a7dad9118c77a045d7")
    assert [(v["trial"], v["bound"], v["graph"])
            for v in payload["violations"]] == [
        (v.trial, "general", emit_edge_list(v.graph)) for v in expected]
    # audit reads the same verdict off the first graph fuzz reported
    path = tmp_path / "violation.el"
    path.write_text(payload["violations"][0]["graph"])
    code = run_cli(["audit", str(path), "--k", "4"])
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert code == 1
    assert rows["general"][-1] == "VIOLATED"


def test_a_sweep_builds_no_fraction(monkeypatch):
    for k in (3, 4, 5, 6):
        bounds.bound_rows(k)  # the rows are built once per k, with Fractions

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(bounds, "Fraction", refuse)
    tight = 0
    for k in (3, 4, 5, 6):
        outcome = run_fuzz(FuzzConfig(k=k, trials=100, max_n=16, seed=k))
        assert outcome.violations == []
        tight += sum(outcome.tight_hits.values())
        report = bounds.audit_graph(
            random_connected_bounded(k, 12, k, forbid_regular=True), k)
        assert not report.violations
    assert tight  # the tight verdict is reached too
    # the patch is the one a printed value goes through
    with pytest.raises(AssertionError, match="built"):
        report.entries[0].value


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="counts blocks of CPython's allocator")
@pytest.mark.parametrize("path", ["fuzz", "parse-and-match"])
def test_small_graphs_leave_no_tuples_on_the_free_lists(path):
    # CPython keeps up to 2000 freed tuples of each size up to 20. A tuple
    # grown from an iterator of unknown length is taken from the size-10
    # list and freed onto its own size's, so a tuple built that way once per
    # graph would leave one more block allocated per graph until the lists
    # fill: about 9900 over this fuzz run. A full collection empties them.
    if path == "fuzz":
        def run():
            run_fuzz(FuzzConfig(k=4, trials=5000, max_n=16, seed=5))
    else:
        # what oracle-certify does to small seeded graphs, emitted as files
        texts = [emit_edge_list(random_connected_bounded(s, 10 + s % 7,
                                                         3 + s % 4))
                 for s in range(3000)]

        def run():
            for text in texts:
                maximum_matching(parse_edge_list(text))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        run()
        grown = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    assert grown < 1000, f"{grown} more blocks allocated"


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="reads CPython's tracemalloc")
@pytest.mark.parametrize("k", [3, 10])
def test_a_sample_peaks_below_60_bytes_per_adjacency_slot(k):
    # graph memory O(n + m): one list per vertex, frozen in place, peaks at
    # about 41 bytes per slot of the adjacency (n + 2m); a degree list, an
    # encoded edge set and its decoded pairs next to it peaked at about 96
    tracemalloc.start()
    try:
        g = random_connected_bounded(777, 10 ** 4, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = g.vertex_count + 2 * g.edge_count
    assert peak / slots < 60, f"{peak / slots:.1f} bytes per slot"
