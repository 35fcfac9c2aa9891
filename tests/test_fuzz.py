import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from matchbound import bounds
from matchbound.cli import run_cli
from matchbound.edgelist import emit_edge_list
from matchbound.fuzz import (MAX_FUZZ_ORDER, FuzzConfig, FuzzOutcome,
                             FuzzViolation, _below, _drop_non_bridge, _mix,
                             random_connected_bounded, run_fuzz)
from matchbound.graphs import (build_graph, components, degree_profile,
                               is_k_regular)


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


def test_run_fuzz_small_sweep():
    out = run_fuzz(FuzzConfig(k=3, trials=200, max_n=10, seed=2024))
    assert out.trials_run == 200
    assert out.violations == []


def test_run_fuzz_allows_regular_components():
    out = run_fuzz(FuzzConfig(k=3, trials=200, max_n=6, seed=5,
                              forbid_regular_components=False))
    assert out.violations == []


def test_outcome_serialization_is_stable():
    cfg = FuzzConfig(k=4, trials=50, max_n=9, seed=77)
    first = run_fuzz(cfg).to_json()
    second = run_fuzz(cfg).to_json()
    assert first == second
    payload = json.loads(first)
    assert payload["trials_run"] == 50
    assert payload["violations"] == []
    assert all(isinstance(v, int) for v in payload["tight_hits"].values())


def test_violations_serialize_with_the_graph():
    out = FuzzOutcome(trials_run=1)
    out.violations.append(
        FuzzViolation(9, 0, build_graph(2, [(0, 1)]), "general"))
    payload = json.loads(out.to_json())
    assert payload["violations"][0]["graph"] == "2 1\n0 1\n"
    assert payload["violations"][0]["bound"] == "general"


# SHA-256 of the exit code and stdout of each `fuzz --trials 200` run for
# k 3..6 x seeds 1/7/42 x max-n 16/48, with and without --allow-regular,
# recorded while the generator still kept a degree list and a set of edges
# next to each other.
GOLDEN_FUZZ = ("c94f54e8fd89b32e2afe67b9b3ac56a2"
               "df7e65b50a51658d3dca394663dc2579")


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
# of them allowed to stay regular, recorded at the same time as GOLDEN_FUZZ.
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


def test_run_fuzz_reports_a_bound_that_exceeds_alpha(monkeypatch, capsys):
    real_rows = bounds.bound_rows

    def inflated(k):
        rows = real_rows(k)
        general = rows.general._replace(const=-10 ** 6 * rows.general.scale)
        return rows._replace(general=general)

    monkeypatch.setattr(bounds, "bound_rows", inflated)
    config = FuzzConfig(k=4, trials=3, max_n=12, seed=31)
    outcome = run_fuzz(config)
    expected = []
    for trial in range(3):
        rng = random.Random(_mix(31, trial))
        n = rng.randint(2, 12)
        g = random_connected_bounded(rng.getrandbits(64), n, 4, True)
        expected.append(FuzzViolation(31, trial, g, "general"))
    assert outcome.violations == expected

    code = run_cli(["fuzz", "--k", "4", "--trials", "3", "--max-n", "12",
                    "--seed", "31"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(v["trial"], v["bound"], v["graph"])
            for v in payload["violations"]] == [
        (v.trial, "general", emit_edge_list(v.graph)) for v in expected]
