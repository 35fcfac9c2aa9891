import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from matchbound import cli, edgelist, families, fuzz, matching
from matchbound.cli import run_cli
from matchbound.edgelist import EdgeListError, parse_edge_list
from matchbound.fuzz import MAX_FUZZ_ORDER
from matchbound.graphs import MAX_EDGES, MAX_VERTICES
from matchbound.matching import MAX_ORACLE_ORDER

README = Path(__file__).resolve().parent.parent / "README.md"


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_matching_command(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    code, out, err = invoke(capsys, "matching", path)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["alpha"] == 2
    assert payload["witness"] == [[0, 1], [2, 3]]


def test_tutte_berge_command(tmp_path, capsys):
    path = write_graph(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
    code, out, _ = invoke(capsys, "tutte-berge", path)
    assert code == 0
    assert json.loads(out) == {"alpha": 1, "witness": [0]}


def test_tutte_berge_size_guard(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    code, _, err = invoke(capsys, "tutte-berge", path, "--max-n", "3")
    assert code == 2
    assert "exhaustive enumeration" in err


def test_tutte_berge_refuses_orders_above_the_oracle_limit(
        tmp_path, capsys, monkeypatch):
    def refuse(counter, plane):
        raise AssertionError("the oracle started to enumerate")

    monkeypatch.setattr(matching, "_count", refuse)
    for n in (MAX_ORACLE_ORDER + 1, 40):
        path = write_graph(tmp_path, "path.el", f"{n} {n - 1}\n" + "".join(
            f"{i} {i + 1}\n" for i in range(n - 1)))
        for max_n in ("64", str(n), "22"):
            code, out, err = invoke(capsys, "tutte-berge", path,
                                    "--max-n", max_n)
            assert code == 2 and out == "", (n, max_n)
            assert (f"limited to {MAX_ORACLE_ORDER}, the oracle order limit"
                    in err), (n, max_n)


def test_tutte_berge_refuses_an_oversized_order_from_its_header(
        tmp_path, capsys):
    # 11 bytes that promise 10^7 vertices: a graph of that order takes
    # about 700 MB to build, so the header alone must refuse it
    path = write_graph(tmp_path, "big.el", "10000000 0\n")
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, "tutte-berge", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"limited to {MAX_ORACLE_ORDER}, the oracle order limit" in err
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    # a malformed header gets the parser's own message
    for text in ("3 x\n0 1\n", "-1 0\n", "# none\n",
                 f"{MAX_VERTICES + 1} 0\n"):
        path = write_graph(tmp_path, "bad.el", text)
        got = invoke(capsys, "tutte-berge", path)
        assert got[0] == 2 and got == invoke(capsys, "matching", path), text


def test_tutte_berge_at_its_default_max_n_agrees_with_matching(
        tmp_path, capsys):
    g = fuzz.random_connected_bounded(22013, 22, 4)
    assert g.vertex_count == 22 and g.structure.component_count == 1
    path = write_graph(tmp_path, "f22.el", edgelist.emit_edge_list(g))
    code, out, err = invoke(capsys, "tutte-berge", path)
    assert (code, err) == (0, "")
    alpha = json.loads(invoke(capsys, "matching", path)[1])["alpha"]
    assert json.loads(out)["alpha"] == alpha


def test_audit_command(tmp_path, capsys):
    path = write_graph(tmp_path, "c9.el", "9 9\n" + "".join(
        f"{min(i, (i + 1) % 9)} {max(i, (i + 1) % 9)}\n" for i in range(9)))
    out_json = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "audit", path, "--k", "3",
                          "--json", str(out_json))
    assert code == 0
    assert "alpha = 4" in out
    assert "connected_odd" in out
    payload = json.loads(out_json.read_text())
    assert payload["alpha"] == 4
    names = [e["name"] for e in payload["entries"]]
    assert "general" in names and "subcubic_profile" in names
    general = next(e for e in payload["entries"] if e["name"] == "general")
    assert general["applicable"] and not general["violated"]


def test_audit_rejects_oversized_degree(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.el", "5 10\n" + "".join(
        f"{i} {j}\n" for i in range(5) for j in range(i + 1, 5)))
    code, _, err = invoke(capsys, "audit", path, "--k", "3")
    assert code == 2
    assert "exceeds" in err


def test_construct_gkr_stdout(capsys):
    code, out, _ = invoke(capsys, "construct", "gkr", "--k", "4", "--r", "2",
                          "--blocks", "gssgsgs")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "21 35"


def test_construct_writes_sidecar(tmp_path, capsys):
    out_path = tmp_path / "chain.el"
    code, out, _ = invoke(capsys, "construct", "gkr", "--k", "4", "--r", "2",
                          "--blocks", "gssgsgs", "--out", str(out_path))
    assert code == 0 and out == ""
    sidecar = json.loads((tmp_path / "chain.el.json").read_text())
    assert sidecar == {"n": 21, "m": 35, "alpha_predicted": 8,
                       "link_vertices": [2, 3, 9, 10, 15, 16]}
    assert out_path.read_text().startswith("21 35\n")


def test_construct_pipe_into_matching(tmp_path, capsys):
    # the documented two-step flow: construct, then match the written file
    out_path = tmp_path / "ring.el"
    assert invoke(capsys, "construct", "fkr", "--k", "4", "--r", "1",
                  "--out", str(out_path))[0] == 0
    code, out, _ = invoke(capsys, "matching", str(out_path))
    assert code == 0
    assert json.loads(out)["alpha"] == 5


def test_members_of_100k_vertices_match_their_sidecars(tmp_path, capsys):
    members = {"gkr": ["--k", "4", "--r", "6250"],
               "fkr": ["--k", "4", "--r", "9091"],
               "hkr": ["--k", "3", "--r", "11111", "--mode", "regular"]}
    alpha, solved = {}, {}
    for family, flags in members.items():
        path = str(tmp_path / f"{family}.el")
        assert invoke(capsys, "construct", family, *flags,
                      "--out", path) == (0, "", "")
        alpha[family] = json.loads(Path(path + ".json").read_text()
                                   )["alpha_predicted"]
        solved[family] = invoke(capsys, "matching", path)
        code, out, err = solved[family]
        assert (code, err) == (0, "")
        assert json.loads(out)["alpha"] == alpha[family], family
    gkr = tmp_path / "gkr.el"
    audit = invoke(capsys, "audit", str(gkr), "--k", "4")
    assert audit[0] == 0 and audit[1].startswith(f"alpha = {alpha['gkr']}\n")
    # a trailing comment sends every line through the line-by-line read
    commented = write_graph(tmp_path, "gkr-commented.el", "".join(
        f"{line} # c\n" for line in gkr.read_text().splitlines()))
    assert invoke(capsys, "matching", commented) == solved["gkr"]
    assert invoke(capsys, "audit", commented, "--k", "4") == audit
    # a connected cubic member: the reference and subcubic bounds are tight
    code, out, _ = invoke(capsys, "audit", str(tmp_path / "hkr.el"),
                          "--k", "3")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    for name in ("connected_odd", "regular_reference", "subcubic_profile"):
        assert rows[name] == ["value", str(alpha["hkr"]), "slack", "0",
                              "tight"], name


def test_construct_hkr_canonical(capsys):
    code, out, _ = invoke(capsys, "construct", "hkr", "--k", "3",
                          "--mode", "regular", "--r", "3")
    assert code == 0
    assert out.splitlines()[0] == "34 51"


def test_construct_hkr_from_tree_file(tmp_path, capsys):
    tree = write_graph(tmp_path, "tree.el",
                       "9 8\n0 1\n1 2\n2 3\n2 4\n4 5\n4 6\n6 7\n7 8\n")
    out_path = tmp_path / "dressed.el"
    code, _, _ = invoke(capsys, "construct", "hkr", "--k", "3",
                        "--tree", tree, "--out", str(out_path))
    assert code == 0
    sidecar = json.loads((tmp_path / "dressed.el.json").read_text())
    assert (sidecar["n"], sidecar["m"], sidecar["alpha_predicted"]) == (29, 40, 12)
    # explicit --part2 with the same class changes nothing
    code2, out2, _ = invoke(capsys, "construct", "hkr", "--k", "3",
                            "--tree", tree, "--part2", "1,3,4,7")
    assert code2 == 0
    assert out2 == out_path.read_text()


def test_construct_hkr_flag_conflicts(tmp_path, capsys):
    tree = write_graph(tmp_path, "t.el", "2 1\n0 1\n")
    code, _, err = invoke(capsys, "construct", "hkr", "--k", "3",
                          "--tree", tree, "--r", "2")
    assert code == 2 and "not both" in err
    code, _, err = invoke(capsys, "construct", "hkr", "--k", "3")
    assert code == 2 and "--r" in err
    code, out, err = invoke(capsys, "construct", "hkr", "--k", "3",
                            "--r", "3", "--part2", "0")
    assert code == 2 and "--part2 only with --tree" in err and out == ""
    code, out, err = invoke(capsys, "construct", "hkr", "--k", "3",
                            "--tree", tree, "--mode", "regular")
    assert code == 2 and "not both" in err and out == ""


def test_construct_dot_output(capsys):
    code, out, _ = invoke(capsys, "construct", "gkr", "--k", "4", "--r", "1",
                          "--blocks", "singles", "--dot")
    assert code == 0
    assert out.startswith("graph {")
    assert "--" in out


def construct_sweep(tmp_path):
    """Argument lists for `construct`: gkr and fkr at k = 4, 6, 8, hkr at
    k = 3, 5, 7 in both canonical modes and from tree files, with the
    bipartition class found from vertex 0 and the other one by --part2."""
    rng = random.Random(12)
    sweep = []
    for k in (4, 6, 8):
        for r in (1, 2, 3):
            length = r * (k - 1) + 1
            seeded = ["".join(rng.choice("gs10") for _ in range(length))
                      for _ in range(2)]
            for blocks in ["gadgets", "singles", *seeded]:
                sweep.append(["gkr", "--k", str(k), "--r", str(r),
                              "--blocks", blocks])
            sweep.append(["fkr", "--k", str(k), "--r", str(r)])
    trees = [write_graph(tmp_path, "ref.el",
                         "9 8\n0 1\n1 2\n2 3\n2 4\n4 5\n4 6\n6 7\n7 8\n"),
             write_graph(tmp_path, "path.el", "4 3\n0 1\n1 2\n2 3\n")]
    for k in (3, 5, 7):
        for r in (1, 2, 3):
            sweep.append(["hkr", "--k", str(k), "--r", str(r)])
        for r in (k, 2 * k - 1):
            sweep.append(["hkr", "--k", str(k), "--r", str(r),
                          "--mode", "regular"])
        sweep.append(["hkr", "--k", str(k), "--r", "2", "--mode", "tree"])
        for tree, even_class in zip(trees, ("0,2,5,6,8", "0,2")):
            sweep.append(["hkr", "--k", str(k), "--tree", tree])
            sweep.append(["hkr", "--k", str(k), "--tree", tree,
                          "--part2", even_class])
    return sweep


# SHA-256 over construct_sweep of each member's stdout edge list, its --dot
# text and the file and JSON sidecar written by --out, recorded while the
# generators still placed vertices with per-block attachment lists.
GOLDEN_CONSTRUCT = ("8214470b89c8ff58c99c9a9cab2e9a7a"
                    "3d89d0d2a686263dc5418e23657bc476")


def test_construct_output_matches_the_recorded_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    out = tmp_path / "member.el"
    for argv in construct_sweep(tmp_path):
        for extra in ([], ["--dot"], ["--out", str(out)]):
            code, stdout, err = invoke(capsys, "construct", *argv, *extra)
            assert code == 0 and err == "", (argv, extra, err)
            digest.update(f"{code}\n{stdout}".encode())
        digest.update(out.read_bytes())
        digest.update(Path(str(out) + ".json").read_bytes())
    assert digest.hexdigest() == GOLDEN_CONSTRUCT


def test_region_point_classification(capsys):
    code, out, _ = invoke(capsys, "region", "--k", "4",
                          "--point", "-1/11,3/11")
    assert code == 0
    assert out.strip() == '{"classification":"good","boundary":true}'
    code, out, _ = invoke(capsys, "region", "--k", "4", "--point", "0,0")
    assert json.loads(out) == {"classification": "good", "boundary": False}
    code, out, _ = invoke(capsys, "region", "--k", "4", "--point", "1/2,1/2")
    assert json.loads(out)["classification"] == "bad"


def test_region_summary_default(capsys):
    code, out, _ = invoke(capsys, "region", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["extreme_points"] == [["1/9", "2/9"]]
    assert len(payload["half_spaces"]) == 2


def test_region_polygon_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "poly.csv"
    svg_path = tmp_path / "poly.svg"
    code, _, _ = invoke(capsys, "region", "--k", "4",
                        "--polygon", str(csv_path), "--svg", str(svg_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "gamma_exact,beta_exact,gamma_dec,beta_dec"
    assert "1/20,1/5,0.05000,0.20000" in lines
    assert "-1/11,3/11,-0.09091,0.27273" in lines
    assert svg_path.read_text().startswith("<svg ")


def test_region_explicit_bbox(tmp_path, capsys):
    # the default box spelled out gives the same polygon as no --bbox
    implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    assert invoke(capsys, "region", "--k", "4",
                  "--polygon", str(implicit))[0] == 0
    assert invoke(capsys, "region", "--k", "4", "--polygon", str(explicit),
                  "--bbox", "-1/4,1/4,-1/2,1/2")[0] == 0
    assert explicit.read_bytes() == implicit.read_bytes()
    short = tmp_path / "short.csv"
    # with a point to classify, a failed run still prints nothing
    for point in ([], ["--point", "0,0"]):
        code, out, err = invoke(capsys, "region", "--k", "4", "--polygon",
                                str(short), "--bbox", "-1/4,1/4,-1/2", *point)
        assert (code, out) == (2, "") and not short.exists(), point
        assert "--bbox needs 4 comma-separated rationals" in err
        # a long argument is quoted only in part
        code, out, err = invoke(capsys, "region", "--k", "4", "--polygon",
                                str(short), "--bbox", "1," * 2500, *point)
        assert (code, out) == (2, "") and not short.exists(), point
        assert err == ("error: --bbox needs 4 comma-separated rationals, "
                       f"got {'1,' * 20!r}...\n")
        # a box without the extreme points
        code, out, err = invoke(capsys, "region", "--k", "4", "--polygon",
                                str(short), "--bbox", "0,1,0,1", *point)
        assert (code, out) == (2, "") and not short.exists(), point
        assert err.startswith("error: bbox must strictly contain"), point
    # a 27-digit corner is written in full, exactly
    wide = tmp_path / "wide.csv"
    code, _, err = invoke(capsys, "region", "--k", "4", "--polygon", str(wide),
                          "--bbox=-100000000000000000000000000,1,-1,1")
    assert (code, err) == (0, "")
    assert wide.read_text().splitlines()[1] == (
        "-100000000000000000000000000,-1,"
        "-100000000000000000000000000.00000,-1.00000")


def test_region_svg_refuses_a_box_it_cannot_draw(tmp_path, capsys):
    svg, csv = tmp_path / "o.svg", tmp_path / "o.csv"
    # one box is drawn 10**400 pixels high, the other 0 pixels high
    for bbox in ("--bbox=-1,1,-1e400,1e400", "--bbox=-1e400,1e400,-1,1"):
        for point in ([], ["--point", "0,0"]):
            code, out, err = invoke(capsys, "region", "--k", "4", "--svg",
                                    str(svg), "--polygon", str(csv), bbox,
                                    *point)
            assert (code, out) == (2, ""), (bbox, point)
            assert err.startswith(
                "error: bbox cannot be drawn 480 pixels wide")
            assert not svg.exists() and not csv.exists(), (bbox, point)
        polygon = str(tmp_path / "polygon.csv")
        assert invoke(capsys, "region", "--k", "4", "--polygon", polygon,
                      bbox) == (0, "", ""), bbox
    # the flattest box it draws is one pixel high
    assert invoke(capsys, "region", "--k", "4", "--svg", str(svg),
                  "--bbox=-480,480,-1,1")[0] == 0
    assert 'height="1"' in svg.read_text()


def test_region_leaves_no_file_when_a_later_write_fails(tmp_path, capsys):
    csv = tmp_path / "p.csv"
    code, out, err = invoke(capsys, "region", "--k", "4", "--point", "0,0",
                            "--polygon", str(csv),
                            "--svg", str(tmp_path / "missing" / "x.svg"))
    assert (code, out) == (2, "") and "No such file or directory" in err
    assert not csv.exists()


def test_region_refuses_two_outputs_that_name_one_file(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for other in ("same.out", "./same.out", str(tmp_path / "same.out")):
        code, out, err = invoke(capsys, "region", "--k", "4",
                                "--polygon", "same.out", "--svg", other)
        assert (code, out) == (2, ""), other
        assert err.startswith("error: two outputs name one file: "), other
        assert list(tmp_path.iterdir()) == [], other


def test_construct_leaves_no_file_when_the_sidecar_fails(tmp_path, capsys):
    out_path = tmp_path / "x.el"
    (tmp_path / "x.el.json").mkdir()
    code, out, err = invoke(capsys, "construct", "gkr", "--k", "4", "--r",
                            "1", "--out", str(out_path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not out_path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.el.json"]


def test_audit_prints_nothing_when_its_report_file_fails(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el",
                       "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = invoke(capsys, "audit", path, "--k", "3", "--json",
                            str(tmp_path / "missing" / "r.json"))
    assert (code, out) == (2, "") and "No such file or directory" in err


def test_region_rejects_bad_points(capsys):
    assert invoke(capsys, "region", "--k", "4", "--point", "1/0,2")[0] == 2
    assert invoke(capsys, "region", "--k", "4", "--point", "5")[0] == 2
    assert invoke(capsys, "region", "--k", "2", "--point", "0,0")[0] == 2


def test_region_refuses_abbreviated_tuple_flags(tmp_path, capsys):
    # a prefix of --point or --bbox would miss the merge of a value that
    # starts with a minus sign, so region takes only the full spellings
    polygon = str(tmp_path / "p.csv")
    for argv in (["--poin", "-1/11,3/11"], ["--poin", "1/11,3/11"],
                 ["--bb=-1/4,1/4,-1/2,1/2", "--polygon", polygon],
                 ["--bb", "-1/4,1/4,-1/2,1/2", "--polygon", polygon]):
        code, out, err = invoke(capsys, "region", "--k", "4", *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv
    assert not os.path.exists(polygon)
    for argv in (["--point", "-1/11,3/11"], ["--point=-1/11,3/11"],
                 ["--polygon", polygon, "--bbox", "-1/4,1/4,-1/2,1/2"],
                 ["--polygon", polygon, "--bbox=-1/4,1/4,-1/2,1/2"]):
        code, _, err = invoke(capsys, "region", "--k", "4", *argv)
        assert (code, err) == (0, ""), argv


def test_region_takes_bbox_only_with_an_output(capsys):
    for argv in (["--bbox", "garbage"], ["--point", "0,0", "--bbox", "1,2"],
                 ["--bbox", "-1/4,1/4,-1/2,1/2"]):
        code, out, err = invoke(capsys, "region", "--k", "4", *argv)
        assert code == 2 and out == "", argv
        assert "--bbox only with --polygon or --svg" in err, argv


def test_fuzz_command(capsys):
    code, out, _ = invoke(capsys, "fuzz", "--k", "3", "--trials", "40",
                          "--max-n", "9", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["trials_run"] == 40
    assert payload["violations"] == []
    # the trials read 64 bits of the seed, so a seed outside them is refused
    for seed in ("-1", str(2 ** 64)):
        code, out, err = invoke(capsys, "fuzz", "--k", "3", "--trials", "40",
                                "--max-n", "9", "--seed", seed)
        assert (code, out) == (2, "")
        assert err == f"error: seed must be in 0..2**64 - 1, got {seed}\n"


def test_tables_command(capsys):
    code, out, _ = invoke(capsys, "tables", "--which", "2")
    assert code == 0
    rows = out.splitlines()
    assert rows[1] == "3,9,1,2,1,0.11111,0.22222"
    assert rows[-1] == "11,649,5,54,5,0.00770,0.08320"
    code, out, _ = invoke(capsys, "tables", "--which", "1")
    assert "3,4/9,-1/9,," in out.splitlines()
    assert "4,5/11,0,1/2,-1/2" in out.splitlines()


def test_usage_errors(tmp_path, capsys):
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "matching")[0] == 2
    assert invoke(capsys, "matching", str(tmp_path / "missing.el"))[0] == 2
    assert invoke(capsys, "tables", "--which", "3")[0] == 2
    bad = write_graph(tmp_path, "bad.el", "2 9\n0 1\n")
    code, _, err = invoke(capsys, "matching", bad)
    assert code == 2 and "promises" in err


def test_a_long_number_is_reported_with_its_line_by_either_route(
        tmp_path, capsys):
    # int() refuses more than 4300 digits on Python 3.11 and later; on older
    # Pythons both routes report the edge as out of range instead
    edge = "0 " + "7" * 5000
    texts = (f"3 1\n{edge}\n", f"3 1\n{edge} # c\n")
    errs = []
    for name, text in zip(("bulk.el", "lines.el"), texts):
        code, out, err = invoke(capsys, "matching",
                                write_graph(tmp_path, name, text))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: ")
        errs.append(err)
    assert errs[0] == errs[1]


def test_a_faulty_line_is_quoted_only_in_part(tmp_path, capsys):
    for line, text in ((1, " ".join(["1"] * 10 ** 6) + "\n"),
                       (2, "3 1\n" + " ".join(["0"] * 2 * 10 ** 6) + "\n"),
                       (2, "3 1\n" + "7" * 10 ** 7 + "\n")):
        code, out, err = invoke(capsys, "matching",
                                write_graph(tmp_path, "long.el", text))
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line}: ") and len(err) < 200
    # a quote that fits is given whole
    code, _, err = invoke(capsys, "matching",
                          write_graph(tmp_path, "short.el", "3 1\n0 1 2\n"))
    assert err == "error: line 2: edge must be 'u v', got '0 1 2'\n"


@pytest.mark.parametrize("argv, message", [
    (["construct", "gkr", "--k", "3", "--r", "1"],
     "block_chain needs even k >= 4, got 3"),
    (["construct", "hkr", "--k", "3", "--r", "0"],
     "canonical_tree needs r >= 1, got 0"),
    (["construct", "hkr", "--k", "1", "--r", "3"],
     "canonical_tree needs k >= 2, got 1"),
    (["construct", "hkr", "--k", "3", "--tree", "EDGE", "--part2", "5"],
     "part-2 ids out of range"),
    (["region", "--k", "2"], "extreme_points needs k >= 3, got 2"),
    (["construct", "hkr", "--k", "3", "--tree", "EDGE", "--part2", "x"],
     "--part2 needs comma-separated vertex ids, got 'x'"),
    (["construct", "hkr", "--k", "3", "--tree", "EDGE", "--part2", "1,,2"],
     "--part2 needs comma-separated vertex ids, got '1,,2'"),
    (["region", "--k", "2", "--point", "0,0"],
     "extreme_points needs k >= 3, got 2"),
    (["construct", "hkr", "--k", "3", "--tree", "EDGE", "--part2", "x" * 5000],
     f"--part2 needs comma-separated vertex ids, got {'x' * 40!r}..."),
    (["region", "--k", "4", "--point", "1/" * 2500],
     f"--point needs 2 comma-separated rationals, got {'1/' * 20!r}..."),
    (["region", "--k", "4", "--point", "0," + "x" * 5000],
     f"not a rational number: {'x' * 40!r}..."),
])
def test_bad_family_and_region_parameters_exit_2(tmp_path, capsys, argv,
                                                 message):
    edge = write_graph(tmp_path, "edge.el", "2 1\n0 1\n")
    argv = [edge if a == "EDGE" else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["fuzz", "--k", "X", "--trials", "1", "--max-n", "5", "--seed", "1"],
    ["fuzz", "--k", "3", "--trials", "X", "--max-n", "5", "--seed", "1"],
    ["fuzz", "--k", "3", "--trials", "1", "--max-n", "X", "--seed", "1"],
    ["fuzz", "--k", "3", "--trials", "1", "--max-n", "5", "--seed", "X"],
    ["construct", "gkr", "--k", "X", "--r", "1"],
    ["construct", "gkr", "--k", "4", "--r", "X"],
    ["construct", "fkr", "--k", "4", "--r", "X"],
    ["construct", "hkr", "--k", "3", "--r", "X"],
    ["tutte-berge", "EDGE", "--max-n", "X"],
    ["audit", "EDGE", "--k", "X"],
    ["region", "--k", "X"],
])
def test_a_refused_integer_flag_is_quoted_only_in_part(tmp_path, capsys,
                                                       argv):
    edge = write_graph(tmp_path, "edge.el", "2 1\n0 1\n")
    flag = argv[argv.index("X") - 1]
    # not an int to any Python, whatever its digit limit
    for bad in ("x" * 5000, "7" * 5999 + "x"):
        code, out, err = invoke(capsys, *(
            edge if a == "EDGE" else bad if a == "X" else a for a in argv))
        assert (code, out) == (2, ""), flag
        assert err.endswith(f"error: argument {flag}: invalid int value: "
                            f"{bad[:40]!r}...\n"), flag
        assert bad[:41] not in err
    # a short refused value is quoted whole, as argparse quotes it
    code, _, err = invoke(capsys, *(
        edge if a == "EDGE" else "1.5" if a == "X" else a for a in argv))
    assert code == 2
    assert err.endswith(f"error: argument {flag}: invalid int value: "
                        "'1.5'\n")


def test_oversized_header_is_rejected_before_building(
        tmp_path, capsys, monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(edgelist, "build_graph", refuse)
    path = write_graph(tmp_path, "huge.el", "1000000000 0\n")
    code, out, err = invoke(capsys, "matching", path)
    assert code == 2 and out == ""
    assert f"exceeds the limit of {MAX_VERTICES} vertices" in err
    with pytest.raises(EdgeListError):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")


def test_oversized_edge_count_is_rejected_before_the_body_is_read(
        tmp_path, capsys, monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(edgelist, "build_graph", refuse)
    # a faulty second line would be reported if the body were read first
    for body in ("0 1\n" * 3, "nope\n", "0 1\n1 0\n"):
        path = write_graph(tmp_path, "many.el", f"5 {MAX_EDGES + 1}\n{body}")
        code, out, err = invoke(capsys, "matching", path)
        assert code == 2 and out == ""
        assert err == (f"error: line 1: m={MAX_EDGES + 1} exceeds the limit "
                       f"of {MAX_EDGES} edges\n")
    with pytest.raises(EdgeListError, match=f"limit of {MAX_EDGES} edges"):
        parse_edge_list(f"# intro\n5 {MAX_EDGES + 1} # comment\n")
    monkeypatch.undo()
    # the limit itself is allowed: what fails is the missing lines
    with pytest.raises(EdgeListError, match=f"promises {MAX_EDGES} edge"):
        parse_edge_list(f"5 {MAX_EDGES}\n0 1\n")


def test_oversized_members_and_sweeps_are_rejected_before_building(
        tmp_path, capsys, monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(families, "build_graph", refuse)
    monkeypatch.setattr(fuzz, "build_graph", refuse)
    # a two-vertex backbone dressed at k = 5001 has k*k + k vertices
    backbone = write_graph(tmp_path, "edge.el", "2 1\n0 1\n")
    code, out, err = invoke(capsys, "fuzz", "--k", "3", "--trials", "1",
                            "--max-n", str(MAX_FUZZ_ORDER + 1), "--seed", "1")
    assert code == 2 and out == ""
    assert f"{MAX_FUZZ_ORDER}, the fuzz order limit" in err
    for argv in (
            ["construct", "fkr", "--k", "4", "--r", "100000000"],
            ["construct", "gkr", "--k", "4", "--r", "10" + "0" * 12],
            # every block is at least one vertex, but gadgets push n over
            ["construct", "gkr", "--k", "4", "--r", "1000000"],
            ["construct", "gkr", "--k", "4", "--r", "2500000",
             "--blocks", "singles"],
            ["construct", "hkr", "--k", "3", "--r", "100000000"],
            ["construct", "hkr", "--k", "3", "--mode", "regular", "--r",
             "200000001"],
            ["construct", "hkr", "--k", "5001", "--tree", backbone,
             "--part2", "1"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"{MAX_VERTICES}" in err, argv


def test_members_with_too_many_edges_are_rejected_before_building(
        tmp_path, capsys, monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(families, "build_graph", refuse)
    backbone = write_graph(tmp_path, "edge.el", "2 1\n0 1\n")
    # each has fewer than MAX_VERTICES vertices but over MAX_EDGES edges
    for argv in (["construct", "fkr", "--k", "1000", "--r", "2"],
                 ["construct", "gkr", "--k", "3000", "--r", "1"],
                 ["construct", "hkr", "--k", "1001", "--tree", backbone,
                  "--part2", "1"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"{MAX_EDGES} edges" in err, argv


def readme_examples():
    """Map each `$ ...` line of the README to the lines shown under it."""
    examples = {}
    command = None
    for line in README.read_text().splitlines():
        if line.startswith("$ "):
            command = line[2:]
            examples[command] = []
        elif line.startswith("```"):
            command = None
        elif command is not None:
            examples[command].append(line)
    return examples


def readme_block(heading):
    """The body of the first fenced block after the README line `heading`."""
    text = README.read_text()
    fence = text.index("```", text.index(heading + "\n"))
    start = text.index("\n", fence) + 1
    return text[start:text.index("```", start)]


def test_readme_examples_match_the_cli_output(tmp_path, capsys, monkeypatch):
    examples = readme_examples()
    monkeypatch.chdir(tmp_path)
    # the complete graph on five vertices shown under the file format
    Path("k5.txt").write_text(readme_block("## Graph file format"))
    for command in ("region --k 4", "region --k 4 --point -1/11,3/11",
                    "tables --which 1", "tables --which 2",
                    "matching k5.txt", "tutte-berge k5.txt",
                    "audit k5.txt --k 4",
                    "construct gkr --k 4 --r 2 --blocks gssgsgs "
                    "--out chain.txt",
                    "matching chain.txt"):
        shown = examples["matchbound " + command]
        code, out, _ = invoke(capsys, *command.split())
        assert code == 0
        printed = out.splitlines()
        if shown and shown[-1] == "...":  # the README shows the first rows
            shown = shown[:-1]
            printed = printed[:len(shown)]
        assert printed == shown, command
    sidecar = json.loads(Path("chain.txt.json").read_text())
    assert (sidecar["n"], sidecar["m"], sidecar["alpha_predicted"]) == (
        21, 35, 8)
    exec(readme_block("## Library"), {})


def test_version_flag(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert out.startswith("matchbound ")


def test_a_cold_import_loads_no_code_generators_or_pathlib():
    # -S, because `site` alone may import pathlib (a .pth file can)
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import matchbound.cli\n"
              "print(*sorted(m for m in ('dataclasses', 'inspect', 'pathlib',"
              " 'matchbound.region') if m in sys.modules))\n")
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", script, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == []


def test_one_parser_serves_every_command_in_a_process(
        tmp_path, capsys, monkeypatch):
    star = write_graph(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
    commands = [
        ["matching", star],
        ["tutte-berge", star, "--max-n", "3"],
        ["nonsense"],
        ["--version"],
        ["audit", star, "--k", "4"],
        ["tables", "--which", "3"],
        ["construct", "gkr", "--k", "4", "--r", "2"],
        ["region", "--k", "4", "--point", "-1/11,3/11"],
        ["tutte-berge", star],
        ["construct", "hkr", "--k", "3", "--r", "4", "--part2", "1"],
        ["fuzz", "--k", "3", "--trials", "5", "--max-n", "8", "--seed", "1"],
        ["matching"],
    ]
    # the reference: a parser built afresh for every call
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [invoke(capsys, *argv) for argv in commands]
    assert {code for code, _, _ in fresh} == {0, 2}
    assert cli._build_parser() is cli._build_parser()
    assert [invoke(capsys, *argv) for argv in commands] == fresh
    assert [invoke(capsys, *argv) for argv in commands[::-1]] == fresh[::-1]


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # int() reads the Arabic-Indic digit two; under the C locale without
    # UTF-8 mode the locale's codec would be ASCII and refuse the file. A
    # leading byte-order mark is dropped, not read into the header
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHON"))}
    env.update(LC_ALL="C", PYTHONPATH=src)
    graph = tmp_path / "g.el"
    graph.write_bytes("3 1\n0 ٢\n".encode("utf-8"))
    tree = tmp_path / "t.el"
    tree.write_bytes("٢ 1\n0 1\n".encode("utf-8"))
    marked = tmp_path / "m.el"
    marked.write_bytes(b"\xef\xbb\xbf3 1\n0 1\n")
    marked_tree = tmp_path / "mt.el"
    marked_tree.write_bytes(b"\xef\xbb\xbf2 1\n0 1\n")
    broken = tmp_path / "b.el"
    broken.write_bytes(b"3 1\n0 \xff\n")

    def run(mode, *argv):
        done = subprocess.run(
            [sys.executable, "-X", f"utf8={mode}", "-m", "matchbound.cli",
             *argv], env=env, capture_output=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    hkr = ["construct", "hkr", "--k", "3", "--tree"]
    for argv, out in (
            (["matching", str(graph)], b'{"alpha":1,"witness":[[0,2]]}\n'),
            (["matching", str(marked)], b'{"alpha":1,"witness":[[0,1]]}\n'),
            ([*hkr, str(tree)], None),
            ([*hkr, str(marked_tree)], None)):
        ascii_run = run(0, *argv)
        assert ascii_run == run(1, *argv)
        assert ascii_run[0] == 0 and ascii_run[2] == b""
        assert out is None or ascii_run[1] == out
    # the marked tree is the tree whose header reads ٢
    assert run(0, *hkr, str(marked_tree)) == run(0, *hkr, str(tree))
    # a byte no UTF-8 text holds is refused alike in both modes
    ascii_run = run(0, "matching", str(broken))
    assert ascii_run == run(1, "matching", str(broken))
    assert ascii_run[0] == 2 and ascii_run[1] == b""
    assert ascii_run[2].startswith(b"error: 'utf-8' codec can't decode")
