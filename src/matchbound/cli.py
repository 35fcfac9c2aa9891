"""Command-line front end: one subcommand per library area.

Exit codes: 0 success, 2 usage or input error (bad flags, unreadable or
malformed files), 1 a detected mathematical violation (a bound exceeding
the matching number under audit or fuzz). Data goes to stdout or named
output files; diagnostics go to stderr. Identical invocations produce
byte-identical output. Rationals are serialized as exact "p/q" strings;
decimal columns are the exact half-even rounding to five places.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

import argparse

from matchbound import __version__
from matchbound.bounds import (BoundEntry, audit_graph, bound_rows,
                               format_decimal)
from matchbound.edgelist import (emit_edge_list, parse_edge_list,
                                 parse_header, to_dot)
from matchbound.families import (GeneratedGraph, bipartite_tree, block_chain,
                                 canonical_tree, regular_gadget_ring,
                                 tree_with_gadgets)
from matchbound.fuzz import FuzzConfig, run_fuzz
from matchbound.graphs import MAX_VERTICES, clip_field
from matchbound.matching import (DEFAULT_MAX_N, MAX_ORACLE_ORDER,
                                 check_oracle_order, maximum_matching,
                                 tutte_berge)

# Strictly contains the extreme points of every k >= 3 (|gamma| <= 1/9,
# reached at k = 3; beta in (0, 3/11]), so `region` needs no --bbox.
DEFAULT_BBOX = (Fraction(-1, 4), Fraction(1, 4),
                Fraction(-1, 2), Fraction(1, 2))


def main(argv: list[str] | None = None) -> None:
    sys.exit(run_cli(argv))


def run_cli(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_tuple_flags(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _merge_tuple_flags(argv: list[str]) -> list[str]:
    """Join `--point -1/11,3/11` into `--point=-1/11,3/11`.

    argparse would otherwise read a value with a leading minus sign as an
    unknown flag; pre-merging keeps both the spaced and `=` spellings
    working. Only these spellings merge, so `region` allows no prefix.
    """
    merged: list[str] = []
    for tok in argv:
        # a merged token holds '=', so it never takes a second value
        if merged and merged[-1] in ("--point", "--bbox"):
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first run_cli call and then reused: parse_args keeps no
    # state in the parser, and building one takes longer than parsing
    parser = argparse.ArgumentParser(
        prog="matchbound",
        description="Matching numbers, lower bounds, extremal families, "
                    "and the valid-coefficient region for graphs of "
                    "bounded maximum degree.")
    parser.add_argument("--version", action="version",
                        version=f"matchbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matching",
                       help="maximum matching of an edge-list file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_matching)

    p = sub.add_parser("tutte-berge",
                       help="exhaustive deficiency-formula certificate")
    p.add_argument("file")
    p.add_argument("--max-n", type=_int_flag, default=DEFAULT_MAX_N,
                   help="refuse graphs larger than this (default %(default)s) "
                        f"or than {MAX_ORACLE_ORDER}, the oracle order limit")
    p.set_defaults(handler=_cmd_tutte_berge)

    p = sub.add_parser("audit",
                       help="evaluate every applicable lower bound")
    p.add_argument("file")
    p.add_argument("--k", type=_k_flag, required=True,
                   help="degree cap the bounds are taken at")
    p.add_argument("--json", metavar="OUT",
                   help="also write the report as JSON to OUT")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("construct", help="generate an extremal family member")
    p.set_defaults(handler=_cmd_construct)
    fam = p.add_subparsers(dest="family", required=True)

    f = fam.add_parser("gkr", help="chain of blocks joined by connectors")
    f.add_argument("--k", type=_k_flag, required=True)
    f.add_argument("--r", type=_int_flag, required=True,
                   help="number of connector vertices")
    f.add_argument("--blocks", default="gadgets",
                   help="'gadgets', 'singles', or a per-block string of "
                        "g/s (or 1/0) letters (default: gadgets)")
    _construct_output_flags(f)

    f = fam.add_parser("hkr", help="tree with gadget copies on one side")
    f.add_argument("--k", type=_k_flag, required=True)
    f.add_argument("--mode", choices=("tree", "regular"),
                   help="canonical backbone shape (with --r; default tree)")
    f.add_argument("--r", type=_int_flag,
                   help="size parameter of the canonical backbone")
    f.add_argument("--tree", metavar="FILE",
                   help="explicit backbone tree as an edge-list file")
    f.add_argument("--part2", metavar="IDS",
                   help="comma-separated vertex ids forming the gadget "
                        "side of --tree (default: the bipartition class "
                        "not containing vertex 0)")
    _construct_output_flags(f)

    f = fam.add_parser("fkr", help="k-regular ring of shared gadgets")
    f.add_argument("--k", type=_k_flag, required=True)
    f.add_argument("--r", type=_int_flag, required=True,
                   help="number of hub vertices")
    _construct_output_flags(f)

    p = sub.add_parser("region", allow_abbrev=False,
                       help="the convex set of good (gamma, beta) pairs")
    p.add_argument("--k", type=_k_flag, required=True)
    p.add_argument("--point", metavar="G,B",
                   help="classify one rational pair, e.g. -1/11,3/11")
    p.add_argument("--polygon", metavar="OUT.csv",
                   help="write the clipped region polygon as CSV")
    p.add_argument("--svg", metavar="OUT.svg",
                   help="write an SVG rendering of the region")
    p.add_argument("--bbox", metavar="G0,G1,B0,B1",
                   help="clip box for --polygon/--svg (default "
                        f"{','.join(map(str, DEFAULT_BBOX))})")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("fuzz",
                       help="random-graph audit sweep; exits 1 on violation")
    p.add_argument("--k", type=_k_flag, required=True)
    p.add_argument("--trials", type=_int_flag, required=True)
    p.add_argument("--max-n", type=_int_flag, required=True)
    p.add_argument("--seed", type=_int_flag, required=True)
    p.add_argument("--allow-regular", action="store_true",
                   help="keep samples that happen to be k-regular")
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("tables", help="reference tables as CSV")
    p.add_argument("--which", choices=("1", "2"), required=True,
                   help="1: k-regular connected reference bounds; "
                        "2: scaled integer bound coefficients")
    p.set_defaults(handler=_cmd_tables)

    return parser


def _int_flag(text: str) -> int:
    """``int`` for an integer flag, quoting a refused value only in part."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {clip_field(text)}") from None


def _k_flag(text: str) -> int:
    """``_int_flag`` for ``--k``, refusing a k above MAX_VERTICES: no graph
    the package reads or builds has a degree as large, and the bounds of a
    k of thousands of digits would be printed in full."""
    k = _int_flag(text)
    if k > MAX_VERTICES:
        raise argparse.ArgumentTypeError(
            f"{clip_field(k)} exceeds {MAX_VERTICES}, the vertex limit")
    return k


def _construct_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE",
                   help="write the graph to FILE and a JSON sidecar to "
                        "FILE.json (default: stdout, no sidecar)")
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz text instead of an edge list")


def _read_text(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which Windows tools write
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def _write_files(*outputs: tuple[str, str]) -> None:
    """Write each (path, text); paths naming one file are refused first. If
    a write fails, the files this call has opened are removed before the
    error is raised, so a failed run leaves none of its output files behind."""
    if len({os.path.realpath(path) for path, _ in outputs}) < len(outputs):
        raise ValueError("two outputs name one file: "
                         + ", ".join(clip_field(path) for path, _ in outputs))
    opened: list[str] = []
    try:
        for path, text in outputs:
            with open(path, "w") as f:
                opened.append(path)
                f.write(text)
    except OSError:
        for path in opened:
            os.remove(path)
        raise


def _cmd_matching(args: argparse.Namespace) -> int:
    m = maximum_matching(parse_edge_list(_read_text(args.file)))
    # maximum_matching already lists its edges in lexicographic order
    payload = {"alpha": m.size, "witness": m.edges}
    print(json.dumps(payload, separators=(",", ":")))
    return 0


def _cmd_tutte_berge(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    # an order the oracle refuses is refused from the header, before a
    # graph of that order is built
    check_oracle_order(parse_header(text)[0], args.max_n)
    cert = tutte_berge(parse_edge_list(text), max_n=args.max_n)
    payload = {"alpha": cert.value, "witness": cert.witness}
    print(json.dumps(payload, separators=(",", ":")))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    report = audit_graph(parse_edge_list(_read_text(args.file)), args.k)
    rows = [_audit_row(e, report.alpha) for e in report.entries]
    # the report file is written first, so a failed write prints nothing
    if args.json:
        payload = {"alpha": report.alpha, "k": args.k, "entries": rows}
        _write_files((args.json, json.dumps(payload, indent=2) + "\n"))
    print(f"alpha = {report.alpha}")
    for r in rows:
        if not r["applicable"]:
            print(f"{r['name']:24} skipped: {r['reason']}")
            continue
        flag = ("  VIOLATED" if r["violated"]
                else "  tight" if r["tight"] else "")
        print(f"{r['name']:24} value {r['value']:>8}  slack "
              f"{r['slack']:>8}{flag}")
    return 1 if report.violations else 0


def _audit_row(e: BoundEntry, alpha: int) -> dict:
    """One entry as audit prints it; the slack is margin/scale."""
    margin = e.margin(alpha)
    applicable = margin is not None
    return {"name": e.name, "applicable": applicable, "reason": e.reason,
            "value": str(e.value) if applicable else None,
            "slack": str(Fraction(margin, e.scale)) if applicable else None,
            "tight": margin == 0, "violated": applicable and margin < 0}


def _cmd_construct(args: argparse.Namespace) -> int:
    gg = _build_family(args)
    text = to_dot(gg.graph) if args.dot else emit_edge_list(gg.graph)
    if args.out:
        sidecar = {
            "n": gg.graph.vertex_count,
            "m": gg.graph.edge_count,
            "alpha_predicted": gg.predicted_alpha,
            "link_vertices": list(gg.link_vertices),
        }
        _write_files((args.out, text), (args.out + ".json",
                                        json.dumps(sidecar, indent=2) + "\n"))
    else:
        sys.stdout.write(text)
    return 0


def _build_family(args: argparse.Namespace) -> GeneratedGraph:
    if args.family == "gkr":
        return block_chain(args.k, args.r, args.blocks)
    if args.family == "fkr":
        return regular_gadget_ring(args.k, args.r)
    if args.tree is not None:
        if args.r is not None or args.mode is not None:
            raise ValueError(
                "construct hkr takes --tree or --r/--mode, not both")
        backbone = parse_edge_list(_read_text(args.tree))
        part2 = None
        if args.part2 is not None:
            try:
                part2 = [int(s) for s in args.part2.split(",")]
            except ValueError:
                raise ValueError("--part2 needs comma-separated vertex ids, "
                                 f"got {clip_field(args.part2)}") from None
        return tree_with_gadgets(args.k, bipartite_tree(backbone, part2))
    if args.part2 is not None:
        raise ValueError("construct hkr takes --part2 only with --tree")
    if args.r is None:
        raise ValueError("construct hkr needs --r (or an explicit --tree)")
    return tree_with_gadgets(args.k,
                             canonical_tree(args.k, args.r,
                                            args.mode or "tree"))


def _parse_rationals(text: str, count: int, what: str
                     ) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(
            f"{what} needs {count} comma-separated rationals, "
            f"got {clip_field(text)}")
    values = []
    for part in parts:
        try:
            # Fraction computes 10**exponent in full, which takes minutes for
            # a short part: an exponent past CPython's 4300-digit limit for
            # integer strings is refused first
            if abs(int(part.lower().partition("e")[2] or 0)) > 4300:
                raise ValueError
            values.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"not a rational number: {clip_field(part)}") from None
    return tuple(values)


def _cmd_region(args: argparse.Namespace) -> int:
    # only this command needs region, so the others start without it
    from matchbound.region import (classify_pair, classify_pair_geometric,
                                   extreme_points, half_spaces, polygon_svg,
                                   region_polygon)
    k = args.k
    draw = args.polygon or args.svg
    if args.bbox is not None and not draw:
        raise ValueError("region takes --bbox only with --polygon or --svg")
    if args.point is None and not draw:
        payload = {
            "k": k,
            "extreme_points": [[str(g), str(b)]
                               for g, b in extreme_points(k)],
            "half_spaces": [{"slope": str(h.slope),
                             "intercept": str(h.intercept)}
                            for h in half_spaces(k)],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    # the verdict, polygon and drawing are all computed before anything is
    # printed or written, so bad input leaves no output and no file
    verdict = None
    if args.point is not None:
        p = _parse_rationals(args.point, 2, "--point")
        good = classify_pair(k, p)
        if good != classify_pair_geometric(k, p):
            raise AssertionError(
                f"classifier disagreement at {p} for k={k}")
        boundary = good and any(h.on_boundary(p) for h in half_spaces(k))
        verdict = json.dumps(
            {"classification": "good" if good else "bad",
             "boundary": boundary},
            separators=(",", ":"))
    if draw:
        bbox = (DEFAULT_BBOX if args.bbox is None
                else _parse_rationals(args.bbox, 4, "--bbox"))
        points = region_polygon(k, bbox)
        outputs = []
        if args.polygon:
            rows = ["gamma_exact,beta_exact,gamma_dec,beta_dec"]
            rows.extend(
                f"{g},{b},{format_decimal(g)},{format_decimal(b)}"
                for g, b in points)
            outputs.append((args.polygon, "\n".join(rows) + "\n"))
        if args.svg:
            outputs.append((args.svg, polygon_svg(points, bbox)))
        _write_files(*outputs)
    if verdict is not None:
        print(verdict)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(k=args.k, trials=args.trials, max_n=args.max_n,
                        seed=args.seed,
                        forbid_regular_components=not args.allow_regular)
    outcome = run_fuzz(config)
    violations = [v._replace(graph=emit_edge_list(v.graph))._asdict()
                  for v in outcome.violations]
    payload = outcome._replace(violations=violations)._asdict()
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 1 if outcome.violations else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.which == "1":
        print("k,n_coeff,constant,cap_n_coeff,cap_constant")
        for k in range(3, 9):
            cells = [str(Fraction(x, row.scale))
                     for row in bound_rows(k).reference
                     for x in (row.n_coeff, -row.const)]
            print(",".join([str(k), *cells] + [""] * (4 - len(cells))))
        return 0
    print("k,scale,n_coeff,m_coeff,constant,n_coeff_dec,m_coeff_dec")
    for k in range(3, 12):
        row = bound_rows(k).general
        a_dec = format_decimal(Fraction(row.n_coeff, row.scale))
        b_dec = format_decimal(Fraction(row.m_coeff, row.scale))
        print(f"{k},{row.scale},{row.n_coeff},{row.m_coeff},{row.c_coeff},"
              f"{a_dec},{b_dec}")
    return 0


if __name__ == "__main__":
    main()
