"""Command-line interface: construct graphs, compute motion, classify,
and run batch verifications.

Every command produces a single structured document (JSON with a schema
version); the human-readable text output is derived from it.  Exit codes:
0 success/verified, 1 falsification, 2 invalid input, 3 cap exceeded,
4 internal error (any other exception; a crash never exits with 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .autengine import motion_witness, transitivity_aut
from .classify import (CorpusSpec, NotVertexTransitiveError, decompose,
                       named_graph, verify_corpus)
from .graphcore import Graph, from_graph6, parse_graph, to_graph6
from .grouptables import TABLE1, TABLE2, check_table_row, \
    enumerate_small_subgroup_pairs
from .permcore import CapExceededError, element_cap, format_cycles

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_graphs(args) -> Iterator[Graph]:
    """Input graphs: a family token, a graph6/edge-list literal, or stdin,
    one graph6 per non-blank line.  ``args.source`` names the one in use for
    ``main``, bar an edge list of several lines, whose errors name a line."""
    text = args.graph
    if text != "-":
        kind = "token" if ":" in text else "literal"
        args.source = None if "\n" in text else f"graph {kind} {text!r}"
        yield named_graph(text) if ":" in text else parse_graph(text)
        return
    for number, line in enumerate(sys.stdin.read().split("\n"), 1):
        if line.strip():
            args.source = f"stdin line {number} {line.strip()!r}"
            yield from_graph6(line)


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    graph = named_graph(args.token)
    g6 = to_graph6(graph)
    doc = {"schema": SCHEMA_VERSION, "command": "construct", "graph6": g6}
    lines = [g6]
    if args.describe:
        doc.update(vertices=graph.n, edges=graph.num_edges())
        doc["indexing"] = "vertices are 0-indexed internally, 1-indexed in "\
            "cycle notation; product and fibre indexing follow the library "\
            "conventions"
        lines += [f"vertices {graph.n}", f"edges {graph.num_edges()}"]
    _emit(doc, args.format, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# motion

def cmd_motion(args) -> int:
    results, lines = [], []
    for graph in _read_graphs(args):
        mu, witness = motion_witness(graph)
        results.append({"graph6": to_graph6(graph), "motion": mu,
                        "witness": format_cycles(witness)})
        lines += [f"motion {mu}", f"witness {format_cycles(witness)}"]
    doc = {"schema": SCHEMA_VERSION, "command": "motion", "results": results}
    _emit(doc, args.format, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    results, lines = [], []
    for graph in _read_graphs(args):
        aut = transitivity_aut(graph)
        if aut is None:
            raise NotVertexTransitiveError(
                "input graph is not vertex-transitive")
        witness = motion_witness(graph, aut=aut)
        mu = witness[0]
        if mu not in (2, 4):
            results.append({"graph6": to_graph6(graph), "motion": mu,
                            "note": "no motion-2/4 form"})
            lines.append(f"motion {mu} (no motion-2/4 form)")
            continue
        report = decompose(graph, witness=witness, aut=aut)
        results.append({**report.as_dict(), "graph6": to_graph6(graph)})
        form = report.form + (f" m={report.m}" if report.m else "")
        lines.append(f"motion {mu} form {form} "
                     f"verified {str(report.verified).lower()}")
    doc = {"schema": SCHEMA_VERSION, "command": "classify",
           "results": results}
    _emit(doc, args.format, lines)
    falsified = any(r.get("form") == "unclassified" for r in results)
    return EXIT_FALSIFIED if falsified else EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _verify_tables() -> tuple[dict, list[str], bool]:
    rows, lines, ok = [], [], True
    for table in (TABLE1, TABLE2):
        for row in table:
            name = f"table{row.table} row{row.index} ({row.x_desc}, {row.y_desc})"
            if not row.constructible:
                rows.append({"row": name, "status": "skip"})
                lines.append(f"SKIP {name}: not constructible")
                continue
            for params in row.sample_params:
                check = check_table_row(row, params)
                rows.append({"row": name, "params": list(params),
                             "status": check.status,
                             "details": check.details})
                lines.append(f"{check.status.upper()} {name} "
                             f"params={list(params)}")
                if check.status == "fail":
                    ok = False
    for m in (2, 3):
        enum = enumerate_small_subgroup_pairs(m)
        entry = {
            "row": f"pair enumeration m={m}",
            "subgroups": enum.total_subgroups,
            "pairs": len(enum.pairs),
            "row1_matched": enum.row1_matched,
            "even_semidirect_x_matched": enum.table4_row2_matched,
            "flips_only_x_matched": enum.table3_row2_matched,
        }
        rows.append(entry)
        lines.append(
            f"INFO pair enumeration m={m}: {enum.total_subgroups} subgroups, "
            f"{len(enum.pairs)} qualifying pairs, "
            f"row1={enum.row1_matched}, "
            f"even-semidirect X={enum.table4_row2_matched}, "
            f"flips-only X={enum.table3_row2_matched}")
        if m >= 3 and not (enum.row1_matched and enum.table4_row2_matched):
            ok = False
    return {"rows": rows}, lines, ok


def _verify_graphs(args) -> tuple[dict, list[str], bool]:
    spec = CorpusSpec(circulant_max=args.circulant_max)
    if args.quick:
        spec = CorpusSpec(circulant_max=min(args.circulant_max, 8),
                          inf_sigmas=("cycle:4", "cycle:6"),
                          inf_ms=(2,), lex_thetas=("complete:2",))
    summary = verify_corpus(spec, jobs=args.jobs)
    if capped := [r.label for r in summary.records if "cap" in str(r.error)]:
        raise CapExceededError("verifying " + ", ".join(capped))
    d = summary.as_dict()
    lines = [
        f"graphs {len(d['records'])}",
        f"motion counts {d['motion_counts']}",
        f"form counts {d['form_counts']}",
        f"odd prime motions {len(d['odd_prime_motions'])}",
        f"falsifications {len(d['falsifications'])}",
        f"non vertex-transitive {d['non_vertex_transitive']}",
    ]
    return d, lines, summary.ok


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.circulant_max < 2:
        raise ValueError(f"--circulant-max must be at least 2, "
                         f"got {args.circulant_max}")
    doc = {"schema": SCHEMA_VERSION, "command": "verify", "suite": args.suite}
    lines = []
    ok = True
    suites = {"tables": _verify_tables, "graphs": lambda: _verify_graphs(args)}
    for name, run in suites.items():
        if args.suite in (name, "all"):
            doc[name], more, passed = run()
            lines.extend(more)
            ok = ok and passed
    doc["ok"] = ok
    lines.append("RESULT " + ("ok" if ok else "FALSIFIED"))
    _emit(doc, args.format, lines)
    return EXIT_OK if ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallmotion",
        description="vertex-transitive graphs of small motion: "
                    "construction, motion, classification, verification")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph, print graph6")
    p.add_argument("token", help="graph token (see README: Graph tokens)")
    p.add_argument("--describe", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("motion", help="motion value and witness")
    p.add_argument("graph", help="family token, graph6 literal, or - (stdin)")
    p.set_defaults(func=cmd_motion)

    p = sub.add_parser("classify", help="decompose a motion-2/4 graph")
    p.add_argument("graph", help="family token, graph6 literal, or - (stdin)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("suite", choices=("tables", "graphs", "all"))
    p.add_argument("--circulant-max", type=int, default=12)
    p.add_argument("--quick", action="store_true",
                   help="smaller corpus, bounded runtime")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for corpus items")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        element_cap()  # an invalid SMALLMOTION_CAP is invalid input
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        source = getattr(args, "source", None)  # motion and classify input
        if source and source not in str(exc):
            exc = f"{source}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
