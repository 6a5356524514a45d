"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each test exercises a criterion end to end at desk scale and enforces the
stated runtime cap.  Run with ``pytest -v tests/test_acceptance.py`` to get
the per-criterion pass/fail listing.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import smallmotion
from oracles import (automorphism_group_brute, embed_imprimitive, has_edge,
                     inf_grid, inf_is_vertex_transitive_predicted,
                     inf_motion2_predicted, minimal_degree_full_scan, motion,
                     with_edge_removed)
from smallmotion.autengine import automorphism_group, transitivity_aut
from smallmotion.cli import main
from smallmotion.classify import (CorpusSpec, circulant_corpus,
                                  corpus_generators, named_graph,
                                  verify_corpus)
from smallmotion.graphcore import (InfParams, circulant_graph,
                                   complete_graph, cycle_graph, empty_graph,
                                   inf_graph, lex_product, prism_graph)
from smallmotion.grouptables import (TABLE2, check_table2_row,
                                     enumerate_small_subgroup_pairs)
from smallmotion.permcore import PermGroup, Permutation
from smallmotion.wreath import wreath_product


class Timer:
    def __init__(self, cap_seconds):
        self.cap = cap_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.cap, \
                f"runtime {self.elapsed:.1f}s exceeds cap {self.cap}s"


def report(n, ok, detail=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_motion_converses():
    """Blow-ups by twins give motion 2; the four rigid shapes give 4."""
    with Timer(120):
        failures = []
        thetas = [("K1", complete_graph(1)), ("K2", complete_graph(2)),
                  ("C5", cycle_graph(5))]
        for tname, theta in thetas:
            for m in (2, 3, 4):
                if motion(lex_product(complete_graph(m), theta)) != 2:
                    failures.append(f"lex(K{m},{tname})")
                if motion(lex_product(empty_graph(m), theta)) != 2:
                    failures.append(f"lex({m}K1,{tname})")
            if motion(lex_product(cycle_graph(5), theta)) != 4:
                failures.append(f"lex(C5,{tname})")
            for m in (3, 4):
                prism = prism_graph(m)
                if motion(lex_product(prism, theta)) != 4:
                    failures.append(f"lex(prism{m},{tname})")
                if motion(lex_product(prism.complement(), theta)) != 4:
                    failures.append(f"lex(coprism{m},{tname})")
    report(1, not failures, ", ".join(failures))


def test_criterion_02_odd_prime_exclusion():
    """No graph in the circulant and construction grids has prime odd motion."""
    with Timer(600):
        bad = []
        items = list(circulant_corpus(14))
        for token, mname, params, sigma, pairs in inf_grid():
            items.append((f"inf:{token}:{mname}:{params}",
                          inf_graph(params, sigma, pairs)))
        spec = CorpusSpec()
        for label, g in lex_items_from_spec(spec):
            items.append((label, g))
        for label, g in items:
            if transitivity_aut(g) is None or g.n < 2:
                continue
            mu = motion(g)
            if mu in (3, 5, 7, 11, 13):
                bad.append(f"{label} -> {mu}")
    report(2, not bad, ", ".join(bad))


def lex_items_from_spec(spec):
    for dt in spec.lex_deltas:
        for tt in spec.lex_thetas:
            yield f"lex:{dt}:{tt}", lex_product(named_graph(dt),
                                                named_graph(tt))


def test_criterion_03_prime_motion_values():
    """Cyclic-symmetry instances with motion p-1 for p = 5 and 7."""
    ok = (motion(cycle_graph(5)) == 4
          and motion(circulant_graph(7, [1, 2])) == 6
          and motion(lex_product(circulant_graph(7, [1, 2]),
                                 complete_graph(2))) == 6)
    report(3, ok)


def test_criterion_04_decomposition_roundtrip():
    """Every motion-2/4 corpus graph classifies and reconstructs."""
    with Timer(900):
        summary = verify_corpus(CorpusSpec())
        unclassified = summary.form_counts.get("unclassified", 0)
        ok = (summary.ok and unclassified == 0
              and not summary.falsifications)
    report(4, ok,
           f"{len(summary.records)} graphs, "
           f"{unclassified} unclassified, "
           f"{len(summary.falsifications)} falsified")


def test_criterion_05_table2_closures():
    """Every order-2 support-4 element of Y generates a copy of X."""
    with Timer(120):
        failures = []
        for row in TABLE2[1:]:       # the four fully determined rows
            check = check_table2_row(row, ())
            if check.status != "pass":
                failures.append(f"{row.x_desc}/{row.y_desc}")
    report(5, not failures, ", ".join(failures))


def test_criterion_06_pair_enumeration():
    """Brute-force subgroup pairs of the pair-swap wreath for m = 2, 3."""
    with Timer(300):
        e2 = enumerate_small_subgroup_pairs(2)
        e3 = enumerate_small_subgroup_pairs(3)
        ok = (e2.row1_matched and e3.row1_matched
              and e3.table4_row2_matched
              and not e3.table3_row2_matched)
    report(6, ok,
           f"m=2: {len(e2.pairs)} pairs; m=3: {len(e3.pairs)} pairs; "
           f"row-2 X is the even-flip semidirect form "
           f"(flips-only variant never occurs)")


def test_criterion_07_paired_fibre_identities():
    """Complement and edge-pruning identities as vertex-indexed equalities."""
    failures = []
    for token, mname, params, sigma, pairs in inf_grid():
        g = inf_graph(params, sigma, pairs)
        flipped = InfParams((params.lam + 1) % 2, (params.kap + 1) % 2,
                            params.m)
        if g.complement() != inf_graph(flipped, sigma.complement(), pairs):
            failures.append(f"complement {token} {mname} {params}")
        for a, b in pairs.blocks:
            if has_edge(sigma, a, b):
                if inf_graph(params, with_edge_removed(sigma, a, b), pairs) != g:
                    failures.append(f"pruning {token} {mname} {params}")
    report(7, not failures, ", ".join(failures))


def test_criterion_08_paired_fibre_dichotomy():
    """Vertex-transitivity and motion-2 criteria across the grid.

    The criteria are oracle code
    (``oracles.inf_is_vertex_transitive_predicted`` and
    ``oracles.inf_motion2_predicted``), checked against the library's
    computed vertex-transitivity and motion.

    Outcome recorded here: the transitivity criterion is exact everywhere;
    the proof's parity reading of the motion-2 criterion is exact for
    m >= 3, while the statement's reading is refuted; at m = 2 the only
    deviations are the equal-bit antipodal 4-cycle instances, whose
    blow-ups collapse to motion 2 (consistent with the m >= 3 hypothesis
    of the rigid-shape converses).
    """
    vt_failures = []
    parity_failures = []
    statement_refuted = False
    m2_exceptions = []
    for token, mname, params, sigma, pairs in inf_grid():
        g = inf_graph(params, sigma, pairs)
        vt = transitivity_aut(g) is not None
        if vt != inf_is_vertex_transitive_predicted(sigma, pairs):
            vt_failures.append(f"{token} {mname} {params}")
        if not vt:
            continue
        mu = motion(g)
        parity = inf_motion2_predicted(params, sigma, pairs, "unequal")
        stated = inf_motion2_predicted(params, sigma, pairs, "equal")
        if stated != (mu == 2):
            statement_refuted = True
        if parity != (mu == 2):
            if params.m >= 3:
                parity_failures.append(f"{token} {mname} {params}")
            else:
                m2_exceptions.append((token, mname, params))
    ok = (not vt_failures and not parity_failures and statement_refuted
          and all(p.lam == p.kap for _, _, p in m2_exceptions))
    report(8, ok,
           f"statement reading refuted, parity reading exact for m>=3, "
           f"{len(m2_exceptions)} equal-bit exceptions at m=2")


def test_criterion_09_embedding_soundness():
    """For 50 imprimitive groups, phi(g) lies in Y wr Sym(k) for every
    generator g, and the point bijection intertwines g with phi(g).

    The embedding is oracle code (``oracles.embed_imprimitive``) built on
    the library's ``wreath_product``, block stabilizer and chain."""
    rng = random.Random(90)
    groups = []
    for inner_n, outer_n in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        inner = PermGroup(inner_n,
                          [Permutation.from_cycles(inner_n, [[0, 1]]),
                           Permutation.from_cycles(inner_n,
                                                   [list(range(inner_n))])])
        outer = PermGroup(outer_n,
                          [Permutation.from_cycles(outer_n,
                                                   [list(range(outer_n))])])
        groups.append(wreath_product(inner, outer))
    while len(groups) < 50:
        n = rng.choice([4, 6, 8, 9, 10])
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
        grp = PermGroup(n, gens)
        if grp.is_transitive() and not grp.is_primitive():
            groups.append(grp)
    failures = 0
    for grp in groups:
        bs = grp.minimal_block_system()
        emb = embed_imprimitive(grp, bs)
        if not emb.verified:
            failures += 1
            continue
        for g in grp.generators:
            for omega in range(grp.degree):
                if emb.f(g(omega)) != emb.phi[g](emb.f(omega)):
                    failures += 1
    report(9, failures == 0,
           f"phi(g) in Y wr Sym(k) for {len(groups)} groups")


def test_criterion_10_oracle_equivalence():
    """Backtracking Aut vs full scan; prime-order vs full mindeg scan."""
    with Timer(600):
        aut_failures = []
        for label, g in corpus_generators(CorpusSpec()):
            if g.n > 8:
                continue
            if automorphism_group(g).order != \
                    automorphism_group_brute(g).order():
                aut_failures.append(label)
        rng = random.Random(100)
        mindeg_failures = 0
        for _ in range(100):
            gens = [Permutation(rng.sample(range(8), 8))
                    for _ in range(rng.randint(1, 3))]
            grp = PermGroup(8, gens)
            if grp.order() == 1:
                continue
            if grp.minimal_degree() != minimal_degree_full_scan(grp):
                mindeg_failures += 1
        ok = not aut_failures and mindeg_failures == 0
    report(10, ok,
           f"{len(aut_failures)} aut mismatches, "
           f"{mindeg_failures} mindeg mismatches")


DESK_SCALE_TOKENS = ("prism:60", "prism:100", "inf:11:prism:20:rungs:m3",
                     "lex:prism:20:cycle:5", "inf:10:cycle:60:alternate:m8")

M24_CYCLES = ([tuple(range(1, 24))],
              [(3, 17, 10, 7, 9), (4, 13, 14, 19, 5), (8, 18, 11, 12, 23),
               (15, 20, 22, 21, 16)],
              [(1, 24), (2, 23), (3, 12), (4, 16), (5, 18), (6, 10), (7, 20),
               (8, 14), (9, 21), (11, 17), (13, 22), (15, 19)])

# Aut chains with about n levels; a basic orbit of n - l points each
DEEP_CHAIN_TOKENS = ("empty:450", "complete:300", "prism:300")


def peak_rss_run(*args: str) -> dict:
    """``tests/peak_rss.py`` on the CLI with args in a fresh interpreter:
    its exit code, wall time and peak RSS, unmixed with this process's
    other children."""
    src = str(Path(smallmotion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("peak_rss.py")), "--",
         sys.executable, "-m", "smallmotion.cli", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    return json.loads(proc.stdout)


def test_criterion_11_desk_scale_motion():
    """Structured motion and classify of graphs with 120 to 480 vertices
    and |Aut| up to 2 * 100!, each within 10 s; M24's minimal degree
    within 1 s; structured classify of graphs whose Aut chain has 300 to
    450 levels, in a subprocess, within 10 s and under 200 MB peak RSS."""
    failures = []
    for token in DESK_SCALE_TOKENS:
        for command in ("motion", "classify"):
            out = io.StringIO()
            with Timer(10), contextlib.redirect_stdout(out):
                code = main(["--format", "structured", command, token])
            result = json.loads(out.getvalue())["results"][0]
            if code != 0 or result["motion"] != 4:
                failures.append(f"{command} {token}")
    m24 = PermGroup(24, [Permutation.from_cycles(
        24, [[x - 1 for x in c] for c in gen]) for gen in M24_CYCLES])
    with Timer(1):
        mindeg = m24.minimal_degree()
    if mindeg != 16:
        failures.append(f"M24 minimal degree {mindeg}")
    for token in DEEP_CHAIN_TOKENS:
        run = peak_rss_run("--format", "structured", "classify", token)
        if run["exit"] or run["seconds"] >= 10 or run["peak_mb"] >= 200:
            failures.append(f"classify {token}: {run}")
    report(11, not failures, ", ".join(failures))
