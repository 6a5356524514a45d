"""Write the benchmark's fixed inputs, oracle references and output baselines.

    python3 perfbench/make_data.py [--workload NAME]

Run from the root of the repository; it takes tens of minutes, almost all
of it in the networkx enumeration of automorphisms.  For each workload it
writes ``perfbench/data/<workload>.json``, a list of family members, each
with:

- ``input``: the member in its canonical labelling.  The benchmark applies
  a fresh seeded relabelling every time it sends the member.
- ``ref``: answers from oracles that do not use smallmotion, all invariant
  under relabelling.  Graphs: networkx isomorphism searches give the
  vertex-transitive flag and the automorphism group order, and networkx
  enumeration of every automorphism gives the motion.  Groups: sympy gives
  the order, and an element scan of sympy's group gives the minimal degree
  and the cycle types the classifiers look for.  A value is null where the
  enumeration is over ``AUT_ENUMERATION_CAP``; the benchmark then checks
  only the program's witness for that member.
- ``baseline``: the program's own output at the commit that wrote the file
  (form tags, the structured ``motion`` JSON, the pair count).  The
  benchmark reports a change from it, and does not count it as a failure.

smallmotion is imported from ``src/`` only to build inputs that are defined
by the library's own families (the ``CorpusSpec()`` corpus, the table rows,
the named groups) and to record baselines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import (WORKLOADS, cycle_lengths, data_path,  # noqa: E402
                    g6_decode, g6_encode, group_elements, is_prime)

AUT_ENUMERATION_CAP = 50_000
GROUP_ORDER_LIMIT = 10_000

# ---------------------------------------------------------------------------
# graph constructions for motion-large (index conventions of the program)


def complete(n):
    return n, list(itertools.combinations(range(n), 2))


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def circulant(n, conn):
    edges = set()
    for i in range(n):
        for d in conn:
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


def cartesian(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    edges = [(v2 * n1 + a, v2 * n1 + b) for v2 in range(n2) for a, b in e1]
    edges += [(a * n1 + v1, b * n1 + v1) for a, b in e2 for v1 in range(n1)]
    return n1 * n2, edges


def lex(delta, theta):
    (nd, ed), (nt, et) = delta, theta
    edges = [(g * nd + a, g * nd + b) for g in range(nt) for a, b in ed]
    edges += [(g1 * nd + d1, g2 * nd + d2) for g1, g2 in et
              for d1 in range(nd) for d2 in range(nd)]
    return nd * nt, edges


def hypercube(d):
    g = complete(2)
    for _ in range(d - 1):
        g = cartesian(g, complete(2))
    return g


def paley(p):
    residues = {x * x % p for x in range(1, p)}
    return circulant(p, [d for d in range(1, p // 2 + 1) if d in residues])


# Larger vertex-transitive graphs, 13 <= n <= 64.  Hypercubes and C5 x C5
# style products have moderate groups scanned element by element; Paley
# graphs and circulants have small groups but long automorphism searches;
# the two lex products have |Aut| above the program's scan limit, so they
# take the support-search path.
MOTION_LARGE = (
    [(f"Q{d}", hypercube(d)) for d in (4, 5, 6)]
    + [(f"C{a}xC{b}", cartesian(cycle(a), cycle(b)))
       for a, b in ((3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12),
                    (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (5, 5),
                    (5, 6), (5, 7), (5, 8), (5, 9), (6, 6), (6, 7))]
    + [(f"K{a}xK{b}", cartesian(complete(a), complete(b)))
       for a, b in ((3, 6), (4, 4), (4, 5))]
    + [(f"Paley{p}", paley(p)) for p in (13, 17, 29, 37, 41, 61)]
    + [(f"circulant{n}:{'-'.join(map(str, s))}", circulant(n, s))
       for n, s in ((31, (1, 5)), (32, (1, 3, 7)), (33, (1, 4, 10)),
                    (34, (1, 8)), (35, (1, 6)), (36, (1, 5, 11)),
                    (37, (1, 6)), (38, (1, 4)), (39, (1, 5, 14)),
                    (40, (1, 3, 9)), (41, (1, 9)), (42, (1, 5, 13)),
                    (43, (1, 6, 16)), (45, (1, 7)), (48, (1, 6, 16)),
                    (64, (1, 2, 5)))]
    + [("lex(C5,C5)", lex(cycle(5), cycle(5))),
       ("lex(prism3,C5)", lex(cartesian(complete(3), complete(2)),
                              cycle(5)))]
)


def vt_corpus_members():
    """The CorpusSpec() stream, deduplicated by isomorphism as the library
    builds it."""
    from smallmotion.classify import CorpusSpec, corpus_generators
    return [(label, (g.n, g.edges()))
            for label, g in corpus_generators(CorpusSpec())]


# ---------------------------------------------------------------------------
# group pool


def _images(group):
    return [list(g.images) for g in group.generators]


def random_imprimitive_groups(count):
    """Transitive imprimitive groups drawn as in acceptance criterion 9:
    two random generators of degree 4, 6, 8, 9 or 10 from Random(90).
    Members above GROUP_ORDER_LIMIT are passed over."""
    from sympy.combinatorics import Permutation as SPerm, PermutationGroup
    rng = random.Random(90)
    out = []
    while len(out) < count:
        n = rng.choice([4, 6, 8, 9, 10])
        gens = [rng.sample(range(n), n) for _ in range(2)]
        grp = PermutationGroup([SPerm(g) for g in gens])
        if grp.is_transitive() and not grp.is_primitive() \
                and grp.order() <= GROUP_ORDER_LIMIT:
            out.append(gens)
    return out


def group_members():
    """(name, input) per member.  A table-1 member is given by the
    generators of X in ``wreath_s2_of``: the benchmark builds X wr S2 with
    the program's wreath product.

    Table-1 wreath examples above GROUP_ORDER_LIMIT are left out: at this
    commit each costs 3 to 37 s, so one round of the pool would not fit a
    benchmark run.  So are AGL1, PSL2 and PGL2 over p = 11 and 13, which
    cost 2 to 11 s each once relabelled.
    """
    from smallmotion import grouptables as gt
    from smallmotion.wreath import wreath_product
    out = []

    def member(name, degree, gens, classifier, **extra):
        out.append((name, dict(degree=degree, generators=gens,
                               classifier=classifier, **extra)))

    for row in gt.TABLE1:
        if not row.constructible:
            continue
        for params in row.sample_params:
            p, _, x, y = row.x_spec(*params)
            for tag, inner in (("X", x), ("Y", y)):
                if wreath_product(inner, gt.sym_group(2)).order() > \
                        GROUP_ORDER_LIMIT:
                    continue
                member(f"table1 row{row.index}{list(params)} {tag} wr S2",
                       2 * inner.degree, None, "p_cycle",
                       wreath_s2_of=_images(inner), table1_p=p)
    for row in gt.TABLE2:
        for params in row.sample_params:
            _, _, x, y = row.x_spec(*params)
            for tag, g in (("X", x), ("Y", y)):
                member(f"table2 row{row.index}{list(params)} {tag}",
                       g.degree, _images(g), "two_two")
    for m in (2, 3, 4):
        for fam in ("c2_wr_sym", "tau_cross_sym", "even_flips_rtimes_sym"):
            g = getattr(gt, fam)(m)
            member(f"{fam}({m})", g.degree, _images(g), "two_two")
    for fam in ("agl1", "psl2", "pgl2"):
        for p in (5, 7):
            g = getattr(gt, fam)(p)
            member(f"{fam}({p})", g.degree, _images(g), "p_cycle")
    for i, gens in enumerate(random_imprimitive_groups(61)):
        member(f"random imprimitive {i}", len(gens[0]), gens, None)
    return out


def wreath_s2_generators(inner_degree, inner_gens):
    """Generators of X wr S2 on 2m points, copy c holding c*m .. c*m+m-1."""
    m = inner_degree
    gens = []
    for g in inner_gens:
        for c in (0, 1):
            images = list(range(2 * m))
            for d in range(m):
                images[c * m + d] = c * m + g[d]
            gens.append(images)
    gens.append([(d + m) % (2 * m) for d in range(2 * m)])
    return gens


# ---------------------------------------------------------------------------
# oracles


def graph_reference(n, edges):
    """Vertex-transitivity, |Aut| and motion from networkx alone.

    |Aut| is the product of orbit lengths along the point stabilizers of
    0, 1, 2, ...; each orbit is grown by pinned isomorphism searches.  The
    motion is the least support over an enumeration of every automorphism,
    made only when |Aut| <= AUT_ENUMERATION_CAP.
    """
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    degrees = {d for _, d in g.degree()}
    src, dst = g.copy(), g.copy()
    found = []
    order = 1
    vt = False
    for v in range(n):
        for x in range(n):
            lab = x + 1 if x < v else 0
            src.nodes[x]["pin"] = lab
            dst.nodes[x]["pin"] = lab
        level = [m for m in found if all(m[i] == i for i in range(v))]
        orbit = _orbit(v, level)
        for w in range(v + 1, n):
            if w in orbit:
                continue
            src.nodes[v]["pin"] = -1
            dst.nodes[w]["pin"] = -1
            m = nx.vf2pp_isomorphism(src, dst, node_label="pin")
            dst.nodes[w]["pin"] = 0
            if m is None:
                continue
            found.append(m)
            level.append(m)
            orbit = _orbit(v, level)
        if v == 0:
            vt = len(orbit) == n and len(degrees) == 1
        order *= len(orbit)
    motion = None
    if 1 < order <= AUT_ENUMERATION_CAP:
        count = 0
        for m in nx.vf2pp_all_isomorphisms(g, g):
            count += 1
            s = sum(1 for k, x in m.items() if k != x)
            if s and (motion is None or s < motion):
                motion = s
        if count != order:
            raise RuntimeError(f"enumerated {count} automorphisms, "
                               f"orbit product {order}")
    return {"vertex_transitive": vt, "aut_order": order, "motion": motion}


def _orbit(v, maps):
    orbit = {v}
    frontier = [v]
    while frontier:
        frontier = [m[x] for x in frontier for m in maps if m[x] not in orbit]
        orbit.update(frontier)
    return orbit


def group_reference(degree, gens):
    """Order from sympy; minimal degree and cycle types by element scan."""
    from sympy.combinatorics import Permutation as SPerm, PermutationGroup
    grp = PermutationGroup([SPerm(list(g)) for g in gens])
    if not grp.is_transitive():
        raise RuntimeError("pool members must be transitive")
    mindeg = None
    prime_cycles = set()
    small = two_two = False
    for e in grp.generate():
        images = tuple(e.array_form)
        ct = cycle_lengths(images)
        if not ct:
            continue
        supp = sum(ct)
        mindeg = supp if mindeg is None else min(mindeg, supp)
        if len(ct) == 1 and is_prime(ct[0]):
            prime_cycles.add(ct[0])
        small = small or ct in ((2,), (3,))
        two_two = two_two or ct == (2, 2)
    return {"order": int(grp.order()), "mindeg": mindeg,
            "primitive": bool(grp.is_primitive()),
            "prime_cycle_lengths": sorted(prime_cycles),
            "has_transposition_or_3_cycle": small,
            "has_2_2_element": two_two}


def _applicable_classifier(ref):
    if ref["prime_cycle_lengths"]:
        return "p_cycle"
    if ref["has_2_2_element"]:
        return "two_two"
    return None


def subgroup_count_c2_wr_s3():
    """Subgroups of Sym(2) wr Sym(3), the group on the pairs {2i, 2i+1}.

    Every subgroup of this group of order 48 is generated by at most three
    elements, so the closures of all element triples give every subgroup.
    """
    swap = (1, 0, 2, 3, 4, 5)
    rot = (2, 3, 4, 5, 0, 1)
    trans = (2, 3, 0, 1, 4, 5)
    elems = sorted(group_elements(6, [swap, rot, trans]))
    if len(elems) != 48:
        raise RuntimeError("Sym(2) wr Sym(3) must have order 48")
    subgroups = set()
    for r in (1, 2, 3):
        for gens in itertools.combinations(elems, r):
            subgroups.add(group_elements(6, gens))
    return len(subgroups)


# ---------------------------------------------------------------------------
# baselines: the program's outputs at this commit


def vt_baseline(n, edges):
    from smallmotion.classify import verify_graph
    from smallmotion.graphcore import Graph
    rec = verify_graph(("baseline", Graph.from_edges(n, edges)))
    return {"form": rec.form}


def motion_baseline(g6):
    from smallmotion import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--format", "structured", "motion", g6])
    if code != 0:
        raise RuntimeError(f"motion {g6} exited with {code}")
    return {"motion_json": buf.getvalue()}


# ---------------------------------------------------------------------------


def build(workload):
    members = []
    if workload == "vt-corpus":
        for label, (n, edges) in vt_corpus_members():
            g6 = g6_encode(n, edges)
            members.append({"name": label, "input": {"graph6": g6},
                            "baseline": vt_baseline(n, edges)})
    elif workload == "motion-large":
        for name, (n, edges) in MOTION_LARGE:
            g6 = g6_encode(n, edges)
            members.append({"name": name, "input": {"graph6": g6},
                            "baseline": motion_baseline(g6)})
    else:
        for name, inp in group_members():
            members.append({"name": name, "input": inp})
        from smallmotion.grouptables import enumerate_small_subgroup_pairs
        enum = enumerate_small_subgroup_pairs(3)
        members.append({
            "name": "enumerate_small_subgroup_pairs(3)",
            "input": {"enumerate_m": 3},
            # criterion 6: row 1 and the even-flip row-2 X occur; the
            # flips-only row-2 X never does
            "ref": {"row1_matched": True, "table4_row2_matched": True,
                    "table3_row2_matched": False},
            "baseline": {"pairs": len(enum.pairs)}})
    for mem in members:
        t = time.perf_counter()
        inp = mem["input"]
        if "graph6" in inp:
            mem["ref"] = graph_reference(*g6_decode(inp["graph6"]))
        elif "degree" in inp:
            gens = inp["generators"]
            if gens is None:
                gens = wreath_s2_generators(inp["degree"] // 2,
                                            inp["wreath_s2_of"])
            mem["ref"] = group_reference(inp["degree"], gens)
            if inp["classifier"] is None:
                inp["classifier"] = _applicable_classifier(mem["ref"])
        else:
            mem["ref"]["total_subgroups"] = subgroup_count_c2_wr_s3()
        print(f"{workload} {mem['name']}: {mem['ref']} "
              f"({time.perf_counter() - t:.1f}s)", file=sys.stderr,
              flush=True)
    return {"workload": workload, "members": members}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        doc = build(workload)
        with open(data_path(workload), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
