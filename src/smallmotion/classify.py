"""Structural decomposition of vertex-transitive graphs of motion 2 and 4,
plus corpus generation and batch verification.

A graph of motion 2 or 4 decomposes over the block system of its witness
block, the smallest block of Aut holding its motion witness's support.
The block's outside classes, its vertices grouped by their neighbourhood
outside it, pick the one form tried.  With one class the block is a
module, and only a lex form can fit (complete, edgeless, C5, prism, or
co-prism fibres over a vertex-transitive quotient; for motion 2 the
block is a twin class): the paired-fibre form needs two classes.  With
two or more, some vertex outside the block is adjacent to part of it
only, yet the lex product over the quotient joins its block to all of
this one; the blocks' subgraphs are all the fibre, so the lex
reconstruction has more edges than the graph and only the paired-fibre
form can fit.  The attempt builds, with its reconstruction, a candidate
isomorphism onto it from the graph's own blocks and fibres, and the
round trip is that map's edge-by-edge check; no search runs on the whole
graph.  A graph whose map fails, or that fits neither form, is reported
as unclassified with diagnostics, never silently dropped.

The paired fibres are read off the graph.  Split a block B of Aut into
classes of vertices with equal neighbourhood outside B; with at most two
classes, these are the orbits on B of Z, the pointwise stabilizer of the
complement of B.  Proof: a permutation fixing the complement pointwise is
an automorphism iff it is one of the subgraph on B mapping each class onto
itself, so each Z-orbit lies in a class.  The block stabilizer is
transitive on B and permutes the classes; an element of it sending a to
a' in one class maps that class, and so the other one, onto itself, so
its action on B, extended by the identity, lies in Z.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .autengine import AutResult, motion_witness, transitivity_aut
from .graphcore import (Graph, InfParams, _maps_onto, _SourcePath,
                        alternate_matching, antipodal_matching, are_isomorphic,
                        circulant_graph, complete_graph, cycle_graph,
                        empty_graph, inf_graph, invariant_graphs_under,
                        lex_product, prism_graph, quotient_graph,
                        to_graph6)
from .grouptables import even_flips_rtimes_sym, tau_cross_sym
from .permcore import (BlockSystem, CapExceededError, Permutation, _is_prime,
                       format_cycles)


class NotVertexTransitiveError(ValueError):
    """The decomposition theorems require a vertex-transitive input."""


@dataclass
class ClassificationReport:
    """Outcome of a decomposer: canonical form, witnesses, and round-trip."""

    motion: int
    form: str
    m: Optional[int] = None
    theta: Optional[Graph] = None
    sigma: Optional[Graph] = None
    pairs: Optional[BlockSystem] = None
    lam: Optional[int] = None
    kap: Optional[int] = None
    reconstruction: Optional[Graph] = None
    verified: bool = False
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The set fields, graphs in graph6; kappa comes with lambda."""
        out = {"motion": self.motion, "form": self.form,
               "verified": self.verified, "m": self.m, "lambda": self.lam,
               "kappa": self.kap, "diagnostics": self.diagnostics or None,
               "pairs": self.pairs and list(map(list, self.pairs.blocks))}
        for key in ("theta", "sigma", "reconstruction"):
            graph = getattr(self, key)
            out[key] = None if graph is None else to_graph6(graph)
        return {key: val for key, val in out.items() if val is not None}


# ---------------------------------------------------------------------------
# decomposition over the witness block

def _outside_classes(graph: Graph, block) -> list[tuple[int, ...]]:
    """The block's vertices grouped by their neighbourhood outside it, as
    sorted tuples in sorted order."""
    outside = ~sum(1 << v for v in block)
    classes: dict[int, list[int]] = {}
    for v in sorted(block):
        classes.setdefault(graph.adj[v] & outside, []).append(v)
    return sorted(map(tuple, classes.values()))


def _lex_fibres(size: int):
    """(form, m, fibre) for each lex fibre on ``size`` vertices."""
    yield "lex_Km", size, complete_graph(size)
    yield "lex_mK1", size, empty_graph(size)
    if size == 5:
        yield "lex_C5", None, cycle_graph(5)
    if size >= 6 and size % 2 == 0:
        yield "lex_prism", size // 2, prism_graph(size // 2)
        yield "lex_coprism", size // 2, prism_graph(size // 2).complement()


def _try_lex_form(graph: Graph, mu: int, bs, delta: _SourcePath, group):
    """The lex report over bs before its round trip, and the candidate
    isomorphism onto its reconstruction as images; or None.  ``delta`` is
    the first path of the subgraph on bs's first block B.  Vertex v of
    block i goes to i*|B| + phi(u(v)): the group's mover u takes block i
    onto B, and phi, found by the fibre test, takes B's subgraph onto the
    fibre.  When the witness block has one outside class, the map is an
    isomorphism onto ``lex_product(fibre, theta)``.  Proof: that block is
    a module; Aut permutes the blocks transitively, so every block is one,
    and each pair of blocks is joined completely or not at all, exactly as
    theta records.  u is an automorphism taking block i onto B, and phi
    takes B onto the fibre."""
    for form, m, fibre in _lex_fibres(delta.graph.n):
        phi = are_isomorphic(delta.graph, fibre, delta)
        if phi is not None:
            break
    else:
        return None
    theta = quotient_graph(graph, bs.blocks)
    report = ClassificationReport(motion=mu, form=form, m=m, theta=theta,
                                  reconstruction=lex_product(fibre, theta))
    pos, images = dict(zip(bs.blocks[0], phi.images)), [0] * graph.n
    for i, block in enumerate(bs.blocks):
        u = group.mover(block[0], bs.blocks[0][0]).images
        for v in block:
            images[v] = i * delta.graph.n + pos[u[v]]
    return report, images


def _try_inf_form(graph: Graph, mu: int, bs, classes):
    """As ``_try_lex_form``, for the paired-fibre form; ``classes`` holds
    the outside classes of each block of bs.  The fibres are each block's
    two classes of size m >= 2: the orbits of the pointwise stabilizer of
    the block's complement, by the lemma in the module docstring.  The
    bits are read off block 0's fibres F1 and F2: kappa is the adjacency
    of F1's first two vertices, and lambda is 1 if F2's first vertex has
    one neighbour in F1, else 0 if it has m - 1 (at m = 2, one neighbour
    gives lambda = 1).  The first fibre keeps its order; each vertex of
    the second takes the place of its one neighbour (lambda = 1) or
    non-neighbour (lambda = 0) in it, else -1.  No proof is known that
    the classes always line up with the fibres of a paired-fibre graph, so
    the round trip's check of this map is the proof."""
    m = len(bs.blocks[0]) // 2
    if m < 2 or any([len(c) for c in cs] != [m, m] for cs in classes):
        return None
    (f1, f2), fibres = classes[0], sum(classes, [])
    kap = graph.adj[f1[0]] >> f1[1] & 1
    c = (graph.adj[f2[0]] & sum(1 << v for v in f1)).bit_count()
    lam = 1 if c == 1 else 0 if c == m - 1 else None
    if lam is None:
        return None
    sigma = quotient_graph(graph, fibres)
    pairs = alternate_matching(sigma.n)
    images = [0] * graph.n
    for alpha in range(0, sigma.n, 2):
        pos = {1 << v: i for i, v in enumerate(fibres[alpha])}
        for i, v in enumerate(fibres[alpha]):
            images[v] = alpha * m + i
        for w in fibres[alpha + 1]:
            i = pos.get((graph.adj[w] if lam else ~graph.adj[w]) & sum(pos))
            images[w] = -1 if i is None else (alpha + 1) * m + i
    return ClassificationReport(
        motion=mu, form="inf", m=m, sigma=sigma, pairs=pairs, lam=lam,
        kap=kap, reconstruction=inf_graph(InfParams(lam, kap, m), sigma,
                                          pairs)), images


def decompose(graph: Graph, witness: Optional[tuple[int, Permutation]] = None,
              aut: Optional[AutResult] = None) -> ClassificationReport:
    """Decompose a vertex-transitive graph of motion 2 or 4.

    One form is tried over the system of the witness block, the smallest
    block of Aut holding the support of the motion witness x (a twin
    class for motion 2; every vertex for C5 itself): the lex forms (K_m,
    mK_1, C5, prism or co-prism fibres) when the block's vertices share
    one neighbourhood outside it, else the paired-fibre form.  Each
    block's outside classes are computed once.  The form counts once its
    round trip holds: the attempt's candidate isomorphism is a bijection
    and keeps every edge.  Only a lex attempt builds a first path, of the
    block's subgraph, shared by every fibre candidate.  An unclassified
    result carries diagnostics.  ``witness`` is
    ``motion_witness(graph, aut)`` and ``aut`` is
    ``transitivity_aut(graph)`` when the caller has them; else each is
    computed here, once.
    """
    if aut is None:
        aut = transitivity_aut(graph)
    if aut is None:
        raise NotVertexTransitiveError("input graph is not vertex-transitive")
    if witness is None:
        witness = motion_witness(graph, aut=aut)
    mu, x = witness
    if mu not in (2, 4):
        raise ValueError(f"no decomposition for motion {mu}")
    group, supp = aut.group, x.support()
    bs = group.block_system_from(supp)
    witness_at = bs.block_of[min(supp)]
    classes = [_outside_classes(graph, block) for block in bs.blocks]
    if len(classes[witness_at]) == 1:
        sub, _ = graph.induced_subgraph(bs.blocks[0])
        found = _try_lex_form(graph, mu, bs, _SourcePath(sub, [0] * sub.n),
                              group)
    else:
        found = _try_inf_form(graph, mu, bs, classes)
    if found is not None:
        report, images = found
        if sorted(images) == list(range(graph.n)) and _maps_onto(
                graph, images, report.reconstruction):
            report.verified = True
            return report
    return ClassificationReport(
        motion=mu, form="unclassified", verified=False,
        diagnostics={
            "graph6": to_graph6(graph),
            "aut_order": group.order(),
            "aut_generators": [str(g) for g in group.generators],
            "witness": format_cycles(x),
            "block": list(bs.blocks[witness_at]),
        })


# ---------------------------------------------------------------------------
# corpus

@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus configuration; the entries are graph tokens
    (see ``named_graph``)."""

    circulant_max: int = 12
    inf_sigmas: tuple = ("cycle:4", "cycle:6", "cycle:8", "prism:3")
    inf_ms: tuple = (2, 3)
    lex_deltas: tuple = ("complete:2", "empty:2", "complete:3", "empty:3",
                         "cycle:5")
    lex_thetas: tuple = ("complete:2", "cycle:5")
    invariant_union_ms: tuple = (3,)


_FAMILIES = {"complete": complete_graph, "empty": empty_graph,
             "cycle": cycle_graph, "prism": prism_graph}
_INVARIANT_GROUPS = {"tauxsym": tau_cross_sym,
                     "evenxsym": even_flips_rtimes_sym}


def _take(fields: list[str], i: int, k: int) -> list[str]:
    if len(fields) < i + k:
        raise ValueError("wrong number of fields")
    return fields[i:i + k]


def _int(field: str) -> int:
    if not field.removeprefix("-").isdecimal():
        raise ValueError(f"expected an integer, got {field!r}")
    return int(field)


def _multiplicity(field: str) -> int:
    if not (field.startswith("m") and field[1:].isdecimal()):
        raise ValueError(f"expected m<size>, got {field!r}")
    return int(field[1:])


def _parse_graph(fields: list[str], i: int) -> tuple[Graph, int]:
    """The graph of the token at fields[i], and the index after the token."""
    (name,) = _take(fields, i, 1)
    if name in _FAMILIES:
        (n,) = _take(fields, i + 1, 1)
        return _FAMILIES[name](_int(n)), i + 2
    if name == "circulant":
        n, conn = _take(fields, i + 1, 2)
        return circulant_graph(_int(n), [_int(d) for d in conn.split("-")]
                               if conn else []), i + 3
    if name == "lex":
        delta, j = _parse_graph(fields, i + 1)
        theta, j = _parse_graph(fields, j)
        return lex_product(delta, theta), j
    if name == "inf":
        bits, family, n, mname, mfield = _take(fields, i + 1, 5)
        if bits not in ("00", "01", "10", "11"):
            raise ValueError(f"expected two bits, got {bits!r}")
        pairs = dict(sigma_matchings(family, _int(n))).get(mname)
        if pairs is None:
            raise ValueError(f"no matching {mname!r} for {family}:{n}")
        params = InfParams(int(bits[0]), int(bits[1]), _multiplicity(mfield))
        return inf_graph(params, _FAMILIES[family](int(n)), pairs), i + 6
    if name == "invariant":
        gname, mfield, index = _take(fields, i + 1, 3)
        if gname not in _INVARIANT_GROUPS:
            raise ValueError(f"unknown group {gname!r}")
        graphs = invariant_graphs_under(
            _INVARIANT_GROUPS[gname](_multiplicity(mfield)))
        if not 0 <= _int(index) < len(graphs):
            raise ValueError(f"index {index} outside 0..{len(graphs) - 1}")
        return graphs[int(index)], i + 4
    raise ValueError(f"unknown graph family {name!r}")


def named_graph(token: str) -> Graph:
    """Build a graph from a token such as "lex:complete:2:cycle:5" (grammar
    in the README); a malformed token raises ValueError naming it."""
    fields = token.split(":")
    try:
        graph, end = _parse_graph(fields, 0)
        if end != len(fields):
            raise ValueError("wrong number of fields")
    except ValueError as exc:
        raise ValueError(f"graph token {token!r}: {exc}") from None
    return graph


def sigma_matchings(family: str, n: int) -> list[tuple[str, BlockSystem]]:
    """The pair partitions used with the base graph of a family and size."""
    if family == "cycle":
        if n % 2:
            raise ValueError("paired fibres need an even base graph")
        out = [("alternate", alternate_matching(n))]
        if antipodal_matching(n) != alternate_matching(n):
            out.append(("antipodal", antipodal_matching(n)))
        return out
    if family == "prism":
        return [("rungs", BlockSystem.from_blocks(
            2 * n, [(i, i + n) for i in range(n)]))]
    raise ValueError(f"no matchings defined for '{family}:{n}'")


def circulant_corpus(max_n: int) -> Iterator[tuple[str, Graph]]:
    """The circulants with 2 <= n <= max_n, one of each complementary pair
    of connection sets, deterministic order."""
    for n in range(2, max_n + 1):
        half = list(range(1, n // 2 + 1))
        for r in range(len(half) + 1):
            for s in itertools.combinations(half, r):
                if tuple(d for d in half if d not in s) < s:
                    continue
                label = f"circulant:{n}:" + "-".join(map(str, s))
                yield label, circulant_graph(n, s)


def inf_corpus(sigmas, ms) -> Iterator[tuple[str, Graph]]:
    labels = (f"inf:{lam}{kap}:{family}:{n}:{mname}:m{m}"
              for family, n in (token.split(":") for token in sigmas)
              for mname, _ in sigma_matchings(family, int(n)) for m in ms
              for lam, kap in itertools.product((0, 1), repeat=2))
    return ((label, named_graph(label)) for label in labels)


def lex_corpus(deltas, thetas) -> Iterator[tuple[str, Graph]]:
    labels = (f"lex:{dt}:{tt}" for dt in deltas for tt in thetas)
    return ((label, named_graph(label)) for label in labels)


def invariant_union_corpus(ms) -> Iterator[tuple[str, Graph]]:
    """Unions of pair-orbit graphs of the superflip-and-permute groups."""
    for m in ms:
        for gname, group in _INVARIANT_GROUPS.items():
            for i, g in enumerate(invariant_graphs_under(group(m))):
                yield f"invariant:{gname}:m{m}:{i}", g


def corpus_generators(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    """The deterministic corpus stream, isomorphism-deduplicated per size."""
    raw = itertools.chain(circulant_corpus(spec.circulant_max),
                          inf_corpus(spec.inf_sigmas, spec.inf_ms),
                          lex_corpus(spec.lex_deltas, spec.lex_thetas),
                          invariant_union_corpus(spec.invariant_union_ms))
    seen: dict[int, list[Graph]] = {}
    for label, graph in raw:
        bucket = seen.setdefault(graph.n, [])
        path = _SourcePath(graph, [0] * graph.n)    # for the whole bucket
        if any(are_isomorphic(graph, old, path) is not None for old in bucket):
            continue
        bucket.append(graph)
        yield label, graph


# ---------------------------------------------------------------------------
# batch verification

@dataclass
class GraphRecord:
    label: str
    graph6: str
    vertex_transitive: bool
    motion: Optional[int] = None
    form: Optional[str] = None
    verified: Optional[bool] = None
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return {key: val for key, val in vars(self).items()
                if val is not None}


@dataclass
class CorpusSummary:
    records: list
    form_counts: dict
    motion_counts: dict
    odd_prime_motions: list          # labels: must stay empty
    falsifications: list             # labels of unverified decompositions
    non_vertex_transitive: int

    @property
    def ok(self) -> bool:
        return not self.odd_prime_motions and not self.falsifications

    def as_dict(self) -> dict:
        return {
            "records": [r.as_dict() for r in self.records],
            "form_counts": dict(sorted(self.form_counts.items())),
            "motion_counts": {str(k): v for k, v in
                              sorted(self.motion_counts.items())},
            "odd_prime_motions": self.odd_prime_motions,
            "falsifications": self.falsifications,
            "non_vertex_transitive": self.non_vertex_transitive,
            "ok": self.ok,
        }


def verify_graph(item: tuple[str, Graph]) -> GraphRecord:
    """The per-graph verification step: motion, decomposition, round-trip."""
    label, graph = item
    g6 = to_graph6(graph)
    aut = transitivity_aut(graph)
    if aut is None:
        return GraphRecord(label, g6, False)
    rec = GraphRecord(label, g6, True)
    try:
        witness = motion_witness(graph, aut=aut)
    except ValueError:
        # trivial automorphism group: motion undefined (n = 1)
        rec.error = "motion undefined"
        return rec
    except CapExceededError as exc:
        rec.error = f"cap exceeded: {exc}"
        return rec
    rec.motion = witness[0]
    if rec.motion in (2, 4):
        report = decompose(graph, witness=witness, aut=aut)
        rec.form = report.form
        rec.verified = report.verified
    return rec


def summarize(records: list[GraphRecord]) -> CorpusSummary:
    vt = [rec for rec in records if rec.vertex_transitive]
    motions = [rec for rec in vt if rec.motion is not None]
    forms = [rec for rec in vt if rec.form is not None]
    return CorpusSummary(
        records=records, form_counts=dict(Counter(r.form for r in forms)),
        motion_counts=dict(Counter(r.motion for r in motions)),
        odd_prime_motions=[r.label for r in motions
                           if r.motion % 2 and _is_prime(r.motion)],
        falsifications=[r.label for r in forms if not r.verified],
        non_vertex_transitive=len(records) - len(vt))


def verify_corpus(spec: CorpusSpec, jobs: int = 1) -> CorpusSummary:
    """Run the motion and decomposition checks over a corpus.

    Failures are data: odd-prime motions and unverified decompositions
    are collected, never raised.  With jobs > 1 the work goes to at most
    min(jobs, items, CPUs) processes; the record order is unchanged.
    """
    items = list(corpus_generators(spec))
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            records = pool.map(verify_graph, items)
    else:
        records = [verify_graph(item) for item in items]
    return summarize(records)
