"""Structural decomposition of vertex-transitive graphs of motion 2 and 4,
plus corpus generation and batch verification.

Motion-2 graphs decompose over their twin classes into lex products with
complete or edgeless fibres.  A motion-4 graph decomposes over the block
system of the smallest block holding its motion witness's support: first
as a lex form (C5, prism, or co-prism fibres over a vertex-transitive
quotient), then as a paired-fibre graph; one that fits neither is reported
as unclassified with diagnostics, never silently dropped.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .autengine import (AutResult, aut_preserving_partition, find_twins,
                        is_vertex_transitive, motion_witness,
                        transitivity_aut)
from .graphcore import (Graph, InfParams, PairPartition, alternate_matching,
                        antipodal_matching, are_isomorphic, circulant_graph,
                        complete_graph, cycle_graph, empty_graph, inf_graph,
                        invariant_graphs_under, lex_product, matching_graph,
                        prism_graph, quotient_graph, to_graph6)
from .permcore import (CapExceededError, PermGroup, Permutation, _is_prime,
                       format_cycles, transversal)

FORM_TAGS = ("lex_Km", "lex_mK1", "lex_C5", "lex_prism", "lex_coprism",
             "inf", "unclassified")


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
    pairs: Optional[PairPartition] = None
    lam: Optional[int] = None
    kap: Optional[int] = None
    reconstruction: Optional[Graph] = None
    verified: bool = False
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"motion": self.motion, "form": self.form,
               "verified": self.verified}
        if self.m is not None:
            out["m"] = self.m
        if self.theta is not None:
            out["theta"] = to_graph6(self.theta)
        if self.sigma is not None:
            out["sigma"] = to_graph6(self.sigma)
        if self.pairs is not None:
            out["pairs"] = [list(p) for p in self.pairs.pairs]
        if self.lam is not None:
            out["lambda"] = self.lam
            out["kappa"] = self.kap
        if self.reconstruction is not None:
            out["reconstruction"] = to_graph6(self.reconstruction)
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


# ---------------------------------------------------------------------------
# motion 2: twin-class decomposition

def _classes_from_pairs(n: int, pairs) -> list[tuple[int, ...]]:
    """The orbits of the group generated by the pairs' transpositions."""
    group = PermGroup(n, [Permutation.from_cycles(n, [p]) for p in pairs])
    return sorted(tuple(sorted(o)) for o in group.orbits())


def decompose_motion2(graph: Graph,
                      aut: Optional[AutResult] = None) -> ClassificationReport:
    """Decompose a vertex-transitive motion-2 graph over its twin classes.
    ``aut`` is ``transitivity_aut(graph)`` when the caller has it."""
    if not is_vertex_transitive(graph, aut=aut):
        raise NotVertexTransitiveError("input graph is not vertex-transitive")
    twins = find_twins(graph)
    if not twins:
        raise ValueError("graph has no twin vertices, so its motion is not 2")
    candidates = []
    for tag, pair_list, fibre in (
            ("lex_Km", twins.true_twins, complete_graph),
            ("lex_mK1", twins.false_twins, empty_graph)):
        if not pair_list:
            continue
        classes = _classes_from_pairs(graph.n, pair_list)
        sizes = {len(c) for c in classes}
        if len(sizes) == 1 and sizes != {1}:
            candidates.append((tag, classes, fibre))
    if not candidates:
        raise ValueError("twin classes do not cover the vertex set uniformly")
    tag, classes, fibre = candidates[0]
    m = len(classes[0])
    theta = quotient_graph(graph, classes)
    reconstruction = lex_product(fibre(m), theta)
    verified = are_isomorphic(reconstruction, graph) is not None
    diagnostics = {}
    if len(candidates) > 1:
        diagnostics["also_fits"] = [c[0] for c in candidates[1:]]
    return ClassificationReport(
        motion=2, form=tag, m=m, theta=theta,
        reconstruction=reconstruction, verified=verified,
        diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# motion 4

def _restricted_orbits(group, block: tuple[int, ...]):
    """Orbits on the block of the pointwise stabilizer of its complement."""
    blockset = frozenset(block)
    z = group.pointwise_stabilizer(set(range(group.degree)) - blockset)
    orbits = [o for o in z.orbits() if o & blockset]
    if not all(o <= blockset for o in orbits):
        raise RuntimeError(f"an orbit leaves the block {block}")
    return [tuple(sorted(o)) for o in orbits]


def _try_lex_form(graph: Graph, bs, orbits) -> Optional[ClassificationReport]:
    """``orbits``: ``_restricted_orbits`` of the first block of bs."""
    block = bs.blocks[0]
    if len(orbits) != 1:
        return None             # block-complement stabilizer not transitive
    delta, _ = graph.induced_subgraph(block)
    theta = quotient_graph(graph, bs.blocks)
    size = len(block)
    if size == 5 and are_isomorphic(delta, cycle_graph(5)) is not None:
        form, m, fibre = "lex_C5", None, cycle_graph(5)
    elif size >= 6 and size % 2 == 0 and \
            are_isomorphic(delta, prism_graph(size // 2)) is not None:
        form, m, fibre = "lex_prism", size // 2, prism_graph(size // 2)
    elif size >= 6 and size % 2 == 0 and \
            are_isomorphic(delta,
                           prism_graph(size // 2).complement()) is not None:
        form, m = "lex_coprism", size // 2
        fibre = prism_graph(size // 2).complement()
    else:
        return None
    reconstruction = lex_product(fibre, theta)
    if are_isomorphic(reconstruction, graph) is None:
        return None
    return ClassificationReport(
        motion=4, form=form, m=m, theta=theta,
        reconstruction=reconstruction, verified=True)


_INF_FORMS = ((1, 0, matching_graph),
              (1, 1, prism_graph),
              (0, 1, lambda m: matching_graph(m).complement()),
              (0, 0, lambda m: prism_graph(m).complement()))


def _try_inf_form(graph: Graph, bs, aut,
                  orbits) -> Optional[ClassificationReport]:
    """``orbits``: ``_restricted_orbits`` of the first block of bs."""
    size = len(bs.blocks[0])
    if size < 4 or size % 2:
        return None
    m = size // 2
    delta, _ = graph.induced_subgraph(bs.blocks[0])
    lam = kap = None
    for lam_c, kap_c, build in _INF_FORMS:
        if are_isomorphic(delta, build(m)) is not None:
            lam, kap = lam_c, kap_c
            break
    if lam is None:
        return None
    # the fibres are the orbits, inside each block, of the pointwise
    # stabilizer of that block's complement: expect two orbits of size m.
    # An element g mapping the first block onto another conjugates the
    # stabilizers, so it maps the first block's orbits onto the other's.
    if len(orbits) != 2 or any(len(o) != m for o in orbits):
        return None
    a = bs.blocks[0][0]
    moves = transversal(aut.identity(), aut.generators, key=lambda h: h(a))
    fibres: list[tuple[int, ...]] = []
    for block in bs.blocks:
        g = moves[block[0]]
        fibres.extend(sorted(tuple(sorted(map(g, o))) for o in orbits))
    k2 = len(fibres)
    adj_sets = [sum(1 << v for v in f) for f in fibres]
    edges = []
    for i in range(k2):
        for j in range(i + 1, k2):
            if any(graph.adj[v] & adj_sets[j] for v in fibres[i]):
                edges.append((i, j))
    sigma = Graph.from_edges(k2, edges)
    pairs = alternate_matching(k2)
    reconstruction = inf_graph(InfParams(lam, kap, m), sigma, pairs)
    if are_isomorphic(reconstruction, graph) is None:
        return None
    return ClassificationReport(
        motion=4, form="inf", m=m, sigma=sigma, pairs=pairs,
        lam=lam, kap=kap, reconstruction=reconstruction, verified=True)


def decompose_motion4(graph: Graph,
                      witness: Optional[tuple[int, Permutation]] = None,
                      aut: Optional[AutResult] = None) -> ClassificationReport:
    """Decompose a vertex-transitive motion-4 graph.

    The one block tried is the smallest block of the automorphism group
    holding the support of the motion witness x (the whole vertex set for
    C5 itself); over its system the lex forms (C5 / prism / co-prism
    fibres) are tried, then the paired-fibre form.  An unclassified result
    carries diagnostics.  ``witness`` is ``motion_witness(graph, aut)`` and
    ``aut`` is ``transitivity_aut(graph)`` when the caller has them; else
    each is computed here, once for all the steps.
    """
    if aut is None:
        aut = transitivity_aut(graph)
    if not is_vertex_transitive(graph, aut=aut):
        raise NotVertexTransitiveError("input graph is not vertex-transitive")
    if witness is None:
        witness = motion_witness(graph, aut=aut)
    mu, x = witness
    if mu != 4:
        raise ValueError(f"motion is {mu}, not 4")
    group = aut.group
    block = group._block_closure(x.support())
    bs = group.block_system_from(block)
    orbits = _restricted_orbits(group, bs.blocks[0])
    report = _try_lex_form(graph, bs, orbits) or \
        _try_inf_form(graph, bs, group, orbits)
    if report is not None:
        return report
    return ClassificationReport(
        motion=4, form="unclassified", verified=False,
        diagnostics={
            "graph6": to_graph6(graph),
            "aut_order": group.order(),
            "aut_generators": [str(g) for g in group.generators],
            "witness": format_cycles(x),
            "block": sorted(block),
        })


def decompose(graph: Graph, witness: Optional[tuple[int, Permutation]] = None,
              aut: Optional[AutResult] = None) -> ClassificationReport:
    """Dispatch on the motion value (2 or 4).  ``witness`` is
    ``motion_witness(graph, aut)`` and ``aut`` is ``transitivity_aut(graph)``
    when the caller has them, else each is computed."""
    if aut is None:
        aut = transitivity_aut(graph)
    if witness is None:
        witness = motion_witness(graph, aut=aut)
    if witness[0] == 2:
        return decompose_motion2(graph, aut=aut)
    if witness[0] == 4:
        return decompose_motion4(graph, witness=witness, aut=aut)
    raise ValueError(f"no decomposition for motion {witness[0]}")


# ---------------------------------------------------------------------------
# paired-fibre motion criteria

def pair_transposition_in_aut(sigma: Graph, pairs: PairPartition) -> bool:
    """Is some transposition of a pair an automorphism of sigma?

    Such a transposition automatically preserves the pair partition,
    since it fixes every other vertex.
    """
    for a, b in pairs.pairs:
        t = Permutation.from_cycles(sigma.n, [[a, b]])
        if sigma.is_automorphism(t):
            return True
    return False


def inf_motion2_predicted(params: InfParams, sigma: Graph,
                          pairs: PairPartition, reading: str) -> bool:
    """Predict motion 2 for a vertex-transitive paired-fibre graph.

    Two readings exist for the dichotomy: "equal" predicts motion below 4
    when the two parameter bits agree and a pair transposition fixes
    sigma; "unequal" predicts motion 2 when the bits differ and such a
    transposition exists.  Which one matches computed motions is settled
    empirically by verify_corpus, not here.
    """
    has_t = pair_transposition_in_aut(sigma, pairs)
    if reading == "equal":
        return params.kap == params.lam and has_t
    if reading == "unequal":
        return params.kap != params.lam and has_t
    raise ValueError(f"unknown reading {reading!r}")


def inf_is_vertex_transitive_predicted(sigma: Graph,
                                       pairs: PairPartition) -> bool:
    """The fibre graph is vertex-transitive iff the pair-preserving
    automorphisms of sigma act transitively on its vertices."""
    return aut_preserving_partition(sigma, pairs).is_transitive()


# ---------------------------------------------------------------------------
# corpus

@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus configuration.

    Family tokens are "complete:N", "empty:N", "cycle:N", "prism:M",
    "circulant:N:d1-d2-...".
    """

    circulant_max: int = 12
    circulant_complement_reduced: bool = True
    inf_sigmas: tuple = ("cycle:4", "cycle:6", "cycle:8", "prism:3")
    inf_ms: tuple = (2, 3)
    lex_deltas: tuple = ("complete:2", "empty:2", "complete:3", "empty:3",
                         "cycle:5")
    lex_thetas: tuple = ("complete:2", "cycle:5")
    invariant_union_ms: tuple = (3,)
    dedup: bool = True


_FAMILIES = {"complete": complete_graph, "empty": empty_graph,
             "cycle": cycle_graph, "prism": prism_graph}


def named_graph(token: str) -> Graph:
    """Build a graph from a family token like "cycle:6" or "prism:3"."""
    name, *fields = token.split(":")
    if name in _FAMILIES and len(fields) == 1:
        return _FAMILIES[name](int(fields[0]))
    if name == "circulant" and len(fields) in (1, 2):
        conn = fields[1].split("-") if len(fields) > 1 and fields[1] else []
        return circulant_graph(int(fields[0]), [int(d) for d in conn])
    if name in _FAMILIES or name == "circulant":
        raise ValueError(f"wrong number of fields in graph token {token!r}")
    raise ValueError(f"unknown graph family token {token!r}")


def sigma_matchings(token: str) -> list[tuple[str, PairPartition]]:
    """The pair partitions used with a given base graph."""
    parts = token.split(":")
    if parts[0] == "cycle":
        n = int(parts[1])
        if n % 2:
            raise ValueError("paired fibres need an even base graph")
        out = [("alternate", alternate_matching(n))]
        if antipodal_matching(n) != alternate_matching(n):
            out.append(("antipodal", antipodal_matching(n)))
        return out
    if parts[0] == "prism":
        m = int(parts[1])
        return [("rungs", PairPartition.from_pairs(
            2 * m, [(i, i + m) for i in range(m)]))]
    raise ValueError(f"no matchings defined for {token!r}")


def circulant_corpus(max_n: int,
                     complement_reduced: bool = True) -> Iterator[tuple[str, Graph]]:
    """All circulants with 2 <= n <= max_n, deterministic order."""
    for n in range(2, max_n + 1):
        half = list(range(1, n // 2 + 1))
        for r in range(len(half) + 1):
            for s in itertools.combinations(half, r):
                if complement_reduced:
                    comp = tuple(d for d in half if d not in s)
                    if comp < s:
                        continue
                label = f"circulant:{n}:" + "-".join(map(str, s))
                yield label, circulant_graph(n, s)


def inf_corpus(sigmas, ms) -> Iterator[tuple[str, Graph]]:
    for token in sigmas:
        sigma = named_graph(token)
        for mname, pairs in sigma_matchings(token):
            for m in ms:
                for lam, kap in itertools.product((0, 1), repeat=2):
                    label = (f"inf:{lam}{kap}:{token}:{mname}:m{m}")
                    yield label, inf_graph(InfParams(lam, kap, m), sigma, pairs)


def lex_corpus(deltas, thetas) -> Iterator[tuple[str, Graph]]:
    for dt in deltas:
        for tt in thetas:
            yield f"lex:{dt}:{tt}", lex_product(named_graph(dt),
                                                named_graph(tt))


def invariant_union_corpus(ms) -> Iterator[tuple[str, Graph]]:
    """Unions of pair-orbit graphs of the superflip-and-permute groups."""
    from .grouptables import even_flips_rtimes_sym, tau_cross_sym
    for m in ms:
        for gname, grp in (("tauxsym", tau_cross_sym(m)),
                           ("evenxsym", even_flips_rtimes_sym(m))):
            for i, g in enumerate(invariant_graphs_under(grp)):
                yield f"invariant:{gname}:m{m}:{i}", g


def corpus_generators(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    """The deterministic corpus stream, isomorphism-deduplicated per size."""
    def raw():
        if spec.circulant_max >= 2:
            yield from circulant_corpus(spec.circulant_max,
                                        spec.circulant_complement_reduced)
        yield from inf_corpus(spec.inf_sigmas, spec.inf_ms)
        yield from lex_corpus(spec.lex_deltas, spec.lex_thetas)
        yield from invariant_union_corpus(spec.invariant_union_ms)

    if not spec.dedup:
        yield from raw()
        return
    seen: dict[int, list[Graph]] = {}
    for label, graph in raw():
        bucket = seen.setdefault(graph.n, [])
        if any(are_isomorphic(graph, other) is not None for other in bucket):
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
        out = {"label": self.label, "graph6": self.graph6,
               "vertex_transitive": self.vertex_transitive}
        for key in ("motion", "form", "verified", "error"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


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
    if not is_vertex_transitive(graph, aut=aut):
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
    form_counts: dict[str, int] = {}
    motion_counts: dict[int, int] = {}
    odd_primes = []
    falsifications = []
    non_vt = 0
    for rec in records:
        if not rec.vertex_transitive:
            non_vt += 1
            continue
        if rec.motion is not None:
            motion_counts[rec.motion] = motion_counts.get(rec.motion, 0) + 1
            if rec.motion % 2 and _is_prime(rec.motion):
                odd_primes.append(rec.label)
        if rec.form is not None:
            form_counts[rec.form] = form_counts.get(rec.form, 0) + 1
            if not rec.verified:
                falsifications.append(rec.label)
    return CorpusSummary(
        records=records, form_counts=form_counts,
        motion_counts=motion_counts, odd_prime_motions=odd_primes,
        falsifications=falsifications, non_vertex_transitive=non_vt)


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
