"""Graph automorphism groups, motion, twins, and vertex-transitivity.

The automorphism group is built as a stabilizer chain whose base is the
graph's first path (``graphcore._SourcePath``): depth d refines the
colouring with v_0..v_{d-1} individualised, each pass counting
neighbours only in the cells the pass before split off, and v_d is the
least vertex of a largest cell, until the partition is discrete.  Every
search replays those passes on its target side.  An automorphism
fixing v_0..v_{d-1} keeps depth d's partition (McKay, "Practical graph
isomorphism", 1981), so only the w in v_d's cell can be images of v_d.
The levels run deepest first, as in nauty (McKay and Piperno, 2014), so
every generator found so far fixes v_0..v_{d-1}: the w their orbits join
to v_d need no search, and each other w is settled by a complete search
of the target side against the shared path from depth d+1.  So each
level's orbit and the order are exact, and the generators, deepest level
first, form a strong generating set for the base.  They file into the
group's chain, told that order, so its Schreier-Sims closure strips no
Schreier generator; they stay unreduced, and as deeper ones prune the
shallower levels, the lists are short.

The motion of a graph without twins is the minimal degree of that group:
one depth-first search over its chain prunes a coset once it must move
more points than the smallest support so far (at most ``SMALLMOTION_CAP``
nodes).  The witness, the least automorphism of prime order and minimal
support by image tuple, depends on no generating set or chain.  When the
graph is vertex-transitive and the stabilizer of vertex 0 (the base's
first point) is not trivial, the search walks that stabilizer alone: a
least support misses a vertex, each witness is conjugate to one fixing 0,
and image[0] = 0 is the least first entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .graphcore import Graph, PairPartition, _SourcePath
from .permcore import PermGroup, Permutation, StabilizerChain, orbit


@dataclass
class AutResult:
    """Generators of the automorphism group plus search statistics, as of
    the end of the computation.  ``path`` is the graph's first path, kept
    after an uncoloured computation for later searches on the graph (the
    round trips of ``classify.decompose``)."""

    group: PermGroup
    order: int
    stats: dict = field(default_factory=dict)
    path: Optional[_SourcePath] = field(default=None, repr=False,
                                        compare=False)


def automorphism_group(graph: Graph,
                       colors: Optional[Sequence] = None) -> AutResult:
    """Generators and exact order of the automorphisms keeping the vertex
    colouring ``colors`` (all vertices alike when None).  At each level of
    the first path, deepest first, each w in v_d's cell outside v_d's
    orbit under the generators found so far is settled by one search from
    depth d+1, seeded with depth d's colours and w individualised.  The
    group keeps the generators, unreduced, and the chain they file into,
    which raises RuntimeError unless they close to that order; each is
    checked once, at its search's leaf.  ``stats`` counts the searches,
    their nodes (at most ``SMALLMOTION_CAP``) and both sides' refinement
    passes; an uncoloured result keeps the path."""
    n = graph.n
    base = [0] * n if colors is None else list(colors)
    if len(base) != n:
        raise ValueError(f"{len(base)} colours for {n} vertices")
    path = _SourcePath(graph, base)
    points: list[int] = []    # the first path's branch vertices
    while (v := path.level(len(points))[2]) is not None:
        points.append(v)
    gens: list[Permutation] = []
    order, searches = 1, 0
    for d in reversed(range(len(points))):
        _, cells, v, fresh = path.level(d)
        reached = {v}   # all generators so far fix v; a find joins w's orbit
        for w in range(n):
            if w in reached or cells[w] != cells[v]:
                continue
            searches += 1
            t = path.transport(graph, cells[:w] + [fresh] + cells[w + 1:],
                               d + 1)
            if t is None:
                continue
            gens.append(Permutation(t))
            reached = set(orbit(v, gens))
        order *= len(reached)
    group = PermGroup(n, gens)
    group._chain = StabilizerChain(n, gens, points, order=order)
    return AutResult(group=group, order=order, stats=dict(
        transporter_searches=searches, search_nodes=path.nodes,
        refinement_passes=path.refinements),
        path=path if colors is None else None)


# ---------------------------------------------------------------------------
# twins

def find_twins(graph: Graph) -> list[tuple[int, int]]:
    """The sorted pairs u < v whose transposition is an automorphism: equal
    open neighbourhoods (false twins) or equal closed ones (true twins),
    found by grouping rows; no pair shares both kinds of group."""
    false, true = {}, {}
    for u, row in enumerate(graph.adj):
        false.setdefault(row, []).append(u)
        true.setdefault(row | 1 << u, []).append(u)
    return sorted(pair for group in (*false.values(), *true.values())
                  for pair in combinations(group, 2))


# ---------------------------------------------------------------------------
# motion

def motion_witness(graph: Graph, aut: Optional[AutResult] = None
                   ) -> tuple[int, Permutation]:
    """(motion, a minimal-support automorphism).

    The witness is the least automorphism of prime order and minimal
    support by image tuple.  A twin pair decides motion 2 at once, with
    the least twin transposition: largest u, then smallest v, of (u, v).
    Otherwise both come from ``PermGroup.minimal_degree_witness``.
    ``aut`` is the graph's ``automorphism_group`` result when the caller
    has it; it is computed only when the twin path does not decide.
    """
    twins = find_twins(graph)
    if twins:
        return 2, min(Permutation.from_cycles(graph.n, [pair])
                      for pair in twins)
    if aut is None:
        aut = automorphism_group(graph)
    if aut.order == 1:
        raise ValueError("trivial automorphism group: motion is undefined")
    return aut.group.minimal_degree_witness()


def motion(graph: Graph) -> int:
    return motion_witness(graph)[0]


# ---------------------------------------------------------------------------
# partition-preserving automorphisms and transitivity

def aut_preserving_partition(sigma: Graph,
                             pairs: PairPartition) -> PermGroup:
    """The automorphisms of sigma that map pairs to pairs: Aut of sigma
    plus one vertex per pair, joined to both ends of its pair and coloured
    apart, restricted to sigma's vertices; each generator is re-checked."""
    n, k = sigma.n, len(pairs.pairs)
    if pairs.n != n:
        raise ValueError(f"pairs on {pairs.n} points for a graph of order {n}")
    marked = Graph.from_edges(n + k, sigma.edges() + [
        (v, n + i) for i, pair in enumerate(pairs.pairs) for v in pair])
    aut = automorphism_group(marked, [0] * n + [1] * k)
    group = aut.group.restriction(range(n))
    for g in group.generators:
        if not (sigma.is_automorphism(g) and pairs.is_preserved_by(g)):
            raise RuntimeError(f"{g} is not a pair-preserving automorphism")
    return group


def transitivity_aut(graph: Graph) -> Optional[AutResult]:
    """``automorphism_group(graph)`` if the graph can be vertex-transitive,
    that is, if it is regular with a vertex; else None."""
    if graph.n == 0 or not graph.is_regular():
        return None
    return automorphism_group(graph)


def is_vertex_transitive(graph: Graph,
                         aut: Optional[AutResult] = None) -> bool:
    """Is Aut(graph) transitive on the vertices?  ``aut`` is
    ``transitivity_aut(graph)`` when the caller has it, else computed."""
    if aut is None:
        aut = transitivity_aut(graph)
    return aut is not None and len(aut.group.orbit(0)) == graph.n
