"""Graph automorphism groups, motion, twins, and vertex-transitivity.

Aut is a stabilizer chain on the graph's first path
(``graphcore._SourcePath``).  An automorphism fixing v_0..v_{d-1} keeps
depth d's partition (McKay, "Practical graph isomorphism", 1981), so
only the w in v_d's cell can be images of v_d.  The levels run deepest
first, as in nauty (McKay and Piperno, 2014), so the generators found so
far fix v_0..v_{d-1}; the w their orbits join to v_d need nothing more.
Each other w first gets one involution t, kept if it is an automorphism:
(v_d w) if the rows of v_d and w agree off {v_d, w}, else (v_d w)(a b)
if they differ there in just a, adjacent to v_d only, and b, adjacent to
w only.  Depth d's partition is equitable, so v_d and w have as many
neighbours in each cell, and a and b share one.  As w, a and b lie in
cells of two or more vertices, t fixes v_0..v_{d-1}, keeps the colours
and sends v_d to w.  Conversely, if (v_d w)(a b) is an automorphism,
the rows of v_d and w differ off {v_d, w} in a and b or nowhere, so the
twin and fibre swaps of motion 2 and 4 cost no search.  Without such a
t, a complete search from depth d+1 settles w.  So each level's orbit
and the order are exact, and the generators, deepest level first, are
strong for the base: the chain they file into, told that order, strips
no Schreier generator.  The branch vertices rise and a generator found
at depth d fixes every vertex below v_d, so that chain is lex-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .graphcore import Graph, _SourcePath
from .permcore import PermGroup, Permutation, StabilizerChain


@dataclass
class AutResult:
    """Generators of the automorphism group plus search statistics, as of
    the end of the computation."""

    group: PermGroup
    order: int
    stats: dict = field(default_factory=dict)


def automorphism_group(graph: Graph,
                       colors: Optional[Sequence] = None) -> AutResult:
    """Generators, unreduced, and exact order of the automorphisms keeping
    the vertex colouring ``colors`` (all alike when None), as the module
    docstring says; the chain they file into raises RuntimeError unless
    they close to that order.  ``stats`` counts the searches, their nodes
    (at most ``SMALLMOTION_CAP``), refinement passes and involutions."""
    n = graph.n
    base = [0] * n if colors is None else list(colors)
    if len(base) != n:
        raise ValueError(f"{len(base)} colours for {n} vertices")
    path = _SourcePath(graph, base)
    points: list[int] = []    # the first path's branch vertices
    while (v := path.level(len(points))[2]) is not None:
        points.append(v)
    images: list[list[int]] = []   # of the generators, in the order found
    order, searches, involutions = 1, 0, 0
    for d in reversed(range(len(points))):
        _, cells, v, fresh = path.level(d)
        reached = {v}   # all generators so far fix v; a find joins w's orbit
        for w in range(n):
            if w in reached or cells[w] != cells[v]:
                continue
            t = _involution(graph, v, w)
            if t is not None:
                involutions += 1
            else:
                searches += 1
                t = path.transport(graph, cells[:w] + [fresh] + cells[w + 1:],
                                   d + 1)
                if t is None:
                    continue
            images.append(t)
            new = {t[x] for x in reached} - reached
            while new:     # the rest of reached is closed under images
                reached |= new
                new = {g[x] for x in new for g in images} - reached
        order *= len(reached)
    gens = [Permutation(t) for t in images]
    group = PermGroup(n, gens)
    group._chain = StabilizerChain(n, gens, points, order=order)
    return AutResult(group=group, order=order, stats=dict(
        transporter_searches=searches, search_nodes=path.nodes,
        refinement_passes=path.refinements, involutions=involutions))


def _involution(graph: Graph, v: int, w: int) -> Optional[list[int]]:
    """The images of the module docstring's involution t for v and w if it
    is an automorphism, the one check of such a generator: iff each pair
    (x, y) that t swaps has adj[y] = adj[x] with the pairs' bits swapped,
    as t(N(x)) = N(y) gives t(N(y)) = N(x) and equal rows off supp(t), so
    t(N(u)) = N(u) for each u that t fixes."""
    adj, images = graph.adj, list(range(graph.n))
    pairs = [(v, w)]
    if diff := (adj[v] ^ adj[w]) & ~(1 << v | 1 << w):
        a = (diff & adj[v]).bit_length() - 1   # -1 if v has no such neighbour
        b = (diff & adj[w]).bit_length() - 1
        if diff.bit_count() != 2 or min(a, b) < 0:
            return None
        pairs.append((a, b))
    swap = [1 << x | 1 << y for x, y in pairs]
    for x, y in pairs:
        images[x], images[y] = y, x
    return images if all(
        adj[y] == adj[x] ^ sum(m for m in swap if adj[x] & m not in (0, m))
        for x, y in pairs) else None


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
    """(motion, the least automorphism of prime order and minimal support
    by image tuple).  Twins decide motion 2 at once, with the least twin
    transposition (u v): largest u, then smallest v.  Otherwise both come
    from ``PermGroup.minimal_degree_witness`` of ``aut``, the graph's
    ``automorphism_group`` result, computed here if not given."""
    if twins := find_twins(graph):
        u, v = max(twins, key=lambda pair: (pair[0], -pair[1]))
        return 2, Permutation.from_cycles(graph.n, [(u, v)])
    if aut is None:
        aut = automorphism_group(graph)
    if aut.order == 1:
        raise ValueError("trivial automorphism group: motion is undefined")
    return aut.group.minimal_degree_witness()


# ---------------------------------------------------------------------------
# transitivity

def transitivity_aut(graph: Graph) -> Optional[AutResult]:
    """``automorphism_group(graph)`` if the graph is vertex-transitive, else
    None.  A graph with no vertex or an irregular one gets no Aut
    computation; for the others the group decides."""
    if graph.n == 0 or len(set(map(int.bit_count, graph.adj))) > 1:
        return None
    aut = automorphism_group(graph)
    return aut if aut.group.is_transitive() else None
