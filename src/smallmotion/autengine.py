"""Graph automorphism groups, motion, twins, and vertex-transitivity.

The automorphism group is built as a stabilizer chain over the vertex
order 0, 1, 2, ...  Level v refines the colouring with 0..v-1
individualised to its coarsest equitable partition, built from the
previous level's by giving v-1 a fresh colour.  An automorphism fixing
0..v-1 keeps that partition (McKay, "Practical graph isomorphism",
1981), so only the w in v's refined cell can be images of v.  Each such
w is either reached by already-found generators or settled by a complete
individualization-refinement search, so each level's orbit is the full
orbit of v under the automorphisms fixing 0..v-1, the order is exact, and
the generators form a strong generating set for the base 0, 1, 2, ...
They are filed level by level straight into the group's stabilizer
chain, with no Schreier-Sims, and kept unreduced.  A search starts from
the level's refined cells with v and w given one fresh colour, so it does
not redo the level's refinement; its first refinement reaches the same
partition as from the base colours with 0..v-1 pinned, and the same cells
on both sides, so it walks the same tree.  Once the partition is discrete
only the identity fixes 0..v-1, and the levels stop.

The motion of a graph without twins is the minimal degree of that group,
found by one depth-first search over its stabilizer chain that prunes a
coset once it must move more points than the smallest support so far (at
most ``SMALLMOTION_CAP`` nodes).  The witness is the least automorphism of
prime order and minimal support by image tuple, so no generating set or
stabilizer chain of the group changes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphcore import (MAX_GRAPH_ORDER, Graph, PairPartition,
                        equitable_refinement, isomorphism_with_colors)
from .permcore import (CapExceededError, PermGroup, Permutation,
                       StabilizerChain, orbit)


@dataclass
class AutResult:
    """Generators of the automorphism group plus search statistics."""

    group: PermGroup
    order: int
    stats: dict = field(default_factory=dict)


def automorphism_group(graph: Graph,
                       colors: Optional[Sequence] = None) -> AutResult:
    """Generators and exact order of the automorphisms keeping the vertex
    colouring ``colors`` (all vertices alike when None).  At level v each
    w > v in v's cell of the refined colouring, with 0..v-1 individualised,
    and not yet reached is settled by one isomorphism search seeded with
    that level colouring, v on one side and w on the other given one
    fresh colour.  The levels stop at the first discrete refined
    colouring.  The group keeps the found generators, unreduced, and the
    chain they file into; its order and every generator are re-checked."""
    n = graph.n
    if n > MAX_GRAPH_ORDER:
        raise CapExceededError(f"graph size {n} exceeds cap "
                               f"{MAX_GRAPH_ORDER}")
    base = [0] * n if colors is None else list(colors)
    if len(base) != n:
        raise ValueError(f"{len(base)} colours for {n} vertices")
    ids: dict = {}
    cells = [ids.setdefault(c, len(ids)) for c in base]
    gens: list[Permutation] = []
    order = 1
    searches = 0
    for v in range(n):
        cells = equitable_refinement(graph, cells)
        if len(set(cells)) == n:   # only the identity fixes 0..v-1
            break
        level_gens = [g for g in gens if all(g(i) == i for i in range(v))]
        reached = set(orbit(v, level_gens))
        for w in range(v + 1, n):
            if w in reached or cells[w] != cells[v]:
                continue
            searches += 1
            src, dst = list(cells), list(cells)
            src[v] = dst[w] = n   # ids are below n: a fresh colour
            t = isomorphism_with_colors(graph, src, graph, dst)
            if t is None:
                continue
            gens.append(t)
            level_gens.append(t)
            reached = set(orbit(v, level_gens))
        order *= len(reached)
        cells[v] = n   # individualise v for level v+1
    group = PermGroup(n, gens)
    group._chain = StabilizerChain(n, gens, strong=True)
    if group.order() != order:
        raise RuntimeError(f"generators file into a chain of order "
                           f"{group.order()}, expected {order}")
    for g in group.generators:
        if not graph.is_automorphism(g) or \
                any(base[g(u)] != base[u] for u in range(n)):
            raise RuntimeError(f"generator {g} is not an automorphism")
    return AutResult(group=group, order=order,
                     stats={"transporter_searches": searches})


# ---------------------------------------------------------------------------
# twins

@dataclass(frozen=True)
class TwinInfo:
    """Vertex pairs whose transposition is an automorphism."""

    true_twins: tuple[tuple[int, int], ...]    # adjacent, equal closed nbhds
    false_twins: tuple[tuple[int, int], ...]   # non-adjacent, equal open nbhds

    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        return self.true_twins + self.false_twins

    def __bool__(self) -> bool:
        return bool(self.true_twins or self.false_twins)


def find_twins(graph: Graph) -> TwinInfo:
    true_t = []
    false_t = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if graph.has_edge(u, v):
                if graph.adj[u] | (1 << u) == graph.adj[v] | (1 << v):
                    true_t.append((u, v))
            else:
                if graph.adj[u] & ~(1 << v) == graph.adj[v] & ~(1 << u):
                    false_t.append((u, v))
    return TwinInfo(tuple(true_t), tuple(false_t))


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
                      for pair in twins.all_pairs())
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
    apart, restricted to sigma's vertices; each generator is re-checked.
    sigma may have at most two thirds of ``MAX_GRAPH_ORDER`` vertices."""
    n, k = sigma.n, len(pairs.pairs)
    if pairs.n != n:
        raise ValueError(f"pairs on {pairs.n} points for a graph of order {n}")
    if n > MAX_GRAPH_ORDER * 2 // 3:
        raise CapExceededError(f"pair-preserving automorphisms: graph order "
                               f"{n} exceeds cap {MAX_GRAPH_ORDER * 2 // 3}")
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
