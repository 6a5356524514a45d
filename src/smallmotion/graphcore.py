"""Simple undirected graphs: constructions, products, quotients, and I/O.

Vertices are 0-indexed; adjacency is stored as one bitmask per vertex,
and the neighbour lists that refinement reads are decoded once, on demand.
Product indexing is fixed so that identity (not merely isomorphism) tests
are possible: lexicographic products are indexed major on the second
factor (vertex = gamma*|VD| + delta), the fibre construction major on the
base vertex (vertex = alpha*m + i).

Only outside rows are checked: ``Graph(n, adj)`` checks that its rows are
symmetric, loop-free and inside 0..n-1, and ``Graph.from_edges`` checks
each edge.  The graph6 decoder and the constructions here write rows that
are valid by construction, so they build them with the unchecked
``Graph._rows``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .permcore import (CAP_VARIABLE, MAX_PAIR_ORBITS, BlockSystem,
                       CapExceededError, PermGroup, Permutation, element_cap,
                       orbits)


class Graph:
    """An undirected simple graph on {0, ..., n-1} with bitset adjacency."""

    __slots__ = ("n", "adj", "_nbrs")

    def __init__(self, n: int, adj: Sequence[int]):
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length mismatch")
        for v, row in enumerate(adj):
            if row & (1 << v):
                raise ValueError("loops are not allowed")
            if row >> n:
                raise ValueError("adjacency bit out of range")
        if any(not adj[w] >> v & 1 for v, row in enumerate(adj)
               for w in _bits(row)):
            raise ValueError("adjacency must be symmetric")
        self.n, self.adj, self._nbrs = n, adj, None

    @classmethod
    def _rows(cls, n: int, adj: Sequence[int]) -> "Graph":
        """Unchecked: the caller's rows are symmetric, loop-free and inside
        0..n-1 by construction."""
        graph = object.__new__(cls)
        graph.n, graph.adj, graph._nbrs = n, tuple(adj), None
        return graph

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"graph order must be at least 0, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside "
                                 f"0..{n - 1}")
            if u == v:
                raise ValueError("loops are not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._rows(n, adj)

    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbours of every vertex, decoded on first use and
        kept; graphs that are never searched (``invariant_graphs_under``
        builds up to 2^20) never pay for them."""
        if self._nbrs is None:
            self._nbrs = tuple(tuple(_bits(row)) for row in self.adj)
        return self._nbrs

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in _bits(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._rows(self.n, [(~row & full) & ~(1 << v)
                                    for v, row in enumerate(self.adj)])

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        verts = tuple(sorted(vertices))
        pos = {v: i for i, v in enumerate(verts)}
        if (len(pos) < len(verts)
                or verts and not 0 <= verts[0] <= verts[-1] < self.n):
            raise ValueError(f"vertices must be distinct, in 0..{self.n - 1}")
        return Graph._rows(len(verts), [
            sum(1 << pos[w] for w in _bits(self.adj[v]) if w in pos)
            for v in verts]), verts

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maps_onto(g1: Graph, images: Sequence[int], g2: Graph) -> bool:
    """Is the bijection v -> images[v] an isomorphism from g1 onto g2?
    Each neighbourhood of g1, mapped, must be the image's row in g2.  The
    caller makes sure images is a bijection: on edgeless graphs every
    list passes."""
    bit = [1 << w for w in images]
    adj2 = g2.adj
    return all(adj2[images[u]] == sum(map(bit.__getitem__, nbrs))
               for u, nbrs in enumerate(g1.neighbor_lists()))


# ---------------------------------------------------------------------------
# pair partitions: block systems of pairs, perfect matchings of a vertex set

def alternate_matching(n: int) -> BlockSystem:
    """Every second edge of the n-cycle: {0,1},{2,3},... (n even)."""
    if n % 2:
        raise ValueError("need an even number of vertices")
    return BlockSystem.from_blocks(n, [(i, i + 1) for i in range(0, n, 2)])


def antipodal_matching(n: int) -> BlockSystem:
    """Antipodal pairs {i, i+n/2} of the n-cycle (n even)."""
    if n % 2:
        raise ValueError("need an even number of vertices")
    h = n // 2
    return BlockSystem.from_blocks(n, [(i, i + h) for i in range(h)])


# ---------------------------------------------------------------------------
# basic constructions

def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"graph order must be at least 0, got {n}")
    return Graph._rows(n, [0] * n)


def complete_graph(n: int) -> Graph:
    return empty_graph(n).complement()


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph._rows(n, [1 << (v + 1) % n | 1 << (v - 1) % n
                           for v in range(n)])


def canonical_connection_set(n: int, s: Iterable[int]) -> frozenset:
    """Normalize a circulant connection set into {1, ..., n//2}."""
    out = set()
    for d in s:
        d %= n
        if d == 0:
            raise ValueError("connection set may not contain 0 mod n")
        out.add(min(d, n - d))
    return frozenset(out)


def circulant_graph(n: int, s: Iterable[int]) -> Graph:
    if n < 1:
        raise ValueError(f"circulant order must be at least 1, got {n}")
    conn = canonical_connection_set(n, s)
    return Graph.from_edges(
        n, [(i, (i + d) % n) for i in range(n) for d in conn])


# ---------------------------------------------------------------------------
# products and quotients

def lex_product(delta: Graph, theta: Graph) -> Graph:
    """Lexicographic product: blow each vertex of theta into a copy of delta.

    Vertex (delta-vertex d, theta-vertex g) gets index g*|VD| + d.
    (d1,g1) ~ (d2,g2) iff (g1 = g2 and d1 ~ d2) or g1 ~ g2.
    """
    nd, full = delta.n, (1 << delta.n) - 1
    joined = [sum(full << h * nd for h in _bits(row)) for row in theta.adj]
    return Graph._rows(nd * theta.n, [row << g * nd | joined[g] for g in
                                      range(theta.n) for row in delta.adj])


def prism_graph(m: int) -> Graph:
    """K_m box K_2: two copies of K_m joined by a perfect matching; vertex
    i of copy c is c*m + i."""
    if m < 0:
        raise ValueError(f"prism order must be at least 0, got {m}")
    full = (1 << m) - 1
    return Graph._rows(2 * m, [(full ^ 1 << i) << c * m | 1 << (1 - c) * m + i
                               for c in (0, 1) for i in range(m)])


def quotient_graph(graph: Graph, partition: Sequence[Sequence[int]]) -> Graph:
    """Parts become vertices; adjacent iff some cross edge exists (no loops)."""
    parts = [tuple(sorted(p)) for p in partition]
    if sorted(v for p in parts for v in p) != list(range(graph.n)):
        raise ValueError("partition must cover the vertex set exactly once")
    masks = [sum(1 << v for v in p) for p in parts]
    reach = [functools.reduce(operator.or_, map(graph.adj.__getitem__, p), 0)
             & ~mask for p, mask in zip(parts, masks)]
    return Graph._rows(len(parts), [sum(1 << j for j, mask in enumerate(masks)
                                        if mask & r) for r in reach])


# ---------------------------------------------------------------------------
# the fibre construction Inf(lambda, kappa, Sigma, P, m)

@dataclass(frozen=True)
class InfParams:
    """Parameters of the fibre construction: two bits and a multiplicity."""

    lam: int
    kap: int
    m: int

    def __post_init__(self):
        if self.lam not in (0, 1) or self.kap not in (0, 1):
            raise ValueError("lambda and kappa must be bits")
        if self.m < 2:
            raise ValueError("multiplicity must be at least 2")


def inf_graph(params: InfParams, sigma: Graph, pairs: BlockSystem) -> Graph:
    """Blow each vertex of sigma into a fibre of m vertices; ``pairs``
    must split sigma's vertices into pairs (ValueError otherwise).

    Vertex (alpha, i) gets index alpha*m + i.  Adjacency:
      - fibres over non-paired sigma-edges are joined completely;
      - fibres over a pair get a matching (lam=1) or a complete join minus
        the matching (lam=0), regardless of sigma-adjacency of the pair;
      - each fibre is a clique iff kap=1.
    """
    if pairs.degree != sigma.n or len(pairs.blocks[0]) != 2:
        raise ValueError("pairs must partition the sigma vertex set")
    m, full = params.m, (1 << params.m) - 1
    rows = []
    for alpha, row in enumerate(sigma.adj):
        beta = sum(pairs.blocks[pairs.block_of[alpha]]) - alpha   # partner
        joined = sum(full << g * m for g in _bits(row & ~(1 << beta)))
        rows += (joined | ((full ^ 1 << i) << alpha * m) * params.kap
                 | (1 << i if params.lam else full ^ 1 << i) << beta * m
                 for i in range(m))
    return Graph._rows(sigma.n * m, rows)


# ---------------------------------------------------------------------------
# invariant graphs of a permutation group

def invariant_graphs_under(z: PermGroup) -> list[Graph]:
    """One graph per union of orbits of the group on unordered vertex pairs."""
    n = z.degree
    maps = [lambda pair, g=g: tuple(sorted(map(g, pair)))
            for g in z.generators]
    pair_orbits = orbits(itertools.combinations(range(n), 2), maps)
    if len(pair_orbits) > MAX_PAIR_ORBITS:
        raise CapExceededError(f"{len(pair_orbits)} pair-orbits exceed cap "
                               f"MAX_PAIR_ORBITS={MAX_PAIR_ORBITS}")
    return [Graph.from_edges(n, [pair for i, orb in enumerate(pair_orbits)
                                 if subset >> i & 1 for pair in orb])
            for subset in range(1 << len(pair_orbits))]


# ---------------------------------------------------------------------------
# equitable refinement and isomorphism

def _pass_keys(graph: Graph, colors: list[int],
               splitters: Optional[Sequence[int]] = None) -> list[int]:
    """Each vertex's key: its colour plus 2^((i+1)*b) per neighbour in the
    i-th splitter colour (b = len(colors).bit_length(): no digit carries),
    read off splitter members' rows; None makes every colour a splitter."""
    if splitters is None:
        splitters = range(max(colors, default=-1) + 1)
    nbrs, keys = graph.neighbor_lists(), list(colors)
    b = len(colors).bit_length()
    for i, c in enumerate(splitters, 1):
        w, u = 1 << i * b, -1
        for _ in range(colors.count(c)):
            u = colors.index(c, u + 1)
            for x in nbrs[u]:
                keys[x] += w
    return keys


def _refine_pass(graph: Graph, colors: list[int], key_ids: dict,
                 splitters: Optional[Sequence[int]] = None) -> list[int]:
    """One refinement pass on the keys of ``_pass_keys``: new ids follow the
    first vertex of each key, so once a pass has run they depend only on
    the partition and not on the input ids."""
    return [key_ids.setdefault(k, len(key_ids))
            for k in _pass_keys(graph, colors, splitters)]


def _splitters(key_ids: dict, size: list[int], b: int) -> list[int]:
    """The cells a pass split off, in id order: the new cells of each parent
    cell (a key's low b bits) that split, less the largest (first on a tie)."""
    mask, largest = (1 << b) - 1, {}
    for k, c in key_ids.items():
        if size[c] > size[largest.setdefault(k & mask, c)]:
            largest[k & mask] = c
    return [c for k, c in key_ids.items() if largest[k & mask] != c]


class _SourcePath:
    """The first path of a coloured graph's individualization-refinement
    tree (McKay and Piperno, "Practical graph isomorphism, II", 2014),
    each depth built once, when a search first reaches it.

    Depth 0 refines the seed colours; depth d+1 refines depth d's with
    its branch vertex, the least vertex in a cell of two or more, given
    the fresh colour ``len(cells)``, until a pass adds no colour.  Each
    smaller vertex is alone in its cell, so the branch vertices rise and
    an automorphism fixing the earlier ones fixes it.  Only depth 0's
    first pass reads every row; each later pass reads only its
    splitters' members' rows: at depth d+1 the fresh colour (depth d is
    equitable), then the cells the last pass split off but the largest of
    each split cell (Hopcroft's rule), and still gives a full pass's
    partition and colour ids.  A depth keeps each pass's splitters, key
    table and sorted colours, which a search replays on its target side,
    looking keys up: a missing key or another histogram means no
    isomorphism keeps the colours.  ``nodes`` counts the target-side nodes
    of the searches since the path was built, or since the last
    ``are_isomorphic`` call on it began, up to ``element_cap()``;
    ``refinements`` counts the passes of both sides.  A kept path serves
    later searches on its graph without building its depths again.
    """

    def __init__(self, graph: Graph, colors: Sequence):
        self.graph, self.cap = graph, element_cap()
        self.levels: list[tuple] = []    # (passes, stable, branch, fresh)
        self.nodes = self.refinements = 0
        ids: dict = {}   # hashable seed colours as ids 0, 1, ...
        self._seed = [ids.setdefault(c, len(ids)) for c in colors]

    def level(self, depth: int) -> tuple:
        while len(self.levels) <= depth:
            colors, splitters = self._seed, None
            if self.levels:
                _, stable, v, fresh = self.levels[-1]
                colors, splitters = list(stable), [fresh]
                colors[v] = fresh
            passes, count = [], len(set(colors))
            while True:
                key_ids: dict = {}
                colors = _refine_pass(self.graph, colors, key_ids, splitters)
                self.refinements += 1
                passes.append((splitters, key_ids, sorted(colors)))
                size = [0] * len(key_ids)
                for c in colors:
                    size[c] += 1
                if len(key_ids) == count:
                    break
                count = len(key_ids)
                splitters = _splitters(key_ids, size, len(colors).bit_length())
            v = next((u for u, c in enumerate(colors) if size[c] > 1), None)
            self.levels.append((passes, colors, v, count))
        return self.levels[depth]

    def transport(self, g2: Graph, colors: list[int],
                  depth: int) -> Optional[list[int]]:
        """The first isomorphism (as images) from the source onto g2 that
        keeps the colours, searched from ``depth``: ``colors`` colours g2
        in the ids of that depth's seed.  Only the target side branches,
        on the vertices of the branch vertex's cell, in vertex order: the
        walk keeps its own stack and counts a node when it pops it.  A leaf
        is returned only if it maps the edges onto g2's; it keeps the
        colours, as each id refines the one before (a key's low bits)."""
        stack = [(colors, depth, None)]   # (parent's colours, depth, w)
        while stack:
            colors, depth, w = stack.pop()
            self.nodes += 1
            if self.nodes > self.cap:
                raise CapExceededError(f"transporter search exceeds cap "
                                       f"{CAP_VARIABLE}={self.cap} nodes")
            if w is not None:   # individualise w with the parent's fresh
                colors = list(colors)
                colors[w] = self.levels[depth - 1][3]
            passes, stable, v, _ = self.level(depth)
            for splitters, key_ids, hist in passes:
                keys = _pass_keys(g2, colors, splitters)
                self.refinements += 1
                colors = [key_ids.get(k, -1) for k in keys]
                if sorted(colors) != hist:   # a missing key sorts as -1
                    break
            else:   # the target side kept every histogram
                if v is None:   # discrete: cells correspond by colour
                    at = sorted(range(len(colors)), key=colors.__getitem__)
                    mapping = [at[c] for c in stable]
                    if _maps_onto(self.graph, mapping, g2):
                        return mapping
                else:   # children pop in vertex order
                    stack.extend((colors, depth + 1, u) for u in
                                 reversed(range(len(colors)))
                                 if colors[u] == stable[v])
        return None


def are_isomorphic(g1: Graph, g2: Graph,
                   path: Optional[_SourcePath] = None) -> Optional[Permutation]:
    """A vertex bijection taking g1 to g2, or None.  ``path`` is g1's
    uncoloured first path when the caller has one, else one is built;
    the search's nodes count from zero."""
    if g1.n != g2.n:
        return None
    edges = g1.num_edges()
    if edges != g2.num_edges():
        return None
    if edges in (0, g1.n * (g1.n - 1) // 2):    # edgeless or complete
        return Permutation.identity(g1.n)
    path = path or _SourcePath(g1, [0] * g1.n)
    path.nodes = 0
    found = path.transport(g2, [0] * g2.n, 0)
    return None if found is None else Permutation(found)


# ---------------------------------------------------------------------------
# graph6 and edge-list I/O

# graph6 in bits: a character c in ?..~ stands for the six bits of
# ord(c) - 63, most significant first
_G6_BITS = {63 + d: format(d, "06b") for d in range(64)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}
_SIX = re.compile("[01]{6}")


def to_graph6(graph: Graph) -> str:
    n = graph.n
    if n > 258047:
        raise ValueError("graph too large for graph6")
    # n > 62 takes "~" and n in 18 bits; column j holds the edges (i, j),
    # least i first: bin() of its row below j with bit j set, reversed
    # and cut before that bit
    head, bits = (chr(n + 63), "") if n <= 62 else ("~", format(n, "018b"))
    adj = graph.adj
    bits += "".join([bin(adj[j] & ((1 << j) - 1) | 1 << j)[:2:-1]
                     for j in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return head + "".join(map(_G6_CHARS.__getitem__, _SIX.findall(bits)))


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("empty graph6 string")
    bits = text.translate(_G6_BITS)   # any other character stays one
    if len(bits) != 6 * len(text):
        raise ValueError("invalid graph6 character")
    if text[0] == "~":
        if len(text) < 4:
            raise ValueError("truncated graph6 header")
        n, start = int(bits[6:24], 2), 24
    else:
        n, start = ord(text[0]) - 63, 6
    if len(bits) - start != 6 * ((n * (n - 1) // 2 + 5) // 6):
        raise ValueError("graph6 body length mismatch")
    adj = [0] * n
    for j in range(1, n):    # column j holds the edges (i, j), least i first
        adj[j] = column = int(bits[start:start + j][::-1], 2)
        start, bit = start + j, 1 << j
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bit
            column ^= low
    return Graph._rows(n, adj)


def from_edge_list(text: str) -> Graph:
    """An ``n N`` header line, then one ``u v`` line per edge, vertices
    numbered 1..N; an error names the line and the vertices as written."""
    n, edges = None, []
    for number, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if n is None:
            if (len(fields) != 2 or fields[0] != "n"
                    or not fields[1].isdecimal()):
                raise ValueError(f"line {number}: expected 'n <count>' header")
            n = int(fields[1])
            continue
        try:
            u, v = map(int, fields)
        except ValueError:
            raise ValueError(f"line {number}: expected two vertices, got "
                             f"{' '.join(fields)!r}") from None
        for w in (u, v):
            if not 1 <= w <= n:
                raise ValueError(f"line {number}: vertex {w} outside 1..{n}")
        if u == v:
            raise ValueError(f"line {number}: loops are not allowed")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ValueError("empty edge list")
    return Graph.from_edges(n, edges)


def parse_graph(text: str) -> Graph:
    """Accept either graph6 (single token) or the edge-list format."""
    stripped = text.strip()
    if "\n" in stripped or stripped.startswith("n "):
        return from_edge_list(text)
    return from_graph6(stripped)
