"""Permutations and finitely generated permutation groups.

Points are 0-indexed internally; cycle notation in output is 1-indexed.
The right-action convention is used throughout: ``i^(p*q) = (i^p)^q``,
i.e. ``p*q`` means "apply p first, then q".

Only outside input is validated: ``Permutation(images)`` checks that the
images form a bijection.  Products, inverses and identities of
validated permutations are bijections by construction, so they are built
by the unchecked ``_trusted`` constructor.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from math import gcd, isqrt, prod
from operator import itemgetter, ne
from typing import Iterable, Iterator, Optional, Sequence

# The fixed limits: reaching the cap or MAX_PAIR_ORBITS raises
# CapExceededError (exit 3).  The families AGL1(p), PSL2(p), PGL2(p) and
# AGL_d(2) are built, and so recognised, only for p <= MAX_FIELD_PRIME
# and d <= MAX_AGL_DIMENSION.
CAP_VARIABLE = "SMALLMOTION_CAP"
DEFAULT_CAP = 10**6
MAX_PAIR_ORBITS = 20
MAX_FIELD_PRIME = 23
MAX_AGL_DIMENSION = 4


def element_cap() -> int:
    """The element-enumeration cap: ``SMALLMOTION_CAP`` or ``DEFAULT_CAP``."""
    raw = os.environ.get(CAP_VARIABLE)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(f"{CAP_VARIABLE} must be a positive integer, "
                         f"got {raw!r}")
    return cap


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured element cap."""


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _then(images: tuple):
    """A map sending the images of q to those of p*q, for p = ``images``.

    ``itemgetter`` with one argument returns a scalar, so degrees 0 and 1,
    where every permutation is the identity, map q to itself.
    """
    return itemgetter(*images) if len(images) > 1 else tuple


class Permutation:
    """A bijection of {0, ..., n-1} stored as an image array."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection of 0..n-1")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return _trusted(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 0-indexed disjoint cycles."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            cyc = list(cyc)
            for i, a in enumerate(cyc):
                if a in seen:
                    raise ValueError("cycles are not disjoint")
                seen.add(a)
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: apply self first, then other."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return _trusted(_then(self.images)(other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return _trusted(tuple(inv))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g."""
        return g.inverse() * self * g

    def support(self) -> frozenset:
        return frozenset(i for i, img in enumerate(self.images) if img != i)

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        o = 1
        for cyc in self.cycles():
            o = o * len(cyc) // gcd(o, len(cyc))
        return o

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return format_cycles(self)


def _trusted(images: tuple) -> Permutation:
    """A Permutation from an image tuple known to be a bijection."""
    p = object.__new__(Permutation)
    p.images = images
    return p


def is_two_two(p: Permutation) -> bool:
    return p.cycle_type() == (2, 2)


# ---------------------------------------------------------------------------
# breadth-first orbits

def orbit(seed, maps: Sequence) -> Iterator:
    """The orbit of seed under the callables in maps, breadth first.

    Yields seed, then each new image ``f(x)`` (f in maps, x yielded
    before), in the discovery order of the breadth-first Schreier tree
    (Seress, Permutation Group Algorithms, section 4.1).
    """
    seen = {seed}
    yield seed
    queue = [seed]
    for x in queue:
        for f in maps:
            y = f(x)
            if y not in seen:
                seen.add(y)
                yield y
                queue.append(y)


def orbits(items: Iterable, maps: Sequence) -> list[list]:
    """The orbits under the maps of the members of items, each sorted, in
    the order of their least members; items must hold the least member of
    each orbit it meets."""
    seen, out = set(), []
    for item in sorted(items):
        if item not in seen:
            out.append(sorted(orbit(item, maps)))
            seen.update(out[-1])
    return out


def _root(parent: list[int], v: int) -> int:
    """v's root in the union-find forest ``parent``, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


# ---------------------------------------------------------------------------
# cycle notation (1-indexed, for output)

def format_cycles(p: Permutation) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(v + 1) for v in c) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# stabilizer chains

class StabilizerChain:
    """Base and strong generators for a permutation group.

    ``_gens[l]`` holds the strong generators that fix base[0..l-1] pointwise
    and move base[l]; the level-l stabilizer is generated by the union of
    ``_gens[l:]``.  The base starts with the ``prefix`` points, pinned even
    when every generator fixes them, so the levels below the prefix generate
    its pointwise stabilizer; one that fixes the prefix is filed at the
    least point it moves, which joins the base past the prefix in order,
    so chains with no prefix or the [0] of ``PermGroup.chain`` are
    lex-compatible.  Each level's basic orbit is searched breadth first
    over the level's generators, and kept as a Schreier vector in
    ``_vectors[l]`` (Seress, Permutation Group Algorithms, section 4.1):
    for each point the point it was first reached from and the index of
    the generator that reached it, among the generators of that search;
    ``_orbits[l]`` is its tree, a dict keyed by the orbit in the order
    reached.  ``_composed(l)`` gives two dicts by its points x: the images
    of the transversal element sending base[l] to x, and those of its
    inverse, built from the inverse each strong generator keeps in
    ``_gen_inverses`` from the time it is filed.  They are composed when
    a reader first scans the level, and kept; ``_element`` walks the
    vector for one.
    The generators are closed by deterministic Schreier-Sims.  Given the
    group's ``order``, every level's orbit is searched first and the
    closure stops once the basic orbits multiply to it (Seress, section
    4.3): that product never passes the order of the group filed, so
    reaching it proves the chain complete, and generators already strong
    for the base strip no Schreier generator.  A closure that ends at
    another order raises RuntimeError.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 prefix: Sequence[int] = (), order: Optional[int] = None):
        self.degree = degree
        self._identity = tuple(range(degree))
        self.base: list[int] = []
        self._gens: list[list[Permutation]] = []
        self._gen_inverses: list[list] = []     # _then of each inverse
        self._transversal: list[Optional[dict[int, tuple]]] = []
        self._inverses: list[Optional[dict[int, tuple]]] = []
        self._vectors: list[Optional[tuple]] = []   # (tree, gens, left_inv)
        self._orbits: list[dict] = []   # the vector's tree
        self._tables: Optional[list] = None     # of _levels
        self._pinned = len(prefix)
        for point in prefix:
            self._add_level(point, len(self.base))
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity():
                self._insert(g)
        if order is not None:       # the closure fills the deepest level
            for level in range(len(self.base) - 1):
                self._recompute_transversal(level)
        self._schreier_sims(len(self.base) - 1, order)
        if order is not None and self.order() != order:
            raise RuntimeError(f"chain of order {self.order()}, "
                               f"claimed {order}")

    def extend(self, g: Permutation) -> bool:
        """Add g unless it is already a member; return whether it was added.

        g's residue is filed at some level, maybe new; only it and the
        shallower ones are closed again, as deeper generators fix its point.
        """
        if g.degree != self.degree:
            raise ValueError("generator degree mismatch")
        residue = self._strip(g.images, 0)
        if residue == self._identity:
            return False
        self._schreier_sims(self._insert(_trusted(residue)))
        return True

    def _add_level(self, point: int, at: int) -> None:
        self.base.insert(at, point)
        self._gens.insert(at, [])
        self._gen_inverses.insert(at, [])
        self._transversal.insert(at, {})
        self._inverses.insert(at, {})
        self._vectors.insert(at, None)
        self._orbits.insert(at, {})

    def _insert(self, g: Permutation) -> int:
        """File g at the first pinned base point it moves, else at the least
        point it moves; return the level.  A residue of level i fixes base[i]
        and every point G_i fixes, so it is filed deeper than level i."""
        self._tables = None
        lvl = next((lvl for lvl, b in enumerate(self.base[:self._pinned])
                    if g(b) != b), None)
        if lvl is None:
            p = next(b for b in range(self.degree) if g(b) != b)
            lvl = bisect_left(self.base, p, self._pinned)
            if self.base[lvl:lvl + 1] != [p]:
                self._add_level(p, lvl)
        self._gens[lvl].append(g)
        self._gen_inverses[lvl].append(_then(g.inverse().images))
        return lvl

    def _lex_compatible(self) -> bool:
        """Does the base rise, with each strong generator (and so each
        level's group) fixing every point below its level's base point?"""
        return self.base == sorted(self.base) and all(
            g.images[:b] == self._identity[:b]
            for b, gens in zip(self.base, self._gens) for g in gens)

    def _level_gens(self, level: int) -> list[Permutation]:
        return [g for lvl in range(level, len(self._gens)) for g in self._gens[lvl]]

    def _recompute_transversal(self, level: int) -> None:
        """Search the level's basic orbit breadth first and keep its
        Schreier vector: the tree maps base[level] to None and each other
        point y to (x, k), y the image of x under generator k of this
        search, in the order reached.  Its elements are composed on first
        read (``_composed``)."""
        b = self.base[level]
        gens = [g.images for g in self._level_gens(level)]
        # (t * s)^-1 = s^-1 * t^-1
        left_inv = [f for lvl in range(level, len(self._gen_inverses))
                    for f in self._gen_inverses[lvl]]
        tree = {b: None}
        queue = [b]
        for x in queue:
            for k, s in enumerate(gens):
                y = s[x]
                if y not in tree:
                    tree[y] = (x, k)
                    queue.append(y)
        self._vectors[level] = (tree, gens, left_inv)
        self._transversal[level] = self._inverses[level] = None
        self._orbits[level] = tree

    def _composed(self, level: int) -> tuple[dict, dict]:
        """The level's transversal and inverses by point, composed from its
        Schreier vector in search order on first call and kept."""
        if self._transversal[level] is None:
            tree, gens, left_inv = self._vectors[level]
            trans, inverses = {}, {}
            parent = then_x = None
            for y, step in tree.items():
                if step is None:
                    trans[y] = inverses[y] = self._identity
                    continue
                x, k = step
                if x != parent:     # the children of x come together
                    parent, then_x = x, _then(trans[x])
                trans[y] = then_x(gens[k])
                inverses[y] = left_inv[k](inverses[x])
            self._transversal[level], self._inverses[level] = trans, inverses
        return self._transversal[level], self._inverses[level]

    def _element(self, level: int, x: int) -> tuple[tuple, tuple]:
        """(t, t^-1) for the level's transversal element t sending
        base[level] to x: read off a composed level, else composed along
        the Schreier vector's path from base[level] to x."""
        if self._transversal[level] is not None:
            return self._transversal[level][x], self._inverses[level][x]
        tree, gens, left_inv = self._vectors[level]
        path = []
        while tree[x] is not None:
            x, k = tree[x]
            path.append(k)
        t = inv = self._identity
        for k in reversed(path):
            t, inv = _then(t)(gens[k]), left_inv[k](inv)
        return t, inv

    def _strip(self, g: tuple, level: int) -> tuple:
        """The residue of the images g sifted through the levels from
        ``level`` on; the identity iff g is in that level's stabilizer."""
        base, inverses = self.base, self._inverses
        for i in range(level, len(base)):
            if g[base[i]] == base[i]:    # the transversal's identity entry
                continue
            t_inv = (inverses[i] or self._composed(i)[1]).get(g[base[i]])
            if t_inv is None:
                return g
            g = _then(g)(t_inv)
        return g

    def _schreier_sims(self, level: int, order: Optional[int] = None) -> None:
        """Close the chain from ``level`` down to 0; the levels above it
        must already be closed.  With the group's ``order``, every level's
        transversal must be filled, and the closure returns once they
        multiply to it."""
        i = level
        while i >= 0:
            self._recompute_transversal(i)
            if self.order() == order:
                return
            gens = [g.images for g in self._level_gens(i)]
            then_gens = [_then(s) for s in gens]
            trans, inverses = self._composed(i)
            new_level = None
            for x in sorted(trans):
                then_x = _then(trans[x])
                for s, then_s in zip(gens, then_gens):
                    # the Schreier generator t_x * s * t_{x^s}^-1
                    schreier = then_x(then_s(inverses[s[x]]))
                    residue = self._strip(schreier, i + 1)
                    if residue != self._identity:
                        new_level = self._insert(_trusted(residue))
                        break
                if new_level is not None:
                    break
            if new_level is None:
                i -= 1
            else:
                i = new_level

    def order(self) -> int:
        return prod(map(len, self._orbits))

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self._strip(g.images, 0) == self._identity

    def _levels(self, first: int = 0) -> list:
        """Per level d, for the base-image searches below: the transversal
        steps by the point they send base[d] to, and an id of each point's
        G_{d+1}-orbit (its root in a union-find forest; only equality of
        ids is read), recorded before level d's own generators are unioned
        in, deepest level first.  Built on first use from level ``first``
        on (the levels above stay None) and kept until the chain grows."""
        if self._tables is None:
            self._tables = [None] * len(self.base)
        if None not in self._tables[first:]:
            return self._tables
        parent = list(range(self.degree))
        for d in reversed(range(first, len(self.base))):
            if self._tables[d] is None:
                self._tables[d] = (
                    {x: _then(t) for x, t in self._composed(d)[0].items()},
                    tuple(_root(parent, q) for q in range(self.degree)))
            for g in self._gens[d]:
                for q, r in enumerate(g.images):
                    if q != r:
                        parent[_root(parent, r)] = _root(parent, q)
        return self._tables

    def _by_image(self, bound: list, root: int = 0) -> Iterator[tuple]:
        """(support, images) of each non-identity element of G_root moving
        at most ``bound[0]`` points, in increasing image tuple, on a
        lex-compatible chain; the caller may lower ``bound[0]`` between
        yields.  A depth-first backtrack over base images (Seress,
        Permutation Group Algorithms, ch. 9).  The node ``h = t_{d-1} * ...
        * t_root`` (t_l sends base[l] to x_l) is the coset ``G_d * h``.
        G_d fixes every point below base[d], so the coset's elements agree
        there, and those of the child for x send base[d] to h(x): children
        by increasing h(x) give increasing image tuples.  Each element of
        the coset moves every q with h(q) outside q's G_d-orbit, and more
        than ``bound[0]`` such q prune the node.  More than
        ``element_cap()`` nodes raise CapExceededError."""
        cap, depth, levels = element_cap(), len(self.base), self._levels(root)
        nodes = 0

        def visit(h: tuple, d: int) -> Iterator[tuple]:
            nonlocal nodes
            steps, oid = levels[d]
            nodes += len(steps)
            if nodes > cap:
                raise CapExceededError(f"minimal-support search exceeds "
                                       f"cap {CAP_VARIABLE}={cap} nodes")
            h_oid = tuple(map(oid.__getitem__, h))
            for x in sorted(steps, key=h.__getitem__):
                then_t = steps[x]
                moved = sum(map(ne, then_t(h_oid), oid))
                if moved > bound[0]:
                    continue
                if d + 1 < depth:
                    yield from visit(then_t(h), d + 1)
                elif moved:
                    yield moved, then_t(h)

        return visit(self._identity, root) if depth > root else iter(())

    def _transports(self, pairs: Sequence[tuple], tick) -> bool:
        """Whether some element maps a to b for every (a, b) in pairs, by
        the backtrack of ``_by_image``: ``v * h`` (v in G_d) maps a
        to b iff v(a) = h^-1(b), so each h^-1(b) must lie in a's G_d-orbit,
        and a pair whose a is base[d] forces t_d to send base[d] to
        h^-1(b).  ``tick`` is called once per node."""
        src = tuple(a for a, _ in pairs)
        levels = self._levels()
        wants = [tuple(map(oid.__getitem__, src)) for _, oid in levels]

        def visit(u: tuple, d: int) -> bool:    # u[i] = h^-1(b_i)
            if u == src or d == len(levels):
                return u == src                 # the identity of G_d
            # _levels() composed every level
            inverses, oid, b = self._inverses[d], levels[d][1], self.base[d]
            for x in ([u[src.index(b)]] if b in src else inverses):
                t_inv = inverses.get(x)
                if t_inv is not None:
                    tick()
                    child = tuple(map(t_inv.__getitem__, u))
                    if tuple(map(oid.__getitem__, child)) == wants[d] \
                            and visit(child, d + 1):
                        return True
            return False

        return visit(tuple(b for _, b in pairs), 0)


# ---------------------------------------------------------------------------
# block systems

@dataclass(frozen=True)
class BlockSystem:
    """A partition of {0, ..., degree-1} into parts of equal size >= 2;
    ``block_of[v]`` is the index of v's part."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...] = field(repr=False, compare=False, default=())

    def __post_init__(self):
        seen, sizes = set().union(*self.blocks), set(map(len, self.blocks))
        if seen != set(range(self.degree)):
            raise ValueError("blocks must partition the point set")
        if len(seen) != sum(len(b) for b in self.blocks):
            raise ValueError("blocks must be disjoint")
        if len(sizes) != 1 or sizes.pop() < 2:
            raise ValueError("blocks must have uniform size >= 2")
        index = [0] * self.degree
        for i, blk in enumerate(self.blocks):
            for v in blk:
                index[v] = i
        object.__setattr__(self, "block_of", tuple(index))

    @classmethod
    def from_blocks(cls, degree: int, blocks: Iterable[Iterable[int]]) -> "BlockSystem":
        norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(degree, norm)

    def __len__(self) -> int:
        return len(self.blocks)


class PermGroup:
    """A finitely generated permutation group on {0, ..., degree-1}."""

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        for g in self.generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self._chain: Optional[StabilizerChain] = None

    # -- chain plumbing ---------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators,
                                          range(min(self.degree, 1)))
        return self._chain

    def chain_with_base(self, prefix: Sequence[int]) -> StabilizerChain:
        """A chain whose base starts with the prefix points: ``chain``
        itself when its base does (so the caller must not extend it), else
        the strong generators of ``chain`` closed by Schreier-Sims on that
        base, which stops once the basic orbits multiply to the group's
        order."""
        prefix = list(prefix)
        if self.chain.base[:len(prefix)] == prefix:
            return self.chain
        return StabilizerChain(self.degree, self.chain._level_gens(0), prefix,
                               order=self.order())

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Permutation) -> bool:
        return self.chain.contains(g)

    def is_trivial(self) -> bool:
        return not self.generators

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"

    # -- orbits and transitivity -----------------------------------------

    def orbits(self) -> list[frozenset]:
        return list(map(frozenset, orbits(range(self.degree),
                                          self.generators)))

    def is_transitive(self) -> bool:
        """Is the chain's level-0 basic orbit, that of base[0], every
        point?  A chain with no base belongs to a trivial group."""
        chain = self.chain
        return self.degree == (len(chain._orbits[0]) if chain.base else 1)

    # -- blocks -----------------------------------------------------------

    def _closure_classes(self, points: Iterable[int]) -> list[tuple]:
        """The classes, sorted, of the finest G-invariant partition with the
        points in one class: theirs first, then by least point.  Atkinson's
        queue ("An algorithm for finding the blocks of a permutation
        group", 1975) holds the seed pairs and the images of each pair that
        merges two classes.  For a transitive group the classes are the
        images of the first, the smallest block holding the points."""
        pts = sorted(set(points))
        if not pts:
            raise ValueError("need at least one point")
        parent = list(range(self.degree))
        gens = [g.images for g in self.generators]
        queue = [(pts[0], p) for p in pts[1:]]
        for a, b in queue:
            ra, rb = _root(parent, a), _root(parent, b)
            if ra != rb:
                parent[rb] = ra
                queue.extend((g[a], g[b]) for g in gens)
        classes: dict = {_root(parent, pts[0]): []}   # the seed's class first
        for v in range(self.degree):
            classes.setdefault(_root(parent, v), []).append(v)
        return list(map(tuple, classes.values()))

    def _block_closure(self, points: Iterable[int]) -> frozenset:
        """Smallest block holding the points, for a transitive group."""
        return frozenset(self._closure_classes(points)[0])

    def minimal_block_system(self) -> Optional[BlockSystem]:
        """A system of minimal blocks, or None iff the group is primitive.

        Deterministic: seeds {0, beta} are scanned for beta = 1, 2, ...
        until one closes to a proper block B.  B can contain a smaller
        block, which is then the closure of {0, gamma} for some gamma in B;
        the smallest such closure (first gamma on ties) is minimal.
        """
        if not self.is_transitive():
            raise ValueError("group is not transitive")
        for beta in range(1, self.degree):
            classes = self._closure_classes((0, beta))
            if len(classes) > 1:
                for gamma in sorted(set(classes[0]) - {0, beta}):
                    inner = self._closure_classes((0, gamma))
                    if len(inner) > len(classes):
                        classes = inner
                return BlockSystem.from_blocks(self.degree, classes)
        return None

    def block_system_from(self, points: Iterable[int]) -> BlockSystem:
        """The system of the smallest block holding the points, for a
        transitive group: the classes of their closure."""
        return BlockSystem.from_blocks(self.degree,
                                       self._closure_classes(points))

    def mover(self, a: int, b: int) -> Permutation:
        """t_a^-1 * t_b, taking a to b: t_x is the element of the chain's
        level-0 transversal taking base[0] to x, walked up the level's
        Schreier vector unless the level is composed."""
        chain = self.chain
        return _trusted(_then(chain._element(0, a)[1])(chain._element(0, b)[0]))

    def is_primitive(self) -> bool:
        """No block system; error on an intransitive group."""
        return self.minimal_block_system() is None

    # -- induced actions and stabilizers ---------------------------------

    def restriction(self, points: Sequence[int]) -> "PermGroup":
        """The action on a set of points that the generators preserve;
        new point i is ``points[i]``."""
        pos = {v: i for i, v in enumerate(points)}
        return PermGroup(len(points), [Permutation([pos[g(v)] for v in points])
                                       for g in self.generators])

    def block_stabilizer(self, block: Iterable[int]) -> "PermGroup":
        """G_B for a block B (ValueError unless B is its own block closure):
        with b0 = min(B), G_B = <G_{b0}, u_b : b in B>, u_b sending b0 to b.
        One chain whose base starts with b0 holds both (Seress, Permutation
        Group Algorithms, ch. 4), ``chain`` itself when b0 is its first base
        point: its levels below b0 are kept, and level 0 gains the u_b of
        its first transversal.  Those generators are strong for the base,
        so the result's chain, told its order |G_{b0}| |B meet b0^G|, strips
        no Schreier generator; it raises RuntimeError if they close to any
        other order."""
        blk = frozenset(block)
        if self._block_closure(blk) != blk:
            raise ValueError(f"{sorted(blk)} is not a block of the group")
        b0 = min(blk)
        chain = self.chain_with_base([b0])
        orbit0 = chain._orbits[0]
        reached = [b for b in sorted(blk) if b in orbit0]    # b0 first
        gens = chain._level_gens(1) + [_trusted(chain._element(0, b)[0])
                                       for b in reached[1:]]
        group = PermGroup(self.degree, gens)
        group._chain = StabilizerChain(
            self.degree, gens, chain.base,
            order=self.order() // len(orbit0) * len(reached))
        return group

    def pointwise_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """The elements fixing every given point: the strong generators of
        the levels below the points in ``chain_with_base`` on them.  The
        group itself when its generators fix them."""
        prefix = sorted(set(points))
        if all(g(p) == p for g in self.generators for p in prefix):
            return self
        return PermGroup(self.degree, self.chain_with_base(prefix)
                         ._level_gens(len(prefix)))

    # -- closures and minimal degree -------------------------------------

    def normal_closure(self, x: Permutation) -> "PermGroup":
        """The subgroup generated by all conjugates of x, on the chain grown."""
        if x.degree != self.degree:
            raise ValueError("degree mismatch")
        gens: list[Permutation] = []
        sub = StabilizerChain(self.degree, [])
        queue = deque([x])
        while queue:
            h = queue.popleft()
            if not sub.extend(h):
                continue
            gens.append(h)
            for g in self.generators:
                queue.append(h.conjugate(g))
        # every conjugate of a kept generator was queued, so each is in sub
        for g in self.generators:
            for h in gens:
                if not sub.contains(h.conjugate(g)):
                    raise RuntimeError("normal closure is not normalized "
                                       "by the group's generators")
        group = PermGroup(self.degree, gens)
        group._chain = sub
        return group

    def _walk(self, bound: list) -> Iterator[tuple]:
        """``_by_image`` of ``chain`` (if not lex-compatible, of one built
        on its strong generators with no prefix) from the first level whose
        basic orbit has at most ``bound[0]`` points.  There a conjugation-
        closed set S of elements moving that many has its least member: on
        a level l with a larger orbit, x in S and G_l fixes one of its
        points, so has a conjugate fixing base[l], the orbit's least point,
        and G_l fixes all below, so S's least member in G_l fixes base[l]."""
        chain = self.chain
        if not chain._lex_compatible():
            chain = StabilizerChain(self.degree, chain._level_gens(0),
                                    order=self.order())
        root = next((lvl for lvl, orbit in enumerate(chain._orbits)
                     if len(orbit) <= bound[0]), len(chain.base))
        return chain._by_image(bound, root)

    def _least_supports(self, bound: int) -> Iterator[Permutation]:
        """Non-identity elements moving at most ``bound`` points, in
        increasing image tuple, from the ``_walk`` level: they hold the
        least member of each conjugation-closed set of such elements."""
        return (_trusted(h) for _, h in self._walk([bound]))

    def minimal_degree_witness(self) -> tuple[int, Permutation]:
        """(min |supp(x)| over non-identity x, the least element by image
        tuple of prime order and that support), from one ``_walk`` whose
        bound starts at B, the least support of a strong generator, as
        supp(x^k) lies in supp(x).  A leaf of prime order and support s is
        kept and the bound falls to s - 1; any other sets it to s.  Leaves
        come in increasing image tuple, so a kept one is the least of prime
        order and support at most s (an earlier one was met under a bound
        of at least s): the last one kept is the witness.  Error if trivial."""
        if self.is_trivial():
            raise ValueError("minimal degree of the trivial group is undefined")
        bound = [min(sum(map(ne, g.images, self.chain._identity))
                     for g in self.chain._level_gens(0))]
        for s, h in self._walk(bound):
            if _is_prime(_trusted(h).order()):
                witness, bound[0] = (s, _trusted(h)), s - 1
            else:
                bound[0] = s
        return witness

    def minimal_degree(self) -> int:
        """min |supp(x)| over non-identity x; error on the trivial group."""
        return self.minimal_degree_witness()[0]


# ---------------------------------------------------------------------------
# permutation isomorphism

def permutation_isomorphic(g1: PermGroup, g2: PermGroup):
    """A point bijection f with f^-1 G1 f = G2, plus generator images.

    Returns (f, phi) where f is a Permutation and phi maps each generator x
    of g1 to f^-1 x f (an element of g2), so that f(w^x) = f(w)^phi(x) for
    all points w.  Returns None when no such bijection exists.

    f grows point by point along G1's Schreier trees, orbit by orbit.  The
    first root takes one point of each G2-orbit of its orbit's length (f * g
    is a witness with f, for g in G2), later roots any unused point of such
    an orbit, other points any of their root's image orbit.  A point is
    pruned unless, for each generator s it gives a new known pair, some
    element of G2 maps every known (f(x), f(s(x))) pair
    (``StabilizerChain._transports``).  More than ``element_cap()`` nodes
    raise CapExceededError.
    """
    if g1.degree != g2.degree or g1.order() != g2.order():
        return None
    if all(x in g2 for x in g1.generators):    # the same group
        return g1.identity(), {x: x for x in g1.generators}
    orbits1, orbits2 = g1.orbits(), [tuple(sorted(o)) for o in g2.orbits()]
    if sorted(map(len, orbits1)) != sorted(map(len, orbits2)):
        return None
    orbit2_of = {c: o for o in orbits2 for c in o}
    gens = [(x.images, x.inverse().images) for x in g1.generators]
    points = [(y, min(o), len(o)) for o in orbits1     # (y, root, length)
              for y in orbit(min(o), g1.generators)]
    chain, f = g2.chain, {}
    cap, nodes = element_cap(), 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceededError(f"permutation-isomorphism search exceeds "
                                   f"cap {CAP_VARIABLE}={cap} nodes")

    def extend(i: int) -> bool:
        if i == len(points):
            return True
        y, root, size = points[i]
        candidates = orbit2_of[f[root]] if y != root else [
            c for o in orbits2 if len(o) == size for c in (o if i else o[:1])]
        for c in candidates:
            if c in f.values():
                continue
            tick()
            f[y] = c
            if all(chain._transports([(f[x], f[s[x]]) for x in f if s[x] in f],
                                     tick)
                   for s, s_inv in gens if s[y] in f or s_inv[y] in f) \
                    and extend(i + 1):
                return True
            del f[y]
        return False

    if not extend(0):
        return None
    fp = Permutation([f[a] for a in range(g1.degree)])
    phi = {x: x.conjugate(fp) for x in g1.generators}
    if not all(h in g2 for h in phi.values()):
        raise RuntimeError("isomorphism search reached a bijection that "
                           "does not conjugate G1 into G2")
    return fp, phi
