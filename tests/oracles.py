"""Brute-force oracles: exhaustive scans and full searches the fast code
is checked against, and the small graph grids, group strategies, graph
helpers and counters the tests share.  The paper's statements that no
library path runs live here too: the paired-fibre dichotomy, Table 3 and
the embedding of an imprimitive group into a wreath product.  So do the
tests' automorphism and block-action checks, coloured isomorphism
between two graphs, and the routes the library replaced that its tests
compare against: the per-table row matchers, the 2^2 classes from a
search of the whole group, the decomposition that tries the lex forms
before the paired-fibre form, the decomposition that proves every round
trip by a search, the paired-fibre bits found by fibre searches, the
block system as the orbit of a block, the lex and paired-fibre builds
from edge lists, the minimal-support walk that collects and sorts,
the product-order enumeration of all elements, the breadth-first search
that composes every transversal element as it reaches its point, and the
graph6 codec that walks one 6-bit group and one set bit at a time."""

import functools
import itertools
import operator
from dataclasses import dataclass

from hypothesis import strategies as st

from smallmotion import grouptables
from smallmotion.grouptables import (TABLE1, TABLE2, TABLE4, c2_wr_sym,
                                     even_flips_rtimes_sym, one_cross_sym,
                                     tau_cross_sym)
from smallmotion.autengine import (automorphism_group, motion_witness,
                                   transitivity_aut, twin_classes)
from smallmotion.classify import (ClassificationReport,
                                  NotVertexTransitiveError,
                                  _outside_classes, _try_lex_form,
                                  named_graph, sigma_matchings)
from smallmotion.graphcore import (Graph, InfParams, _bits, _maps_onto,
                                   _SourcePath, alternate_matching,
                                   are_isomorphic, complete_graph,
                                   cycle_graph, empty_graph, inf_graph,
                                   lex_product, prism_graph, quotient_graph,
                                   to_graph6)
from smallmotion.permcore import (BlockSystem, CapExceededError, PermGroup,
                                  Permutation, StabilizerChain, _is_prime,
                                  _then, _trusted, element_cap,
                                  format_cycles, is_two_two, orbit,
                                  permutation_isomorphic)
from smallmotion.wreath import wreath_product


def equitable_refinement(graph: Graph, colors) -> list[int]:
    """The coarsest equitable partition finer than ``colors``, as colour
    ids 0, 1, ...: depth 0 of the graph's first path."""
    return _SourcePath(graph, colors).level(0)[1]


def coloured_isomorphism(g1: Graph, c1, g2: Graph, c2):
    """The first isomorphism from g1 onto g2 that takes each colour of c1
    to the vertices of g2 with that colour in c2, or None: a search on
    g1's first path coloured c1, with c2 in the ids that
    ``_SourcePath.__init__`` gives c1's hashable colours."""
    ids = seed_ids(c1)
    if g2.n != g1.n or any(c not in ids for c in c2):
        return None
    found = _SourcePath(g1, c1).transport(g2, [ids[c] for c in c2], 0)
    return None if found is None else Permutation(found)


def seed_ids(colors) -> dict:
    """Each hashable colour -> its id 0, 1, ... in first-seen order, as
    ``_SourcePath.__init__`` numbers the seed colours."""
    ids: dict = {}
    for c in colors:
        ids.setdefault(c, len(ids))
    return ids


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a)
                                    for j in range(b)])


def with_edge_removed(graph: Graph, u: int, v: int) -> Graph:
    adj = list(graph.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(graph.n, adj)


def to_edge_list(graph: Graph) -> str:
    """Edge-list text: 'n <count>' then one 1-indexed edge per line."""
    lines = [f"n {graph.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def relabel(graph: Graph, perm: Permutation) -> Graph:
    """Image of the graph under a vertex permutation (v -> perm(v))."""
    return Graph.from_edges(graph.n, [(perm(u), perm(v))
                                      for u, v in graph.edges()])


def neighbors(graph: Graph, v: int) -> list[int]:
    return list(graph.neighbor_lists()[v])


def sorted_keys(graph: Graph, colors: list) -> list:
    """Each vertex's key (colour, its neighbours' colours, sorted)."""
    return [(c, tuple(sorted(colors[w] for w in nbrs)))
            for c, nbrs in zip(colors, graph.neighbor_lists())]


def refine_pass_sorted(graph: Graph, colors: list, key_ids: dict) -> list:
    """One refinement pass keyed by (colour, sorted neighbour colours), on
    colours of any ordered type; new ids follow the first vertex of each
    key (oracle for the packed keys of ``graphcore._refine_pass``)."""
    return [key_ids.setdefault(k, len(key_ids))
            for k in sorted_keys(graph, colors)]


class FullPassPath(_SourcePath):
    """``graphcore._SourcePath`` with every pass keyed by all neighbour
    colours and a recursive search (oracle for the splitter passes and
    the explicit search stack).  A depth keeps (key table, sorted
    colours) per pass, in the place of the path's (splitters, key table,
    sorted colours)."""

    def level(self, depth: int) -> tuple:
        while len(self.levels) <= depth:
            colors = self._seed
            if self.levels:
                _, stable, v, fresh = self.levels[-1]
                colors = list(stable)
                colors[v] = fresh
            passes, count = [], len(set(colors))
            while True:
                key_ids: dict = {}
                colors = refine_pass_sorted(self.graph, colors, key_ids)
                passes.append((key_ids, sorted(colors)))
                if len(key_ids) == count:
                    break
                count = len(key_ids)
            size = [colors.count(c) for c in range(count)]
            v = next((u for u, c in enumerate(colors) if size[c] > 1), None)
            self.levels.append((passes, colors, v, count))
        return self.levels[depth]

    def transport(self, g2: Graph, colors: list, depth: int):
        self.nodes += 1
        if self.nodes > self.cap:
            raise CapExceededError(f"transporter search exceeds cap "
                                   f"{self.cap} nodes")
        passes, stable, v, fresh = self.level(depth)
        for key_ids, hist in passes:
            colors = [key_ids.get(k, -1) for k in sorted_keys(g2, colors)]
            if sorted(colors) != hist:
                return None
        if v is None:   # discrete: cells correspond by colour
            at = [0] * len(colors)
            for w, c in enumerate(colors):
                at[c] = w
            mapping = [at[c] for c in stable]
            return mapping if _maps_onto(self.graph, mapping, g2) else None
        for w, c in enumerate(colors):
            if c == stable[v]:
                branch = list(colors)
                branch[w] = fresh
                found = self.transport(g2, branch, depth + 1)
                if found is not None:
                    return found
        return None


def find_twins_all_pairs(graph: Graph) -> list[tuple[int, int]]:
    """The pairs u < v whose neighbourhoods agree off {u, v}, by testing
    every pair (oracle for ``autengine.twin_classes``)."""
    return [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
            if graph.adj[u] & ~(1 << v) == graph.adj[v] & ~(1 << u)]


def twin_pairs(graph: Graph) -> list[tuple[int, int]]:
    """The sorted pairs u < v of each ``autengine.twin_classes`` class."""
    return sorted(pair for c in twin_classes(graph)
                  for pair in itertools.combinations(c, 2))


def inf_grid(ms=(2, 3)):
    """Every (lambda, kappa, sigma, matching, m) instance of the small grid,
    m in ``ms``."""
    for family, n in (("cycle", 4), ("cycle", 6), ("cycle", 8), ("prism", 3)):
        token = f"{family}:{n}"
        sigma = named_graph(token)
        for mname, pairs in sigma_matchings(family, n):
            for lam, kap in itertools.product((0, 1), repeat=2):
                for m in ms:
                    yield token, mname, InfParams(lam, kap, m), sigma, pairs


def count_base_changes(monkeypatch) -> list:
    """The prefixes of the ``PermGroup.chain_with_base`` calls from now on
    that build a chain, not return the group's own."""
    built = []
    original = PermGroup.chain_with_base

    def counting(self, prefix):
        chain = original(self, prefix)
        if chain is not self.chain:
            built.append(tuple(prefix))
        return chain

    monkeypatch.setattr(PermGroup, "chain_with_base", counting)
    return built


def power(p: Permutation, k: int) -> Permutation:
    """p^k by repeated squaring; a negative k powers the inverse."""
    if k < 0:
        return power(p.inverse(), -k)
    result, base = Permutation.identity(p.degree), p
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def closure(degree: int, generators, cap=None) -> set:
    """Exhaustive closure of a generating set (oracle for chain orders)."""
    if cap is None:
        cap = element_cap()
    # left products of image tuples: the same set as right products
    maps = [_then(g.images) for g in generators]
    images = set(itertools.islice(orbit(tuple(range(degree)), maps),
                                  cap + 1))
    if len(images) > cap:
        raise CapExceededError(f"closure exceeds cap {cap}")
    return set(map(_trusted, images))


def elements(group, cap=None):
    """All elements of a PermGroup, at most ``element_cap()`` of them, or
    of a StabilizerChain, at most ``cap``, in product order: element
    ``t_{k-1} * ... * t_1 * t_0`` (t_l from the level-l transversal in
    point order) comes before any element with a later t_{k-1}, ties
    broken by t_{k-2} and so on.  The transversals are walked depth
    first, one product per tree node."""
    chain = group
    if isinstance(group, PermGroup):
        chain, cap = group.chain, element_cap()
    if cap is not None and chain.order() > cap:
        raise CapExceededError(f"group order {chain.order()} exceeds cap "
                               f"SMALLMOTION_CAP={cap}")
    levels = [[trans[x] for x in sorted(trans)] for trans, _ in
              map(chain._composed, reversed(range(len(chain.base))))]

    def walk(prefix: tuple, depth: int):
        if depth == len(levels):
            yield _trusted(prefix)
            return
        then = _then(prefix)
        for t in levels[depth]:
            yield from walk(then(t), depth + 1)

    return walk(chain._identity, 0)


def small_supports_by_collection(chain: StabilizerChain, bound: int,
                                 falling: bool, root: int = 0) -> list:
    """The non-identity elements of the level-``root`` stabilizer moving
    at most ``bound`` points, sorted by image tuple; with ``falling`` the
    bound drops to the smallest support found and only its elements are
    returned (oracle for ``StabilizerChain._by_image`` and its readers).
    It visits children in transversal order, keeps every leaf within the
    bound and sorts them at the end, so it needs no lex-compatible chain."""
    depth, levels = len(chain.base), chain._levels(root)
    found = []

    def visit(h: tuple, d: int) -> None:
        nonlocal bound, found
        steps, oid = levels[d]
        h_oid = tuple(map(oid.__getitem__, h))
        for then_t in steps.values():
            child = then_t(h)
            moved = sum(map(operator.ne, then_t(h_oid), oid))
            if moved > bound:
                continue
            if d + 1 < depth:
                visit(child, d + 1)
            elif moved:
                if falling and moved < bound:
                    bound, found = moved, []
                found.append(child)

    if depth > root:
        visit(chain._identity, root)
    return [_trusted(h) for h in sorted(found)]


def witnesses_by_collection(group: PermGroup) -> list:
    """The minimal-degree witness, the least prime cycle and the 2^2
    classes, read off ``small_supports_by_collection`` of the whole group
    (oracle for ``minimal_degree_witness``, ``_find_p_cycle`` and
    ``grouptables._two_two_classes``)."""
    chain, n = group.chain, group.degree
    witness = next(g for g in small_supports_by_collection(chain, n, True)
                   if _is_prime(g.order()))
    cycle = next((g for p in range(2, n + 1) if _is_prime(p)
                  for g in small_supports_by_collection(chain, p, False)
                  if g.cycle_type() == (p,)), None)
    return [(len(witness.support()), witness), cycle, two_two_classes(group)]


def join_closure(atoms, join) -> set:
    """The least family holding the atoms and closed under ``join`` of its
    incomparable pairs (a comparable pair is its own join).  Each round
    joins the members first found in the round before with every member
    found earlier and with each other, so no pair is joined twice."""
    family = []
    fresh = set(atoms)
    while fresh:
        found = set()
        for a in fresh:
            found.update(join(a, b) for b in family
                         if not (a <= b or b <= a))
            family.append(a)
        fresh = found.difference(family)
    return set(family)


def subgroups_by_cyclic_joins(elements, degree: int) -> set:
    """Every subgroup of a small group as a frozenset of its elements: the
    join closure of its cyclic subgroups.  Each subgroup keeps the
    generators it was first built from, and a join is the exhaustive
    closure of the union of its two sides' generators."""
    built_from = {}

    def closure_set(gens):
        seen = frozenset(closure(degree, gens, cap=len(elements)))
        built_from.setdefault(seen, gens)
        return seen

    return join_closure({closure_set([g]) for g in elements},
                        lambda a, b: closure_set(built_from[a] + built_from[b]))


def reduce_generators(degree: int, elements) -> PermGroup:
    """The group of the elements, on generators picked greedily in sorted
    order: an element is kept when ``StabilizerChain.extend`` grows the
    chain, which the group keeps."""
    chain = StabilizerChain(degree, [])
    group = PermGroup(degree, [e for e in sorted(set(elements))
                               if chain.extend(e)])
    group._chain = chain
    return group


def transversal_by_bfs(chain: StabilizerChain, level: int) -> tuple:
    """The level's transversal and inverses, each a dict by point in
    search order, from a breadth-first search that composes each element
    t_y = t_x * s, and inverts it, as it reaches y from x by generator s,
    over the generators the level's Schreier vector was searched with."""
    gens = chain._vectors[level][1]
    b, ident = chain.base[level], chain._identity
    trans, inverses = {b: ident}, {b: ident}
    queue = [b]
    for x in queue:
        for s in gens:
            y = s[x]
            if y not in trans:
                t = Permutation(trans[x]) * Permutation(s)
                trans[y], inverses[y] = t.images, t.inverse().images
                queue.append(y)
    return trans, inverses


def random_element(chain: StabilizerChain, rng) -> Permutation:
    """A uniform random element of the chain's group: one random entry of
    each transversal, multiplied up the levels."""
    g = chain._identity
    for level in range(len(chain.base)):
        trans = chain._composed(level)[0]
        g = _then(trans[rng.choice(list(trans))])(g)
    return _trusted(g)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product; vertex (v1, v2) gets index v2*|V1| + v1."""
    n1 = g1.n
    edges = [(v2 * n1 + a, v2 * n1 + b) for v2 in range(g2.n)
             for a, b in g1.edges()]
    edges += [(a * n1 + v1, b * n1 + v1) for a, b in g2.edges()
              for v1 in range(n1)]
    return Graph.from_edges(n1 * g2.n, edges)


def has_edge(graph: Graph, u: int, v: int) -> bool:
    return bool(graph.adj[u] & (1 << v))


def is_automorphism(graph: Graph, perm: Permutation) -> bool:
    return perm.degree == graph.n and _maps_onto(graph, perm.images, graph)


def is_invariant_partition(group: PermGroup, bs: BlockSystem) -> bool:
    blocks = set(bs.blocks)
    return all(
        tuple(sorted(g(v) for v in blk)) in blocks
        for g in group.generators for blk in bs.blocks
    )


def action_on_blocks(group: PermGroup, bs: BlockSystem) -> PermGroup:
    """The action of the group on the blocks of a block system; new
    point i is block ``bs.blocks[i]``."""
    if not is_invariant_partition(group, bs):
        raise ValueError("partition is not invariant")
    gens = []
    for g in group.generators:
        images = [bs.block_of[g(blk[0])] for blk in bs.blocks]
        gens.append(Permutation(images))
    return PermGroup(len(bs.blocks), gens)


def automorphism_group_brute(graph, max_n: int = 8) -> PermGroup:
    """The automorphism group by scanning all n! permutations."""
    if graph.n > max_n:
        raise CapExceededError(f"brute-force cap exceeded: {graph.n} > {max_n}")
    auts = [Permutation(images)
            for images in itertools.permutations(range(graph.n))
            if is_automorphism(graph, Permutation(images))]
    return reduce_generators(graph.n, auts)


def minimal_degree_full_scan(group: PermGroup) -> int:
    """The minimal degree by scanning every non-identity element."""
    if group.is_trivial():
        raise ValueError("minimal degree of the trivial group is undefined")
    return min(len(g.support()) for g in elements(group)
               if not g.is_identity())


def least_witnesses_by_scan(group: PermGroup) -> list:
    """By a scan of every element: (minimal degree, the least element by
    image tuple of prime order and that support), the least p-cycle (None
    if there is none) for each prime p <= degree, and, for a transitive
    group with a 2^2-element, the witness of ``classify_22_group``: the
    least element moving fewer than 4 points, else the least 2^2-element."""
    elems = sorted(g for g in elements(group) if not g.is_identity())
    low = min(len(g.support()) for g in elems)
    out = [(low, next(g for g in elems if len(g.support()) == low
                      and _is_prime(g.order())))]
    out += [next((g for g in elems if g.cycle_type() == (p,)), None)
            for p in range(2, group.degree + 1) if _is_prime(p)]
    two_two = [g for g in elems if is_two_two(g)]
    if two_two and group.is_transitive():
        out.append(next((g for g in elems if len(g.support()) < 4),
                        two_two[0]))
    return out


def is_2_transitive(g: PermGroup) -> bool:
    """Transitive with a point stabilizer transitive on the remaining points."""
    if not g.is_transitive():
        return False
    if g.degree < 2:
        return False
    stab = g.pointwise_stabilizer([0])
    orbs = [o for o in stab.orbits() if 0 not in o]
    return len(orbs) == 1 and len(orbs[0]) == g.degree - 1


def _transporter_counts(elements, degree: int):
    counts = [[0] * degree for _ in range(degree)]
    for g in elements:
        for a in range(degree):
            counts[a][g(a)] += 1
    return counts


def permutation_isomorphic_backtrack(g1: PermGroup, g2: PermGroup):
    """``permutation_isomorphic`` by a point-by-point backtrack over all
    bijections, pruned only by the counts of elements sending a to b (the
    same for every pair of points of a transitive group); each leaf is
    checked against G2's element set."""
    if g1.degree != g2.degree or g1.order() != g2.order():
        return None
    n = g1.degree
    if all(x in g2 for x in g1.generators):    # the same group
        return Permutation.identity(n), {x: x for x in g1.generators}
    elems2 = set(elements(g2))
    t1 = _transporter_counts(elements(g1), n)
    t2 = _transporter_counts(sorted(elems2), n)

    def extend(mapping: list, used: list):
        a = len(mapping)
        if a == n:
            f = Permutation(mapping)
            if all(x.conjugate(f) in elems2 for x in g1.generators):
                return f, {x: x.conjugate(f) for x in g1.generators}
            return None
        for b in range(n):
            if used[b] or t1[a][a] != t2[b][b]:
                continue
            if any(t1[a][a2] != t2[b][b2] or t1[a2][a] != t2[b2][b]
                   for a2, b2 in enumerate(mapping)):
                continue
            mapping.append(b)
            used[b] = True
            found = extend(mapping, used)
            if found is not None:
                return found
            mapping.pop()
            used[b] = False
        return None

    return extend([], [False] * n)


def block_systems_all_beta(group: PermGroup) -> list[BlockSystem]:
    """``PermGroup.block_systems`` with one atom per point: the join
    closure of the smallest blocks holding {0, beta} for every beta."""
    atoms = {group._block_closure((0, beta))
             for beta in range(1, group.degree)}
    blocks = join_closure(atoms, lambda b, c: group._block_closure(b | c))
    systems = [group.block_system_from(b) for b in blocks
               if len(b) < group.degree]
    return sorted(systems, key=lambda s: (len(s.blocks[0]), s.blocks))


def block_system_by_orbit(group: PermGroup, block) -> BlockSystem:
    """The orbit of the given block under the group, as a block system
    (oracle for ``PermGroup.block_system_from``, which reads the system
    off the block closure's classes)."""
    maps = [lambda blk, g=g: tuple(sorted(map(g, blk)))
            for g in group.generators]
    return BlockSystem.from_blocks(
        group.degree, orbit(tuple(sorted(block)), maps))


def block_system_containing_support(group: PermGroup, supp: frozenset):
    """The system of the first proper closure of {min(supp), beta}, beta
    in supp, that holds all of supp, else None (group transitive).  When
    it exists its block is the closure of supp; it need not be minimal: on
    S2 wr (S2 wr S2) with x = (1,2)(3,4) its blocks have size 4, while the
    minimal blocks are the pairs."""
    pts = sorted(supp)
    for beta in pts[1:]:
        block = group._block_closure((pts[0], beta))
        if len(block) < group.degree and supp <= block:
            return group.block_system_from(block)
    return None


def decompose_motion2_twins(graph):
    """The motion-2 decomposition over the twin classes, the orbits of the
    group the twin transpositions generate: complete fibres for true
    twins, edgeless ones for false twins, over the quotient."""
    pairs = twin_pairs(graph)
    group = PermGroup(graph.n, [Permutation.from_cycles(graph.n, [p])
                                for p in pairs])
    classes = sorted(tuple(sorted(o)) for o in group.orbits())
    m = len(classes[0])
    form, fibre = (("lex_Km", complete_graph(m)) if has_edge(graph, *pairs[0])
                   else ("lex_mK1", empty_graph(m)))
    theta = quotient_graph(graph, classes)
    reconstruction = lex_product(fibre, theta)
    return ClassificationReport(
        motion=2, form=form, m=m, theta=theta, reconstruction=reconstruction,
        verified=are_isomorphic(reconstruction, graph) is not None)


@st.composite
def imprimitive_groups(draw):
    """A group of degree <= 8: random generators, or random elements of
    Sym(a) wr Sym(b) (ab <= 8, blocks {ia, ..., ia+a-1}) under a random
    relabelling, so that most samples have blocks."""
    a, b = draw(st.sampled_from([(1, 4), (1, 6), (2, 2), (2, 3), (2, 4),
                                 (3, 2), (4, 2), (1, 7)]))
    n = a * b
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.permutations(range(b)))
        inner = [draw(st.permutations(range(a))) for _ in range(b)]
        gens.append(Permutation([top[j] * a + inner[j][i]
                                 for j in range(b) for i in range(a)]))
    relabel = Permutation(draw(st.permutations(range(n))))
    return PermGroup(n, [g.conjugate(relabel) for g in gens])


def sandwich_by_search(group: PermGroup, block, x: Permutation):
    """The sandwich on a block holding supp(x), by the route that builds
    and searches every group (oracle for ``grouptables._sandwich`` and the
    classifier's condition (C)): x closed in the block stabilizer G_B on
    all n points and restricted to the block, X and Y each recognised,
    and condition (C) decided by a permutation-isomorphism search between
    X and the pointwise stabilizer of the block's complement, restricted
    to the block.  Returns (X, Y, X's family, Y's family, (C))."""
    g_block = group.block_stabilizer(block)
    x_grp = g_block.normal_closure(x).restriction(block)
    y_grp = g_block.restriction(block)
    outside = [v for v in range(group.degree) if v not in block]
    fix = group.pointwise_stabilizer(outside).restriction(block)
    return (x_grp, y_grp, grouptables.recognize_family(x_grp),
            grouptables.recognize_family(y_grp),
            permutation_isomorphic(fix, x_grp) is not None)


def match_table1_row(p, m, x_fam, y_fam, x_grp):
    """The Table 1 row of the p-cycle classifier's sandwich, by the rules
    it kept outside the table (oracle for ``grouptables._match_row``)."""
    if p == 2 and x_fam and y_fam and x_fam.family == "Sym" \
            and y_fam.family == "Sym":
        return TABLE1[0]
    if p >= 3 and x_fam and y_fam and x_fam.family == "Alt" \
            and y_fam.family in ("Alt", "Sym"):
        return TABLE1[1]
    if p >= 5 and m == p and x_grp is not None and x_grp.order() == p:
        return TABLE1[2]
    if m == 7 and x_fam and x_fam.family == "PGL3_2":
        return TABLE1[3]
    if x_fam and x_fam.family == "AGLd2" and p == m - 1:
        return TABLE1[8]
    if m == p + 1 and x_fam and x_fam.family == "PSL2" \
            and y_fam and y_fam.family in ("PSL2", "PGL2"):
        return TABLE1[9]
    return None


def match_table2_row(x_fam, y_fam):
    """The Table 2 row of the 2^2 classifier's sandwich, by the rules it
    kept outside the table (oracle for ``grouptables._match_row``)."""
    if x_fam is None or y_fam is None:
        return None
    # the table's Y column is the largest admissible Y; the attained block
    # action may be any group between X and that bound
    rows = {("Alt", ("Alt", "Sym")): 0,
            ("Dihedral", ("Dihedral", "AGL1")): 1,
            ("PSL2", ("PSL2", "PGL2")): 2,
            ("PGL3_2", ("PGL3_2",)): 3,
            ("AGLd2", ("AGLd2",)): 4}
    for (xf, yfs), idx in rows.items():
        if x_fam.family == xf and y_fam.family in yfs:
            return TABLE2[idx]
    return None


def match_table4_row(y_name):
    """The Table 4 row of the reference Y matched, by the (reference, row)
    pairs the 2^2 classifier kept (oracle for ``grouptables._match_row``)."""
    refs = ((one_cross_sym, None), (tau_cross_sym, TABLE4[0]),
            (even_flips_rtimes_sym, None), (c2_wr_sym, TABLE4[1]))
    return next((table_row for make, table_row in refs
                 if make.__name__ == y_name), None)


def two_two_classes(y: PermGroup) -> list:
    """Conjugacy classes of order-2 support-4 elements of y, from a search
    of all of y (oracle for ``grouptables._two_two_classes``, which lists
    the least member of each class from a stabilizer)."""
    remaining = set(filter(is_two_two,
                           small_supports_by_collection(y.chain, 4, False)))
    maps = [lambda h, g=g: h.conjugate(g) for g in y.generators]
    classes = []
    while remaining:
        cls = sorted(orbit(min(remaining), maps))
        classes.append(cls)
        remaining.difference_update(cls)
    return classes


def two_two_witnesses_by_collection(group: PermGroup) -> tuple:
    """(x, small): the least 2^2-element and the least non-identity element
    moving at most 3 points, each None if there is none, as the minima of
    the whole ``_least_supports(4)`` list (oracle for the first hits of
    ``grouptables.classify_22_group``)."""
    at_most_four = list(group._least_supports(4))
    x = min(filter(is_two_two, at_most_four), default=None)
    small = min((g for g in at_most_four if len(g.support()) < 4),
                default=None)
    return x, small


def report_by_search(classify, group: PermGroup, *args):
    """``classify(group, *args)`` with every sandwich taken from
    ``sandwich_by_search``, and the list of the conditions (C) that the
    search decided, one per sandwich."""
    conditions = []

    def sandwich(grp, block, x):
        *found, cond_c = sandwich_by_search(grp, block, x)
        conditions.append(cond_c)
        return found

    fast, grouptables._sandwich = grouptables._sandwich, sandwich
    try:
        return classify(group, *args), conditions
    finally:
        grouptables._sandwich = fast


def pair_map(m: int, k: int, image) -> Permutation:
    """The permutation of m*k points sending the pair (delta, lam), the
    flat point lam*m + delta, to the pair image(delta, lam), with every
    pair and point range-checked (oracle for ``wreath``'s index)."""
    def flat(delta, lam):
        if not (0 <= delta < m and 0 <= lam < k):
            raise ValueError("pair out of range")
        return lam * m + delta

    return Permutation([flat(*image(v % m, v // m)) for v in range(m * k)])


def wreath_generators_by_pairs(inner: PermGroup, outer: PermGroup) -> list:
    """The generator list of ``wreath.wreath_product(inner, outer)``, by
    the pair map: each inner generator in each copy, then each outer
    generator moving the copies."""
    m, k = inner.degree, outer.degree
    gens = [pair_map(m, k, lambda delta, mu, g=g, lam=lam:
                     (g(delta) if mu == lam else delta, mu))
            for g in inner.generators for lam in range(k)]
    return gens + [pair_map(m, k, lambda delta, lam, h=h: (delta, h(lam)))
                   for h in outer.generators]


def pair_swap(m: int, i: int) -> Permutation:
    """The transposition of the pair {2i, 2i+1} on 2m points."""
    return Permutation.from_cycles(2 * m, [[2 * i, 2 * i + 1]])


def superflip(m: int) -> Permutation:
    """The product of the transpositions of all m pairs."""
    return Permutation.from_cycles(2 * m, [[2 * i, 2 * i + 1]
                                           for i in range(m)])


def diagonal_sym(m: int) -> list:
    """Sym(m)'s generators moving the pairs {2i, 2i+1} without flips, by
    v -> 2*g(v // 2) + v % 2."""
    return [Permutation([2 * g(v // 2) + v % 2 for v in range(2 * m)])
            for g in grouptables.sym_group(m).generators]


def pair_reference_generators(m: int) -> dict:
    """The generator lists of the five pair-table references, by name, from
    the pair formulas above (oracle for ``grouptables.pair_references``)."""
    flips = [pair_swap(m, 0) * pair_swap(m, i) for i in range(1, m)]
    return {"one_cross_sym": diagonal_sym(m),
            "tau_cross_sym": diagonal_sym(m) + [superflip(m)],
            "even_flips": flips,
            "even_flips_rtimes_sym": flips + diagonal_sym(m),
            "c2_wr_sym": [pair_swap(m, 0)] + diagonal_sym(m)}


def pair_projection(m: int, g: Permutation):
    """The permutation of the pairs {2i, 2i+1} that g induces, or None if
    g splits a pair (oracle for ``wreath.top_part(2, g)``)."""
    images = []
    for i in range(m):
        a, b = g(2 * i), g(2 * i + 1)
        if a // 2 != b // 2:
            return None
        images.append(a // 2)
    return Permutation(images)


def restricted_orbits(group: PermGroup, block) -> list[tuple[int, ...]]:
    """The orbits on the block of the pointwise stabilizer of its
    complement, sorted (oracle for ``classify._outside_classes``, which
    reads the paired fibres off the graph instead)."""
    blockset = frozenset(block)
    z = group.pointwise_stabilizer(set(range(group.degree)) - blockset)
    orbits = [o for o in z.orbits() if o & blockset]
    if not all(o <= blockset for o in orbits):
        raise RuntimeError(f"an orbit leaves the block {block}")
    return sorted(tuple(sorted(o)) for o in orbits)


def matching_graph(m: int) -> Graph:
    """m disjoint edges on 2m vertices (pairs {2i, 2i+1})."""
    return Graph(2 * m, [1 << (v ^ 1) for v in range(2 * m)])


# (lambda, kappa, the subgraph of a block of Inf with those bits), in the
# order the fibre searches try them
_INF_FORMS = ((1, 0, matching_graph),
              (1, 1, prism_graph),
              (0, 1, lambda m: matching_graph(m).complement()),
              (0, 0, lambda m: prism_graph(m).complement()))


def inf_form_by_search(graph, mu, bs, delta):
    """``classify._try_inf_form`` as it was before the bits were read off
    the fibres: lambda and kappa are the first of ``_INF_FORMS`` whose
    block subgraph is isomorphic to that on bs's first block, whose first
    path ``delta`` is.  Returns (report, candidate images) or None."""
    m = delta.graph.n // 2
    fibres: list[tuple[int, ...]] = []
    for block in bs.blocks:
        classes = _outside_classes(graph, block)
        if m < 2 or [len(c) for c in classes] != [m, m]:
            return None
        fibres.extend(classes)
    for lam, kap, build in _INF_FORMS:
        if are_isomorphic(delta.graph, build(m), delta) is not None:
            break
    else:
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


def inf_form_by_orbits(graph, bs, group, delta):
    """The motion-4 paired-fibre report over bs whose fibres are each
    block's two restricted orbits of size m, else None (oracle for
    ``classify._try_inf_form``)."""
    m = delta.n // 2
    forms = [(lam, kap) for lam, kap, build in _INF_FORMS
             if m >= 2 and are_isomorphic(delta, build(m)) is not None]
    if not forms:
        return None
    fibres = [restricted_orbits(group, block) for block in bs.blocks]
    if any([len(o) for o in orbits] != [m, m] for orbits in fibres):
        return None
    (lam, kap), sigma = forms[0], quotient_graph(graph, sum(fibres, []))
    pairs = alternate_matching(sigma.n)
    reconstruction = inf_graph(InfParams(lam, kap, m), sigma, pairs)
    if are_isomorphic(reconstruction, graph) is None:
        return None
    return ClassificationReport(
        motion=4, form="inf", m=m, sigma=sigma, pairs=pairs, lam=lam,
        kap=kap, reconstruction=reconstruction, verified=True)


def decompose_motion4_all_systems(graph):
    """The motion-4 decomposition over every block system of Aut plus the
    whole vertex set: the lex forms on each system in turn, then the
    paired-fibre form on each, its fibres found by the group.  The first
    report that fits, else None."""
    group = automorphism_group(graph).group
    candidates = block_systems_all_beta(group) + [
        BlockSystem.from_blocks(graph.n, [range(graph.n)])]
    deltas = [graph.induced_subgraph(bs.blocks[0])[0] for bs in candidates]
    for bs, delta in zip(candidates, deltas):
        found = _try_lex_form(graph, 4, bs, _SourcePath(delta, [0] * delta.n),
                              group)
        report = found and found[0]
        if report is not None and are_isomorphic(
                report.reconstruction, graph) is not None:
            report.verified = True
            return report
    for bs, delta in zip(candidates, deltas):
        report = inf_form_by_orbits(graph, bs, group, delta)
        if report is not None:
            return report
    return None


def decompose_by_trying(graph, witness=None, aut=None):
    """``classify.decompose`` as it was before the witness block's outside
    classes picked the form: over the witness block's system the lex forms
    are tried first, and a paired-fibre graph reaches the paired-fibre
    form once the lex reconstruction fails its round trip."""
    if aut is None:
        aut = transitivity_aut(graph)
    if aut is None:
        raise NotVertexTransitiveError("input graph is not vertex-transitive")
    if witness is None:
        witness = motion_witness(graph, aut=aut)
    mu, x = witness
    if mu not in (2, 4):
        raise ValueError(f"no decomposition for motion {mu}")
    group = aut.group
    block = group._block_closure(x.support())
    bs = group.block_system_from(block)
    sub, _ = graph.induced_subgraph(bs.blocks[0])
    delta = _SourcePath(sub, [0] * sub.n)
    for attempt in (functools.partial(_try_lex_form, group=group),
                    inf_form_by_search):
        found = attempt(graph, mu, bs, delta)
        report = found and found[0]
        if report is not None and are_isomorphic(
                graph, report.reconstruction) is not None:
            report.verified = True
            return report
    return ClassificationReport(
        motion=mu, form="unclassified", verified=False,
        diagnostics={
            "graph6": to_graph6(graph),
            "aut_order": group.order(),
            "aut_generators": [str(g) for g in group.generators],
            "witness": format_cycles(x),
            "block": sorted(block),
        })


def decompose_by_search(graph, witness=None, aut=None):
    """``classify.decompose`` as it was before the candidate isomorphism:
    the witness block's system is the orbit of the block, and the one form
    tried counts once a search on the graph's first path finds its
    reconstruction isomorphic to the graph."""
    if aut is None:
        aut = transitivity_aut(graph)
    if aut is None:
        raise NotVertexTransitiveError("input graph is not vertex-transitive")
    if witness is None:
        witness = motion_witness(graph, aut=aut)
    mu, x = witness
    if mu not in (2, 4):
        raise ValueError(f"no decomposition for motion {mu}")
    group = aut.group
    block = group._block_closure(x.support())
    bs = block_system_by_orbit(group, block)
    sub, _ = graph.induced_subgraph(bs.blocks[0])
    delta = _SourcePath(sub, [0] * sub.n)
    found = (_try_lex_form(graph, mu, bs, delta, group)
             if len(_outside_classes(graph, block)) == 1
             else inf_form_by_search(graph, mu, bs, delta))
    report = found and found[0]
    if report is not None and are_isomorphic(
            graph, report.reconstruction) is not None:
        report.verified = True
        return report
    return ClassificationReport(
        motion=mu, form="unclassified", verified=False,
        diagnostics={
            "graph6": to_graph6(graph),
            "aut_order": group.order(),
            "aut_generators": [str(g) for g in group.generators],
            "witness": format_cycles(x),
            "block": sorted(block),
        })


def lex_product_by_edges(delta: Graph, theta: Graph) -> Graph:
    """``graphcore.lex_product`` from edge lists (its oracle)."""
    nd = delta.n
    edges = [(g * nd + d1, g * nd + d2) for g in range(theta.n)
             for d1, d2 in delta.edges()]
    edges += [(g1 * nd + d1, g2 * nd + d2) for g1, g2 in theta.edges()
              for d1, d2 in itertools.product(range(nd), repeat=2)]
    return Graph.from_edges(nd * theta.n, edges)


def inf_graph_by_edges(params: InfParams, sigma: Graph,
                       pairs: BlockSystem) -> Graph:
    """``graphcore.inf_graph`` from edge lists (its oracle)."""
    if pairs.degree != sigma.n or len(pairs.blocks[0]) != 2:
        raise ValueError("pairs must partition the sigma vertex set")
    m = params.m
    edges = [(alpha * m + i, alpha * m + j) for alpha in range(sigma.n)
             if params.kap == 1
             for i, j in itertools.combinations(range(m), 2)]
    for alpha, beta in itertools.combinations(range(sigma.n), 2):
        paired = pairs.block_of[alpha] == pairs.block_of[beta]
        if paired or has_edge(sigma, alpha, beta):
            edges += [(alpha * m + i, beta * m + j)
                      for i, j in itertools.product(range(m), repeat=2)
                      if not paired or (i == j) == (params.lam == 1)]
    return Graph.from_edges(sigma.n * m, edges)


def to_graph6_by_columns(graph: Graph) -> str:
    """graph6 one 6-bit group at a time (oracle for the table-driven
    ``graphcore.to_graph6``)."""
    n = graph.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:
        header = chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")
    # column j holds the edges (i, j), least i first
    bits = "".join(format(graph.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return header + "".join(chr(int(bits[k:k + 6], 2) + 63)
                            for k in range(0, len(bits), 6))


def from_graph6_by_columns(text: str) -> Graph:
    """graph6 decoded one character and one set bit at a time, into the
    checking ``Graph(n, adj)`` (oracle for ``graphcore.from_graph6``)."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError("graph6 body length mismatch")
    bits = "".join(format(d, "06b") for d in body)
    adj = [0] * n
    for j in range(1, n):    # column j holds the edges (i, j), least i first
        start = j * (j - 1) // 2
        adj[j] = column = int(bits[start:start + j][::-1], 2)
        for i in _bits(column):
            adj[i] |= 1 << j
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# graphs the tests name, and the motion alone

def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def px_graph(r: int) -> Graph:
    """lex(2K_1, C_r): the doubled r-cycle."""
    return lex_product(empty_graph(2), cycle_graph(r))


def spx_graph(r: int) -> Graph:
    """Inf(1, 0, C_2r, every-second-edge matching, 2)."""
    return inf_graph(InfParams(1, 0, 2), cycle_graph(2 * r),
                     alternate_matching(2 * r))


def motion(graph: Graph) -> int:
    """The motion alone: ``autengine.motion_witness``'s first entry."""
    return motion_witness(graph)[0]


# ---------------------------------------------------------------------------
# the paired-fibre dichotomy (oracle of acceptance criterion 8): the
# paper's vertex-transitivity and motion-2 criteria, checked against the
# computed answers of the library

def aut_preserving_partition(sigma: Graph, pairs: BlockSystem) -> PermGroup:
    """The automorphisms of sigma that map pairs to pairs: Aut of sigma
    plus one vertex per pair, joined to both ends of its pair and coloured
    apart, restricted to sigma's vertices; each generator is re-checked."""
    n, k = sigma.n, len(pairs)
    if pairs.degree != n:
        raise ValueError(f"pairs on {pairs.degree} points for a graph of "
                         f"order {n}")
    marked = Graph.from_edges(n + k, sigma.edges() + [
        (v, n + i) for i, pair in enumerate(pairs.blocks) for v in pair])
    aut = automorphism_group(marked, [0] * n + [1] * k)
    group = aut.group.restriction(range(n))
    if not (all(is_automorphism(sigma, g) for g in group.generators)
            and is_invariant_partition(group, pairs)):
        raise RuntimeError("a generator is not a pair-preserving automorphism")
    return group


def pair_transposition_in_aut(sigma: Graph, pairs: BlockSystem) -> bool:
    """Is some transposition of a pair an automorphism of sigma, that is,
    are the two vertices of some pair twins?  It fixes every other vertex,
    so it preserves the pair partition too."""
    return not set(pairs.blocks).isdisjoint(twin_pairs(sigma))


def inf_motion2_predicted(params: InfParams, sigma: Graph,
                          pairs: BlockSystem, reading: str) -> bool:
    """Predict motion 2 for a vertex-transitive paired-fibre graph.

    Two readings exist for the dichotomy: "equal" predicts motion below 4
    when the two parameter bits agree and a pair transposition fixes
    sigma; "unequal" predicts motion 2 when the bits differ and such a
    transposition exists.  Which one matches computed motions is settled
    by the tests, not here.
    """
    has_t = pair_transposition_in_aut(sigma, pairs)
    if reading == "equal":
        return params.kap == params.lam and has_t
    if reading == "unequal":
        return params.kap != params.lam and has_t
    raise ValueError(f"unknown reading {reading!r}")


def inf_is_vertex_transitive_predicted(sigma: Graph,
                                       pairs: BlockSystem) -> bool:
    """The fibre graph is vertex-transitive iff the pair-preserving
    automorphisms of sigma act transitively on its vertices."""
    return aut_preserving_partition(sigma, pairs).is_transitive()


# Tables 3 and 4 share row 1 and differ in the X entry of row 2.
TABLE3 = (
    grouptables.TableRow(3, 1, "-", "m", "{1} x Sym(m)", "<tau> x Sym(m)",
                         "not_applicable"),
    grouptables.TableRow(3, 2, "-", "m", "(Sym(2))^+ x {1}",
                         "Sym(2) wr Sym(m)", "not_applicable"),
)


# ---------------------------------------------------------------------------
# the embedding of an imprimitive group into Y wr G^Sigma (oracle of
# acceptance criterion 9)

@dataclass
class Embedding:
    """A permutation embedding into a wreath product.

    ``f`` is the point bijection onto the wreath index and ``phi`` maps
    each generator g to f^-1 g f, so f(w^g) = f(w)^phi(g) holds for any
    bijection.  ``verified`` is the check that can fail: every phi(g) lies
    in ``target`` = ``inner`` wr ``outer``, built independently from the
    block stabilizer's action on block 0 and the action on the blocks.
    """

    f: Permutation
    phi: dict
    target: PermGroup
    inner: PermGroup
    outer: PermGroup
    verified: bool


def _block_transversal(group: PermGroup, bs: BlockSystem) -> list[Permutation]:
    """For each block, an element mapping it onto block 0: with
    a = min(block 0), the stored inverse of the level-0 transversal entry,
    at the block's least point in a's orbit, of the chain
    ``group.chain_with_base([a])`` that ``block_stabilizer`` reads too."""
    chain = group.chain_with_base([min(bs.blocks[0])])
    inverses = chain._composed(0)[1]
    points = [next((x for x in blk if x in inverses), None) for blk in bs.blocks]
    if None in points:
        raise ValueError("group is not transitive on the blocks")
    return [Permutation(inverses[x]) for x in points]


def embed_imprimitive(group: PermGroup, bs: BlockSystem) -> Embedding:
    """Embed a transitive imprimitive group into (block action on one
    block) wr (action on blocks), checking that every generator's image
    lies in that wreath product (``action_on_blocks`` checks invariance).
    f sends the point omega of block j to j*m + delta, with delta the
    position in block 0 of omega's image under block j's mover."""
    outer = action_on_blocks(group, bs)
    if not group.is_transitive():
        raise ValueError("group must be transitive")
    block0 = bs.blocks[0]
    inner = group.block_stabilizer(block0).restriction(block0)
    m = len(block0)
    inverses = _block_transversal(group, bs)
    pos = {v: i for i, v in enumerate(block0)}

    def f_point(omega: int) -> int:
        j = bs.block_of[omega]
        return j * m + pos[inverses[j](omega)]

    f = Permutation(map(f_point, range(group.degree)))
    f_inv = f.inverse()
    phi = {g: f_inv * g * f for g in group.generators}
    target = wreath_product(inner, outer)
    verified = all(image in target for image in phi.values())
    return Embedding(f=f, phi=phi, target=target, inner=inner, outer=outer,
                     verified=verified)
