"""Permutation and group machinery, checked against exhaustive oracles."""

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (block_system_by_orbit, block_systems_all_beta, closure,
                     count_base_changes, elements,
                     imprimitive_groups, is_2_transitive,
                     is_invariant_partition, least_witnesses_by_scan,
                     minimal_degree_full_scan,
                     permutation_isomorphic_backtrack, power,
                     random_element, reduce_generators, relabel,
                     small_supports_by_collection, transversal_by_bfs,
                     witnesses_by_collection)
from smallmotion import permcore
from smallmotion.autengine import automorphism_group, motion_witness
from smallmotion.classify import CorpusSpec, corpus_generators, named_graph
from smallmotion.graphcore import Graph
from smallmotion.grouptables import (_find_p_cycle, _two_two_classes, agl1,
                                     agl_d2, alt_group,
                                     classify_22_group, cyclic_group,
                                     dihedral_group, pgl2, pgl3_2, psl2,
                                     sym_group)
from smallmotion.permcore import (BlockSystem, CapExceededError, PermGroup,
                                  Permutation, StabilizerChain, _is_prime,
                                  format_cycles, is_two_two,
                                  permutation_isomorphic)
from smallmotion.wreath import wreath_product


def random_perm(rng, n):
    return Permutation(rng.sample(range(n), n))


def random_group(rng, n, ngens=2):
    return PermGroup(n, [random_perm(rng, n) for _ in range(ngens)])


perms = st.integers(3, 8).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))


@st.composite
def small_groups(draw):
    """A degree-<=8 group from 1-3 random generators, and a few elements."""
    n = draw(st.integers(1, 8))
    perm = st.permutations(range(n)).map(Permutation)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    extra = draw(st.lists(perm, max_size=5))
    return PermGroup(n, gens), extra


def reference_elements(chain):
    """Element order of the level-by-level product loop."""
    levels = [[Permutation(trans[x]) for x in sorted(trans)]
              for trans, _ in map(chain._composed, range(len(chain.base)))]
    ident = Permutation.identity(chain.degree)
    for combo in itertools.product(*reversed(levels)):
        g = ident
        for t in combo:
            g = g * t
        yield g


def reference_reduce_generators(degree, elements):
    """Greedy generator choice with a chain rebuilt for every generator."""
    gens = []
    for e in sorted(set(elements)):
        if e.is_identity() or StabilizerChain(degree, gens).contains(e):
            continue
        gens.append(e)
    return gens


def reference_normal_closure(grp, x):
    """Normal-closure generators with a chain rebuilt for every generator."""
    gens = []
    queue = [x]
    while queue:
        h = queue.pop(0)
        if StabilizerChain(grp.degree, gens).contains(h):
            continue
        gens.append(h)
        queue.extend(h.conjugate(g) for g in grp.generators)
    return gens


def is_block(grp, points):
    """Oracle: the images of the set under the group are equal or disjoint."""
    start = frozenset(points)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for blk in frontier:
            for g in grp.generators:
                img = frozenset(g(v) for v in blk)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return all(a == b or not a & b for a in seen for b in seen)


def reference_setwise_stabilizer(elements, points):
    """Oracle: the elements, in order, that map the set onto itself."""
    pts = set(points)
    return sorted(e for e in elements if {e(p) for p in pts} == pts)


def block_stabilizers(grp):
    """block_stabilizer of the block closure of {0, v}, for every point v,
    and of the last point alone; each kept chain's base starts with the
    block's least point."""
    n = grp.degree
    blocks = {grp._block_closure({0, v}) for v in range(n)}
    stabs = []
    for blk in sorted(blocks | {frozenset([n - 1])}, key=sorted):
        stab = grp.block_stabilizer(blk)
        assert stab._chain is not None and stab._chain.base[0] == min(blk)
        stabs.append(stab)
    return stabs


@st.composite
def small_graphs(draw):
    """A random graph on at most 8 vertices."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(3, 8))
    p = Permutation(draw(st.permutations(range(n))))
    q = Permutation(draw(st.permutations(range(n))))
    return p, q


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert all(e(i) == i for i in range(4))
        assert e.is_identity()

    def test_composition_is_left_to_right(self):
        p = Permutation.from_cycles(3, [[0, 1]])
        q = Permutation.from_cycles(3, [[1, 2]])
        assert (p * q)(0) == q(p(0)) == 2

    @given(perm_pairs())
    def test_inverse_of_product(self, pq):
        p, q = pq
        assert (p * q).inverse() == q.inverse() * p.inverse()

    @given(perms)
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()

    @given(perm_pairs())
    def test_conjugation_maps_support(self, pq):
        p, g = pq
        assert p.conjugate(g).support() == frozenset(g(v) for v in p.support())

    @given(perms)
    def test_order_annihilates(self, p):
        assert power(p, p.order()).is_identity()
        assert p.order() >= 1

    @given(perms)
    def test_cycle_notation_roundtrip(self, p):
        """format_cycles writes p.cycles(), shifted to 1-indexed points."""
        assert format_cycles(p) == ("".join(
            "(" + ",".join(str(v + 1) for v in c) + ")" for c in p.cycles())
            or "()")

    def test_degree_zero_and_one(self):
        for n in (0, 1):
            e = Permutation(range(n))
            for p in (e * e, e.inverse(), power(e, 5), power(e, -3),
                      Permutation.identity(n), e.conjugate(e)):
                assert p == e and type(p.images) is tuple
            grp = PermGroup(n, [e])
            assert grp.order() == 1
            assert list(elements(grp)) == [e]
            assert e in grp
        assert list(elements(PermGroup(1, []).chain_with_base([0]))) == \
            [Permutation([0])]

    def test_outside_input_is_validated(self):
        for bad in ([0, 0, 1], [1, 2, 3], [-1, 0]):
            with pytest.raises(ValueError):
                Permutation(bad)
        with pytest.raises(ValueError):
            Permutation([0, 1]) * Permutation([0, 1, 2])

    @given(perm_pairs())
    def test_products_are_bijections(self, pq):
        p, q = pq
        for r in (p * q, p.inverse(), power(p, 3), power(p, -2),
                  p.conjugate(q)):
            assert type(r.images) is tuple
            assert Permutation(r.images) == r
        assert (p * q).images == tuple(q(p(i)) for i in range(p.degree))

    def test_cycle_type(self):
        p = Permutation.from_cycles(7, [[0, 1, 2], [3, 4]])
        assert p.cycle_type() == (3, 2)
        assert p.order() == 6
        assert not is_two_two(p)
        assert is_two_two(Permutation.from_cycles(8, [[0, 1], [2, 3]]))


class TestStabilizerChain:
    def test_symmetric_group_order(self):
        for n in range(2, 7):
            gens = [Permutation.from_cycles(n, [[0, 1]]),
                    Permutation.from_cycles(n, [list(range(n))])]
            assert PermGroup(n, gens).order() == \
                   list(itertools.accumulate(range(1, n + 1),
                                             lambda a, b: a * b))[-1]

    def test_order_matches_exhaustive_closure(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 7)
            grp = random_group(rng, n)
            assert grp.order() == len(closure(n, grp.generators))

    def test_membership_matches_closure(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(3, 6)
            grp = random_group(rng, n)
            elems = closure(n, grp.generators)
            for images in itertools.permutations(range(n)):
                p = Permutation(images)
                assert (p in grp) == (p in elems)

    def test_closure_cap_is_the_group_order(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 6)
            grp = random_group(rng, n)
            order = grp.order()
            assert len(closure(n, grp.generators, cap=order)) == order
            with pytest.raises(CapExceededError):
                closure(n, grp.generators, cap=order - 1)

    def test_elements_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(3, 6)
            grp = random_group(rng, n)
            assert set(elements(grp)) == closure(n, grp.generators)

    @pytest.mark.parametrize("grp", [
        sym_group(5),
        wreath_product(sym_group(3), sym_group(2)),
        agl1(7),
    ], ids=["S5", "S3wrS2", "AGL1(7)"])
    def test_elements_order_matches_product_loop(self, grp):
        want = list(reference_elements(grp.chain))
        assert list(elements(grp)) == want
        assert len(want) == grp.order()
        chain = grp.chain_with_base([2])
        assert chain.base[0] == 2
        assert list(elements(chain)) == list(reference_elements(chain))

    @settings(max_examples=60, deadline=None)
    @given(small_groups())
    def test_incremental_chain_matches_rebuilt_chains(self, sample):
        grp, extra = sample
        n = grp.degree
        elems = list(grp.generators) + extra
        assert list(reduce_generators(n, elems).generators) == \
            reference_reduce_generators(n, elems)
        for x in extra[:2] + list(grp.generators[:1]):
            assert list(grp.normal_closure(x).generators) == \
                reference_normal_closure(grp, x)
        chain = StabilizerChain(n, [])
        grown = [chain.extend(g) for g in grp.generators]
        assert chain.order() == len(closure(n, grp.generators))
        assert not grown or grown[0]
        for g in grp.generators:
            assert not chain.extend(g)
        assert chain.order() == grp.order()

    def test_elements_cap(self, monkeypatch):
        grp = PermGroup(7, [Permutation.from_cycles(7, [[0, 1]]),
                            Permutation.from_cycles(7, [list(range(7))])])
        monkeypatch.setenv("SMALLMOTION_CAP", "100")
        with pytest.raises(CapExceededError):
            list(elements(grp))


class TestOrbitsAndBlocks:
    @settings(max_examples=80, deadline=None)
    @given(small_groups(), st.data())
    def test_orbits_are_the_point_orbits_by_least_member(self, sample, data):
        """``permcore.orbits`` lists the distinct ``permcore.orbit``s,
        each sorted, by least member, from all points or from any set of
        points holding each orbit's least member."""
        grp, _ = sample
        want = [list(o) for o in sorted(
            {tuple(sorted(permcore.orbit(v, grp.generators)))
             for v in range(grp.degree)})]
        assert permcore.orbits(range(grp.degree), grp.generators) == want
        assert grp.orbits() == list(map(frozenset, want))
        items = [o[0] for o in want] + data.draw(
            st.lists(st.integers(0, grp.degree - 1)))
        assert permcore.orbits(items, grp.generators) == want

    @settings(max_examples=60, deadline=None)
    @given(small_groups(), small_graphs())
    def test_is_transitive_is_the_orbit_of_zero(self, sample, graph):
        """``is_transitive``, read off the chain's level-0 orbit, says
        whether the breadth-first orbit of 0 is every point: for random
        groups, the trivial groups of degree 1 and 2, and groups whose
        chain was set from outside (an Aut group, normal closures and,
        for a transitive group, block stabilizers)."""
        grp, extra = sample
        groups = [grp, PermGroup(1, []), PermGroup(2, []),
                  automorphism_group(graph).group]
        groups += [grp.normal_closure(x) for x in extra]
        if len(list(permcore.orbit(0, grp.generators))) == grp.degree:
            groups += block_stabilizers(grp)
        for g in groups:
            reached = len(list(permcore.orbit(0, g.generators)))
            assert g.is_transitive() == (reached == g.degree), g.generators

    def test_orbit_of_cycle(self):
        grp = PermGroup(6, [Permutation.from_cycles(6, [[0, 1, 2]])])
        assert set(permcore.orbit(0, grp.generators)) == {0, 1, 2}
        assert set(permcore.orbit(5, grp.generators)) == {5}
        assert not grp.is_transitive()

    def test_transporter(self):
        """The level-0 transversal of a chain based at a holds a member
        mapping a to each point of its orbit, and its stored inverse."""
        rng = random.Random(10)
        grp = random_group(rng, 6)
        for a in range(6):
            chain = grp.chain_with_base([a])
            trans, inverses = chain._composed(0)
            assert set(trans) == set(permcore.orbit(a, grp.generators))
            for b, images in trans.items():
                t = Permutation(images)
                assert t(a) == b and t in grp
                assert Permutation(inverses[b]) == t.inverse()

    @settings(max_examples=60, deadline=None)
    @given(small_groups(), small_graphs(), st.data())
    def test_mover_takes_a_to_b(self, sample, graph, data):
        """``mover(a, b)`` is a member taking a to b, for any two points of
        the chain's level-0 orbit: on random groups and on Aut groups,
        whose chain was set from outside."""
        for grp in (sample[0], automorphism_group(graph).group):
            assume(grp.chain.base)
            orbit0 = sorted(permcore.orbit(grp.chain.base[0], grp.generators))
            a, b = (data.draw(st.sampled_from(orbit0)) for _ in range(2))
            u = grp.mover(a, b)
            assert u(a) == b and u in grp

    @settings(max_examples=100, deadline=None)
    @given(imprimitive_groups(), st.data())
    def test_block_system_from_is_the_orbit_of_the_closure(self, grp, data):
        """On a transitive group the closure's classes are the orbit of the
        smallest block holding the seeds, that block first and the rest by
        least point, so ``block_system_from`` equals the orbit oracle."""
        assume(grp.is_transitive())
        seeds = data.draw(st.sets(st.integers(0, grp.degree - 1),
                                  min_size=2, max_size=4))
        classes = grp._closure_classes(seeds)
        block = grp._block_closure(seeds)
        assert set(classes[0]) == block >= seeds
        assert classes[1:] == sorted(classes[1:])
        assert all(list(c) == sorted(c) for c in classes)
        assert grp.block_system_from(seeds) == \
            block_system_by_orbit(grp, block)

    def test_minimal_block_scan_order(self):
        c6 = PermGroup(6, [Permutation.from_cycles(6, [list(range(6))])])
        bs = c6.minimal_block_system()
        assert bs.blocks == ((0, 2, 4), (1, 3, 5))

    def test_block_systems_against_brute_force(self):
        rng = random.Random(11)
        tested = 0
        while tested < 10:
            n = rng.randint(4, 8)
            grp = random_group(rng, n)
            if not grp.is_transitive():
                continue
            tested += 1
            elems = list(elements(grp))
            want = set()
            for size in range(2, n):
                if n % size:
                    continue
                for rest in itertools.combinations(range(1, n), size - 1):
                    cand = frozenset((0,) + rest)
                    if all((frozenset(g(v) for v in cand) in (cand,)
                            or not frozenset(g(v) for v in cand) & cand)
                           for g in elems):
                        want.add(grp.block_system_from(cand).blocks)
            got = {s.blocks for s in block_systems_all_beta(grp)}
            assert want == got

    def test_block_closure_matches_superset_scan(self):
        """_block_closure against the smallest superset of the seeds that is
        a block, over random transitive groups of degree <= 8 (random
        elements of Sym(a) wr Sym(b), relabelled) and seeds of 2-4 points,
        the sizes the block-system oracle joins and block_stabilizer
        checks.  The seeds come from the first k wreath blocks, so that
        most of them close to a proper block."""
        rng = random.Random(13)
        tested = 0
        while tested < 150:
            a, b = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (1, 8)])
            n = a * b
            relabel = random_perm(rng, n)
            gens = []
            for _ in range(rng.randint(2, 3)):
                top = rng.sample(range(b), b)
                inner = [rng.sample(range(a), a) for _ in range(b)]
                gens.append(Permutation([top[j] * a + inner[j][i] for j in
                                         range(b) for i in range(a)]))
            grp = PermGroup(n, [g.conjugate(relabel) for g in gens])
            if not grp.is_transitive():
                continue
            tested += 1
            pool = [relabel(v) for v in range(max(rng.randint(1, b) * a, 2))]
            seeds = set(rng.sample(pool, rng.randint(2, min(4, len(pool)))))
            rest = sorted(set(range(n)) - seeds)
            want = next(seeds.union(extra)
                        for size in range(len(rest) + 1)
                        for extra in itertools.combinations(rest, size)
                        if is_block(grp, seeds.union(extra)))
            assert grp._block_closure(seeds) == want, (grp.generators, seeds)

    def test_primitive_iff_no_blocks(self):
        sym5 = PermGroup(5, [Permutation.from_cycles(5, [[0, 1]]),
                             Permutation.from_cycles(5, [list(range(5))])])
        assert sym5.is_primitive()
        c6 = PermGroup(6, [Permutation.from_cycles(6, [list(range(6))])])
        assert not c6.is_primitive()

    def test_minimal_block_system_is_minimal(self):
        # {0, 1} closes to the block {0, 1, 6, 7}, which contains {0, 7}
        grp = PermGroup(8, [Permutation((0, 6, 3, 4, 5, 2, 1, 7)),
                            Permutation((3, 4, 1, 7, 6, 0, 2, 5))])
        assert grp.minimal_block_system().blocks == \
            ((0, 7), (1, 6), (2, 4), (3, 5))

    def test_minimal_blocks_of_random_imprimitive_groups(self):
        rng = random.Random(90)
        tested = 0
        while tested < 200:
            n = rng.choice([4, 6, 8, 9, 10])
            grp = PermGroup(n, [random_perm(rng, n) for _ in range(2)])
            if not grp.is_transitive():
                continue
            bs = grp.minimal_block_system()
            if bs is None:
                continue
            tested += 1
            block = bs.blocks[bs.block_of[0]]
            assert is_block(grp, block)
            rest = [v for v in block if v != 0]
            for size in range(1, len(rest)):
                for sub in itertools.combinations(rest, size):
                    assert not is_block(grp, (0,) + sub)

    def test_one_transitivity_check_per_block_question(self, monkeypatch):
        grp = wreath_product(wreath_product(sym_group(2), sym_group(3)),
                             sym_group(2))
        calls = []
        original = PermGroup.is_transitive

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PermGroup, "is_transitive", counting)
        bs = grp.minimal_block_system()
        assert len(calls) == 1
        assert bs is not None and is_invariant_partition(grp, bs)

    def test_block_system_validation(self):
        with pytest.raises(ValueError):
            BlockSystem.from_blocks(6, [(0, 1), (2, 3)])        # not covering
        with pytest.raises(ValueError):
            BlockSystem.from_blocks(6, [(0, 1, 2), (3, 4), (5,)])  # nonuniform


class TestStabilizers:
    def test_point_stabilizer_oracle(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(3, 7)
            grp = random_group(rng, n)
            elems = closure(n, grp.generators)
            pt = rng.randrange(n)
            want = sorted(e for e in elems if e(pt) == pt)
            assert sorted(elements(grp.pointwise_stabilizer([pt]))) == want

    def test_pointwise_stabilizer_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(4, 7)
            # the generators move only the first `moved` points
            moved = rng.randint(3, n)
            gens = [Permutation(rng.sample(range(moved), moved)
                                + list(range(moved, n))) for _ in range(2)]
            grp = PermGroup(n, gens)
            elems = closure(n, grp.generators)
            point_sets = [[rng.randrange(n)], [rng.randrange(moved)],
                          rng.sample(range(n), rng.randint(2, 3)),
                          rng.sample(range(n), n - 1),
                          list(range(moved, n))]
            for pts in point_sets:
                want = sorted(e for e in elems
                              if all(e(p) == p for p in pts))
                stab = grp.pointwise_stabilizer(pts)
                assert sorted(elements(stab)) == want
                if all(g(p) == p for g in grp.generators for p in pts):
                    assert stab is grp

    def test_one_chain_per_pointwise_stabilizer(self, monkeypatch):
        grp = sym_group(8)
        built = []
        original = StabilizerChain.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", counting)
        stab = grp.pointwise_stabilizer([6, 0, 3, 5, 1])
        assert len(built) <= 2
        assert stab.order() == 6
        assert all(g(p) == p for g in stab.generators for p in (0, 1, 3, 5, 6))

    def test_chain_pins_the_prefix(self):
        grp = PermGroup(6, [Permutation.from_cycles(6, [[0, 1, 2]])])
        chain = grp.chain_with_base([4, 3])
        assert chain.base == [4, 3, 0]
        assert chain.order() == 3

    def test_chain_with_base_reuses_a_chain_on_that_base(self):
        grp = sym_group(5)
        chain = grp.chain
        assert grp.chain_with_base([]) is chain
        assert grp.chain_with_base(chain.base[:2]) is chain
        other = grp.chain_with_base([1])
        assert other is not chain and other.base[0] == 1
        assert grp.chain_with_base(chain.base[1:2]) is not chain

    def test_each_strong_generator_is_inverted_once(self, monkeypatch):
        """A chain inverts each strong generator once, when it files it,
        however often Schreier-Sims recomputes a level's transversal."""
        inverted = []
        original = Permutation.inverse

        def counting(self):
            inverted.append(self)
            return original(self)

        for grp in (sym_group(6), alt_group(5), agl1(7),
                    wreath_product(sym_group(3), sym_group(2))):
            grp.order()
            monkeypatch.setattr(Permutation, "inverse", counting)
            chain = grp.chain_with_base([3, 1])
            monkeypatch.undo()
            assert sorted(inverted) == sorted(chain._level_gens(0))
            inverted.clear()
            for level in range(len(chain.base)):
                trans, inverses = chain._composed(level)
                for x, images in trans.items():
                    assert Permutation(inverses[x]) == \
                        Permutation(images).inverse()

    @settings(max_examples=80, deadline=None)
    @given(small_groups(), st.randoms(use_true_random=False))
    def test_known_order_chain_matches_schreier_sims(self, sample, rng):
        """The known-order chain_with_base against a full Schreier-Sims
        chain with the same prefix: order, membership and the pinned
        prefix."""
        grp, extra = sample
        n = grp.degree
        prefix = rng.sample(range(n), rng.randint(0, n))
        known = grp.chain_with_base(prefix)
        full = StabilizerChain(n, grp.generators, prefix)
        assert known.base[:len(prefix)] == full.base[:len(prefix)] == prefix
        assert known.order() == full.order() == grp.order()
        members = [random_element(full, rng) for _ in range(10)]
        probes = members + extra + [random_perm(rng, n) for _ in range(10)]
        assert all(known.contains(g) for g in members)
        assert [known.contains(g) for g in probes] == \
            [full.contains(g) for g in probes]

    def test_wrong_claimed_order_raises(self, monkeypatch):
        grp = sym_group(4)
        # basic orbits of Sym(4) have at most 4 points, so no product is 5
        monkeypatch.setattr(PermGroup, "order", lambda self: 5)
        with pytest.raises(RuntimeError,
                           match="chain of order 24, claimed 5"):
            grp.chain_with_base([2])           # the product passes 5
        monkeypatch.setattr(PermGroup, "order", lambda self: 48)
        with pytest.raises(RuntimeError,
                           match="chain of order 24, claimed 48"):
            grp.chain_with_base([2])           # 24 is reached, 48 never is

    def test_extended_base_change_chain_closes_fully(self):
        """A chain_with_base chain, stopped at the known order, grows to
        the larger group when extended by a non-member."""
        rng = random.Random(25)
        for grp in (wreath_product(sym_group(2), sym_group(3)), agl1(7),
                    dihedral_group(7), alt_group(5)):
            n = grp.degree
            chain = grp.chain_with_base(rng.sample(range(n), 3))
            extra = next(g for g in (random_perm(rng, n) for _ in range(100))
                         if g not in grp)
            assert chain.extend(extra)
            bigger = PermGroup(n, list(grp.generators) + [extra])
            assert chain.order() == bigger.order() > grp.order()
            members = [random_element(bigger.chain, rng) for _ in range(10)]
            assert all(chain.contains(g) for g in members)

    @settings(max_examples=60, deadline=None)
    @given(imprimitive_groups(), st.randoms(use_true_random=False))
    def test_long_prefix_chains_match_schreier_sims(self, grp, rng):
        """chain_with_base on the points outside a block or a random
        point set leaving one to three points, as for the restricted
        orbits of a witness block, against a full Schreier-Sims chain."""
        n = grp.degree
        blocks = [sorted(grp._block_closure({0, v})) for v in range(1, n)]
        inside = [b for b in blocks if len(b) < n][:1] + \
            [rng.sample(range(n), rng.randint(1, min(3, n)))]
        for keep in inside:
            prefix = sorted(set(range(n)) - set(keep))
            chain = grp.chain_with_base(prefix)
            full = StabilizerChain(n, grp.generators, prefix)
            assert chain.base[:len(prefix)] == prefix
            assert chain.order() == full.order() == grp.order()
            members = [random_element(full, rng) for _ in range(10)]
            probes = members + [random_perm(rng, n) for _ in range(10)]
            assert [chain.contains(g) for g in probes] == \
                [full.contains(g) for g in probes]
            assert PermGroup(n, chain._level_gens(len(prefix))).orbits() == \
                PermGroup(n, full._level_gens(len(prefix))).orbits()

    @settings(max_examples=60, deadline=None)
    @given(imprimitive_groups())
    def test_setwise_stabilizer_oracle(self, grp):
        """block_stabilizer against the setwise-stabilizer scan, on every
        block of every block system, the singletons and the whole set."""
        n = grp.degree
        elems = closure(n, grp.generators)
        blocks = [(v,) for v in range(n)] + [tuple(range(n))]
        if grp.is_transitive():
            blocks += [b for bs in block_systems_all_beta(grp)
                       for b in bs.blocks]
        for blk in blocks:
            stab = grp.block_stabilizer(blk)
            assert stab.order() == len(reference_setwise_stabilizer(elems,
                                                                    blk))
            assert all(sorted(map(g, blk)) == sorted(blk)
                       for g in stab.generators)

    def test_wrong_block_stabilizer_order_raises(self, monkeypatch):
        grp = wreath_product(sym_group(2), sym_group(3))
        # G_B's chain is told 96 // 6 * 1 = 16 (above its true 8) or
        # 24 // 6 * 1 = 4 (which the strong generators' product of 8
        # passes at once); for the block {1} the base-change chain on 1 is
        # told the true order 48 first, the block {0} reads grp.chain
        for block, first in (([0], []), ([1], [48])):
            for told, claim in ((96, 16), (24, 4)):
                answers = iter(first + [told])
                monkeypatch.setattr(PermGroup, "order",
                                    lambda self: next(answers))
                with pytest.raises(RuntimeError, match=f"chain of order 8, "
                                   f"claimed {claim}$"):
                    grp.block_stabilizer(block)

    def test_block_stabilizer_chain_strips_no_schreier_generator(
            self, monkeypatch):
        """G_B's generators are strong for the base-change chain's base,
        so G_B's chain, told its order, sifts no Schreier generator below
        level 0."""
        stripped = []
        original = StabilizerChain._strip

        def counting(self, g, level):
            stripped.append(level)
            return original(self, g, level)

        for grp in (wreath_product(sym_group(3), sym_group(2)),
                    wreath_product(sym_group(2), sym_group(4)),
                    wreath_product(agl1(5), sym_group(2))):
            bs = grp.minimal_block_system()
            block = bs.blocks[-1]
            base_change = grp.chain_with_base([min(block)])
            monkeypatch.setattr(PermGroup, "chain_with_base",
                                lambda self, prefix: base_change)
            monkeypatch.setattr(StabilizerChain, "_strip", counting)
            stab = grp.block_stabilizer(block)
            assert stab.order() == grp.order() // len(bs)
            assert [level for level in stripped if level >= 1] == []
            monkeypatch.undo()

    def test_block_stabilizer_at_the_first_base_point_reuses_the_chain(
            self, monkeypatch):
        """block_stabilizer of a block whose least point is base[0] reads
        the group's own chain: chain_with_base builds no chain."""
        built = count_base_changes(monkeypatch)
        for grp in (wreath_product(sym_group(3), sym_group(2)),
                    wreath_product(sym_group(2), sym_group(4)),
                    wreath_product(agl1(5), sym_group(2)), pgl2(5)):
            blocks = [bs.blocks[0] for bs in block_systems_all_beta(grp)]
            for block in blocks + [(0,), tuple(range(grp.degree))]:
                assert min(block) == grp.chain.base[0]
                stab = grp.block_stabilizer(block)
                assert stab.order() == grp.order() * len(block) // grp.degree
        assert built == []
        wreath_product(sym_group(2), sym_group(3)).block_stabilizer([1, 0])
        assert built == []
        wreath_product(sym_group(2), sym_group(3)).block_stabilizer([3, 2])
        assert built == [(2,)]

    def test_non_blocks_are_rejected(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(3, 7)
            grp = random_group(rng, n, ngens=rng.randint(1, 2))
            elems = closure(n, grp.generators)
            pts = rng.sample(range(n), rng.randint(2, n - 1))
            if is_block(grp, pts):
                stab = grp.block_stabilizer(pts)
                assert sorted(elements(stab)) == \
                    reference_setwise_stabilizer(elems, pts)
            else:
                with pytest.raises(ValueError):
                    grp.block_stabilizer(pts)
        cyclic = PermGroup(4, [Permutation.from_cycles(4, [[0, 1, 2, 3]])])
        with pytest.raises(ValueError):
            cyclic.block_stabilizer([0, 1])


class TestNormalClosure:
    def test_against_oracle(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(3, 6)
            grp = random_group(rng, n)
            elems = sorted(closure(n, grp.generators))
            x = elems[rng.randrange(len(elems))]
            got = set(elements(grp.normal_closure(x)))
            # oracle: close {x} under conjugation by all elements, then group
            conj = {x.conjugate(g) for g in elems}
            want = closure(n, sorted(conj))
            assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_groups(),
                     imprimitive_groups().map(lambda grp: (grp, []))))
    def test_kept_chains_match_rebuilt_chains(self, sample):
        """The oracle reduce_generators, normal_closure and
        block_stabilizer keep the chains they grew; those answer order and
        membership like a chain built afresh, on random groups and on
        groups with blocks."""
        grp, extra = sample
        n = grp.degree
        kept = [reduce_generators(n, list(grp.generators) + extra)]
        kept += [grp.normal_closure(x) for x in extra[:2]]
        kept += block_stabilizers(grp)
        probes = extra + list(grp.generators) + \
            list(itertools.islice(elements(grp), 200))
        for sub in kept:
            assert sub._chain is not None
            rebuilt = PermGroup(n, sub.generators)
            assert sub.order() == rebuilt.order()
            assert [h in sub for h in probes] == [h in rebuilt for h in probes]

    def test_closure_is_normalized(self):
        rng = random.Random(16)
        for _ in range(10):
            n = rng.randint(4, 7)
            grp = random_group(rng, n)
            x = grp.generators[0]
            nc = grp.normal_closure(x)
            for g in grp.generators:
                for h in nc.generators:
                    assert h.conjugate(g) in nc


class TestMinimalDegree:
    def test_prime_scan_matches_full_scan(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 8)
            grp = random_group(rng, n)
            if grp.order() == 1:
                continue
            assert grp.minimal_degree() == minimal_degree_full_scan(grp)

    def test_known_values(self):
        sym4 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1]]),
                             Permutation.from_cycles(4, [list(range(4))])])
        assert sym4.minimal_degree() == 2
        alt5 = PermGroup(5, [Permutation.from_cycles(5, [[0, 1, 2]]),
                             Permutation.from_cycles(5, [list(range(5))])])
        assert alt5.minimal_degree() == 3
        c5 = PermGroup(5, [Permutation.from_cycles(5, [list(range(5))])])
        assert c5.minimal_degree() == 5


    @settings(max_examples=80, deadline=None)
    @given(small_groups(), st.integers(0, 8))
    def test_small_support_elements_match_filtered_elements(self, sample,
                                                            bound):
        grp, _ = sample
        want = sorted(g for g in elements(grp)
                      if 0 < len(g.support()) <= bound)
        assert small_supports_by_collection(grp.chain, bound, False) == want
        walked = [Permutation(h) for _, h in grp.chain._by_image([bound])]
        assert walked == want

    def test_search_tables_are_built_once_per_chain(self, monkeypatch):
        """_find_p_cycle(p=None) tries the primes 2, 3, 5, 7 on C7 with one
        build of the search tables (one union-find forest, whose roots are
        the orbit ids); a chain that grows drops them, and a level's table
        is built on first use, from the walk's descent root on."""
        c7 = PermGroup(7, [Permutation.from_cycles(7, [list(range(7))])])
        forests = []
        original = permcore._root

        def recording(parent, v):
            if not any(parent is f for f in forests):
                forests.append(parent)
            return original(parent, v)

        monkeypatch.setattr(permcore, "_root", recording)
        assert _find_p_cycle(c7, None).cycle_type() == (7,)
        assert len(forests) == len(c7.chain.base) == 1
        tables = c7.chain._tables
        assert list(c7._least_supports(2)) == []
        assert c7.chain._tables is tables and len(forests) == 1
        assert c7.chain.extend(Permutation.from_cycles(7, [[0, 1]]))
        assert c7.chain._tables is None
        assert len(list(c7.chain._by_image([2]))) == 21   # Sym(7)
        # the walk for bound 2 starts at the last level, whose orbit is
        # the first of at most 2 points, so only its table is built until
        # a walk from the root reads the others
        s5 = sym_group(5)
        assert s5.chain.base == [0, 1, 2, 3]
        assert s5.minimal_degree() == 2
        assert s5.chain._tables[:3] == [None] * 3
        assert s5.chain._tables[3] is not None
        assert len(list(s5.chain._by_image([2]))) == 10
        assert None not in s5.chain._tables

    @settings(max_examples=60, deadline=None)
    @given(small_groups(), imprimitive_groups(), small_graphs(), st.data())
    def test_orbit_ids_partition_as_level_orbits(self, sample, imprimitive,
                                                 graph, data):
        """Each level's orbit ids, built bottom-up in one union-find
        forest, group the points as the orbits of G_{d+1}: on the chains
        of random groups, of automorphism groups with their base and with
        another one, and of block stabilizers."""
        grp, _ = sample
        aut = automorphism_group(graph).group
        prefix = data.draw(st.permutations(range(graph.n)))[:2]
        chains = [grp.chain, aut.chain, aut.chain_with_base(prefix)] + \
            [stab.chain for stab in block_stabilizers(imprimitive)]
        for chain in chains:
            n = chain.degree
            for fresh, first in ((True, 1), (False, 0), (True, 0)):
                if fresh:
                    chain._tables = None
                levels = chain._levels(first)
                for d in range(first, len(chain.base)):
                    ids = levels[d][1]
                    parts = {frozenset(q for q in range(n) if ids[q] == i)
                             for i in set(ids)}
                    assert parts == set(PermGroup(
                        n, chain._level_gens(d + 1)).orbits())

    def test_search_nodes_are_capped(self, monkeypatch):
        """AGL1(23) walks from its root, as every orbit has more points
        than a strong generator moves; Sym(8) walks its last level only
        and trips no cap."""
        monkeypatch.setenv("SMALLMOTION_CAP", "10")
        with pytest.raises(CapExceededError, match="SMALLMOTION_CAP=10"):
            agl1(23).minimal_degree()
        assert sym_group(8).minimal_degree() == 2


PRIMITIVE_SAMPLES = [sym_group(5), alt_group(5), alt_group(6), agl1(5),
                     agl1(7), dihedral_group(7), psl2(5), pgl2(7), pgl3_2(),
                     agl_d2(3)]


def conjugated(grp, images):
    f = Permutation(images)
    return PermGroup(grp.degree, [g.conjugate(f) for g in grp.generators])


@st.composite
def primitive_samples(draw):
    """A primitive group of degree <= 8 under a random relabelling."""
    grp = draw(st.sampled_from(PRIMITIVE_SAMPLES))
    return conjugated(grp, draw(st.permutations(range(grp.degree))))


@st.composite
def regular_cyclic_groups(draw):
    """C_n in its regular action, n <= 12, under a random relabelling: G_0
    is trivial, so the searches must run from the root."""
    n = draw(st.integers(2, 12))
    return conjugated(cyclic_group(n), draw(st.permutations(range(n))))


@st.composite
def intransitive_groups(draw):
    """Random generators keeping {0, ..., a-1} and {a, ..., n-1}, n <= 8,
    under a random relabelling."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gens = [Permutation(draw(st.permutations(range(a)))
                        + draw(st.permutations(range(a, a + b))))
            for _ in range(draw(st.integers(1, 3)))]
    return conjugated(PermGroup(a + b, gens),
                      draw(st.permutations(range(a + b))))


def searched_witnesses(grp):
    """The answers of ``least_witnesses_by_scan`` from the searches."""
    primes = [p for p in range(2, grp.degree + 1) if _is_prime(p)]
    cycles = [_find_p_cycle(grp, p) for p in primes]
    assert _find_p_cycle(grp, None) == \
        next((x for x in cycles if x is not None), None)
    out = [grp.minimal_degree_witness()] + cycles
    if grp.is_transitive() and any(map(
            is_two_two, small_supports_by_collection(grp.chain, 4, False))):
        out.append(classify_22_group(grp).witness)
    return out


class TestPointStabilizerSearch:
    """The minimal-support searches walk from the first level whose basic
    orbit has at most the bound's points; each answer equals a scan of all
    elements, on groups where that root is deep and on groups where it is
    level 0 (G_0 trivial, or the group intransitive)."""

    @staticmethod
    def check(grp):
        if not grp.is_trivial():
            assert searched_witnesses(grp) == least_witnesses_by_scan(grp)

    @settings(max_examples=60, deadline=None)
    @given(imprimitive_groups())
    def test_imprimitive_groups(self, grp):
        self.check(grp)

    @settings(max_examples=40, deadline=None)
    @given(primitive_samples())
    def test_primitive_groups(self, grp):
        self.check(grp)

    @settings(max_examples=30, deadline=None)
    @given(regular_cyclic_groups())
    def test_regular_cyclic_groups(self, grp):
        self.check(grp)

    @settings(max_examples=60, deadline=None)
    @given(intransitive_groups())
    def test_intransitive_groups(self, grp):
        self.check(grp)

    def test_transitive_search_lists_only_the_stabilizer(self):
        """PGL2(7) on 8 points has basic orbits of 8, 7 and 6 points, so
        the walk for bound 4, 6, 7 and 8 starts at level 3, 2, 1 and 0:
        it lists the elements of that level's stabilizer."""
        grp = relabelled(pgl2(7), 3)
        base = grp.chain.base
        assert list(map(len, grp.chain._orbits)) == [8, 7, 6]
        for bound, root in ((4, 3), (6, 2), (7, 1), (8, 0)):
            assert list(grp._least_supports(bound)) == [
                g for g in small_supports_by_collection(grp.chain, bound,
                                                        False)
                if all(g(b) == b for b in base[:root])]
        assert len(list(grp._least_supports(8))) == grp.order() - 1


def relabelled(grp, seed):
    rng = random.Random(seed)
    f = random_perm(rng, grp.degree)
    return PermGroup(grp.degree, [g.conjugate(f) for g in grp.generators])


def mathieu_group(n):
    """M11, M12, M23 or M24 on the generators of ROADMAP 2.2 (1-based)."""
    cycles = {11: [[(3, 7, 11, 8), (4, 10, 5, 6)]],
              12: [[(3, 7, 11, 8), (4, 10, 5, 6)],
                   [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)]],
              23: [[(3, 17, 10, 7, 9), (4, 13, 14, 19, 5),
                    (8, 18, 11, 12, 23), (15, 20, 22, 21, 16)]],
              24: [[(3, 17, 10, 7, 9), (4, 13, 14, 19, 5),
                    (8, 18, 11, 12, 23), (15, 20, 22, 21, 16)],
                   [(1, 24), (2, 23), (3, 12), (4, 16), (5, 18), (6, 10),
                    (7, 20), (8, 14), (9, 21), (11, 17), (13, 22),
                    (15, 19)]]}[n]
    long_cycle = [tuple(range(1, n - (n in (12, 24)) + 1))]
    return PermGroup(n, [Permutation.from_cycles(
        n, [[x - 1 for x in c] for c in gen]) for gen in [long_cycle] + cycles])


@st.composite
def walk_groups(draw):
    """A relabelled imprimitive, primitive, wreath or intransitive group."""
    kind = draw(st.sampled_from(["imprimitive", "primitive", "wreath",
                                 "intransitive"]))
    if kind == "imprimitive":
        return draw(imprimitive_groups())
    if kind == "primitive":
        return draw(primitive_samples())
    if kind == "intransitive":
        return draw(intransitive_groups())
    inner, k = draw(st.sampled_from([(cyclic_group(3), 2), (sym_group(3), 2),
                                     (agl1(5), 2), (dihedral_group(4), 2),
                                     (cyclic_group(2), 3), (sym_group(2), 4)]))
    grp = wreath_product(inner, sym_group(k))
    return conjugated(grp, draw(st.permutations(range(grp.degree))))


class TestLeastFirstWalk:
    """The walk on a lex-compatible chain meets elements in increasing
    image tuple, and its readers give the answers of the collecting walk
    over the whole group."""

    @staticmethod
    def assert_same_as_collection(grp):
        if not grp.is_trivial():
            assert [grp.minimal_degree_witness(), _find_p_cycle(grp, None),
                    _two_two_classes(grp)] == witnesses_by_collection(grp)

    @settings(max_examples=120, deadline=None)
    @given(walk_groups())
    def test_readers_match_the_collecting_walk(self, grp):
        self.assert_same_as_collection(grp)

    def test_relabelled_corpus_graphs_match_the_collecting_walk(self):
        rng = random.Random(42)
        spec = CorpusSpec(circulant_max=8, inf_sigmas=("cycle:4", "cycle:6"),
                          inf_ms=(2,), lex_thetas=("complete:2",))
        checked = 0
        for _, graph in corpus_generators(spec):
            group = automorphism_group(
                relabel(graph, random_perm(rng, graph.n))).group
            if group.order() <= 20_000:
                self.assert_same_as_collection(group)
                checked += 1
        assert checked >= 25

    @settings(max_examples=80, deadline=None)
    @given(small_groups())
    def test_walk_from_the_root_is_in_image_order(self, sample):
        grp, _ = sample
        walked = [h for _, h in grp.chain._by_image([grp.degree], 0)]
        assert all(a < b for a, b in zip(walked, walked[1:]))
        assert walked == sorted(g.images for g in elements(grp)
                                if not g.is_identity())

    @settings(max_examples=80, deadline=None)
    @given(small_groups(), small_graphs())
    def test_every_chain_is_lex_compatible(self, sample, graph):
        """Chains of ``PermGroup.chain``, of normal closures, grown by
        ``extend``, and of automorphism groups on their first path."""
        grp, extra = sample
        grown = StabilizerChain(grp.degree, [])
        for g in list(grp.generators) + extra:
            grown.extend(g)
        chains = [grp.chain, grown, automorphism_group(graph).group.chain]
        chains += [grp.normal_closure(x).chain for x in extra[:2]]
        assert all(chain._lex_compatible() for chain in chains)

    def test_other_prefixes_walk_a_lex_chain(self, monkeypatch):
        """A chain on another prefix fails the check, and the walk runs
        on a chain built from its strong generators with no prefix."""
        grp = agl1(7)
        other = PermGroup(7, grp.generators)
        other._chain = grp.chain_with_base([3])
        assert not other.chain._lex_compatible()
        built = []
        original = StabilizerChain.__init__

        def recording(self, degree, generators, prefix=(), order=None):
            original(self, degree, generators, prefix, order)
            built.append((tuple(prefix), self._lex_compatible(), order))

        monkeypatch.setattr(StabilizerChain, "__init__", recording)
        assert other.minimal_degree_witness() == grp.minimal_degree_witness()
        assert built == [((), True, 42)]

    @pytest.mark.parametrize("make, want", [
        *[(lambda m=m: sym_group(m), 2) for m in (2, 5, 9, 12)],
        *[(lambda m=m: alt_group(m), 3) for m in (3, 6, 9, 12)],
        *[(lambda p=p: agl1(p), p - 1) for p in (5, 13, 23)],
        *[(lambda p=p: psl2(p), p - 1) for p in (5, 13, 23)],
        *[(lambda p=p: pgl2(p), p - 1) for p in (5, 13, 23)],
        *[(lambda d=d: agl_d2(d), 2 ** (d - 1)) for d in (2, 3, 4)],
        *[(lambda n=n: mathieu_group(n), mindeg)
          for n, mindeg in ((11, 8), (12, 8), (23, 16), (24, 16))]])
    def test_closed_form_minimal_degrees(self, make, want):
        assert make().minimal_degree() == want

    def test_mathieu_orders(self):
        assert [mathieu_group(n).order() for n in (11, 12, 23, 24)] == \
            [7_920, 95_040, 10_200_960, 244_823_040]


@st.composite
def prefixed_chains(draw):
    """A chain with a prefix: ``chain_with_base`` on random points, a block
    stabilizer's or a pointwise stabilizer's, of a relabelled walk group."""
    grp = draw(walk_groups())
    kind = draw(st.sampled_from(["base", "block", "pointwise"]))
    points = draw(st.permutations(range(grp.degree)))
    points = points[:draw(st.integers(1, grp.degree))]
    if kind == "base":
        return grp.chain_with_base(points)
    if kind == "block" and grp.is_transitive():
        return grp.block_stabilizer(grp._block_closure(points[:2])).chain
    return grp.pointwise_stabilizer(points).chain


class TestSchreierVectors:
    """A level's elements, composed when first read, equal those of a
    breadth-first search that composes each as it reaches its point
    (``oracles.transversal_by_bfs``): walked one at a time up the Schreier
    vector of a level not yet composed, and scanned whole."""

    @staticmethod
    def assert_composed_as_searched(chain):
        for level in range(len(chain.base)):
            trans, inverses = transversal_by_bfs(chain, level)
            if chain._transversal[level] is None:
                assert {x: chain._element(level, x) for x in trans} == \
                    {x: (trans[x], inverses[x]) for x in trans}
            assert list(chain._orbits[level]) == list(trans)
            composed = chain._composed(level)
            assert [list(d.items()) for d in composed] == \
                [list(trans.items()), list(inverses.items())]

    @settings(max_examples=100, deadline=None)
    @given(walk_groups())
    def test_random_imprimitive_wreath_and_intransitive_groups(self, grp):
        """``PermGroup.chain`` and the order-known chain on its strong
        generators with no prefix that the walk builds."""
        self.assert_composed_as_searched(grp.chain)
        self.assert_composed_as_searched(StabilizerChain(
            grp.degree, grp.chain._level_gens(0), order=grp.order()))

    @settings(max_examples=60, deadline=None)
    @given(small_groups())
    def test_chains_grown_by_extend(self, sample):
        grp, extra = sample
        grown = StabilizerChain(grp.degree, [])
        for g in list(grp.generators) + extra:
            grown.extend(g)
        self.assert_composed_as_searched(grown)
        for x in extra[:2]:
            self.assert_composed_as_searched(grp.normal_closure(x).chain)

    @settings(max_examples=100, deadline=None)
    @given(prefixed_chains())
    def test_prefixed_chains(self, chain):
        self.assert_composed_as_searched(chain)

    def test_relabelled_corpus_aut_chains(self):
        rng = random.Random(44)
        spec = CorpusSpec(circulant_max=8, inf_sigmas=("cycle:4", "cycle:6"),
                          inf_ms=(2,), lex_thetas=("complete:2",))
        for _, graph in corpus_generators(spec):
            group = automorphism_group(
                relabel(graph, random_perm(rng, graph.n))).group
            self.assert_composed_as_searched(group.chain)

    def test_motion_walk_leaves_level_0_uncomposed(self):
        """The minimal-support walk on Aut(prism:20) starts below level 0,
        whose 40 points keep only their Schreier vector."""
        graph = named_graph("prism:20")
        aut = automorphism_group(graph)
        assert motion_witness(graph, aut)[0] == 4
        chain = aut.group.chain
        assert len(chain._orbits[0]) == 40
        assert chain._transversal[0] is None and chain._inverses[0] is None
        assert chain._transversal[-1] is not None

    def test_wrong_claimed_order_raises(self):
        """A chain told an order its generators do not close to raises,
        whether they are strong for the base or not."""
        grp = wreath_product(sym_group(3), sym_group(2))
        for gens, prefix in ((grp.chain._level_gens(0), grp.chain.base),
                             (grp.generators, [5, 2])):
            for wrong in (grp.order() * 2, grp.order() + 1):
                with pytest.raises(RuntimeError, match=f"chain of order "
                                   f"{grp.order()}, claimed {wrong}$"):
                    StabilizerChain(grp.degree, gens, prefix, order=wrong)


def regular_group(elements, multiply):
    """The right-regular action of a group given by its element list."""
    index = {e: i for i, e in enumerate(elements)}
    return PermGroup(len(elements), [
        Permutation([index[multiply(x, g)] for x in elements])
        for g in elements])


def quaternion_product(x, y):
    """Product of quaternion units (sign, letter), letters in '1ijk'."""
    (s, a), (t, b) = x, y
    if a == "1" or b == "1":
        return s * t, a if b == "1" else b
    if a == b:
        return -s * t, "1"
    c = ({"i", "j", "k"} - {a, b}).pop()
    return (s * t if "ijk".index(b) == ("ijk".index(a) + 1) % 3 else -s * t), c


def assert_isomorphism(g1, g2, result):
    """result is (f, phi) with phi(x) = f^-1 x f in g2 for each generator."""
    assert result is not None
    f, phi = result
    assert set(phi) == set(g1.generators)
    for x in g1.generators:
        assert x.conjugate(f) == phi[x] and phi[x] in g2


PAIR_AMBIENTS = [sorted(elements(grp)) for grp in (
    sym_group(4), agl1(7), wreath_product(sym_group(2), sym_group(3)),
    wreath_product(sym_group(3), sym_group(2)))]


@st.composite
def subgroup_pairs(draw):
    """Two subgroups of one group of degree <= 7, on 1-3 of its elements
    each, the i-th generators of the two of equal order; the second is
    relabelled.  Equal group orders are then common, with and without a
    permutation isomorphism."""
    elements = draw(st.sampled_from(PAIR_AMBIENTS))
    n = elements[0].degree
    gens1 = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
    gens2 = [draw(st.sampled_from([h for h in elements
                                   if h.order() == g.order()]))
             for g in gens1]
    f = draw(st.permutations(range(n)).map(Permutation))
    return PermGroup(n, gens1), PermGroup(n, [g.conjugate(f) for g in gens2])


class TestPermutationIsomorphic:
    def test_regular_reps_of_c6(self):
        g1 = PermGroup(6, [Permutation.from_cycles(6, [list(range(6))])])
        g2 = PermGroup(6, [Permutation([(i + 5) % 6 for i in range(6)])])
        assert permutation_isomorphic(g1, g2) is not None

    def test_different_orders_fail(self):
        g1 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1]])])
        g2 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1, 2]])])
        assert permutation_isomorphic(g1, g2) is None

    def test_same_order_different_action(self):
        # cyclic C4 vs Klein four-group, both order 4 on 4 points
        c4 = PermGroup(4, [Permutation.from_cycles(4, [list(range(4))])])
        v4 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1], [2, 3]]),
                           Permutation.from_cycles(4, [[0, 2], [1, 3]])])
        assert permutation_isomorphic(c4, v4) is None

    def test_witness_is_consistent(self):
        rng = random.Random(18)
        for _ in range(10):
            n = rng.randint(3, 6)
            grp = random_group(rng, n)
            f = random_perm(rng, n)
            conj = PermGroup(n, [g.conjugate(f) for g in grp.generators])
            result = permutation_isomorphic(grp, conj)
            assert result is not None
            fw, phi = result
            for g in grp.generators:
                assert g.conjugate(fw) in conj

    @settings(max_examples=200, deadline=None)
    @given(subgroup_pairs())
    def test_matches_the_backtrack_oracle(self, pair):
        g1, g2 = pair
        if g1.order() != g2.order():
            return
        result = permutation_isomorphic(g1, g2)
        want = permutation_isomorphic_backtrack(g1, g2)
        assert (result is None) == (want is None)
        if result is not None:
            assert_isomorphism(g1, g2, result)

    @pytest.mark.parametrize("make", [lambda: agl1(13), lambda: pgl2(13),
                                      lambda: dihedral_group(16),
                                      lambda: agl_d2(4)],
                             ids=["AGL1(13)", "PGL2(13)", "D16", "AGL(4,2)"])
    def test_relabelled_groups_within_two_seconds(self, make):
        """The backtrack oracle takes seconds, or past 280 s, on these."""
        grp = make()
        for g1, g2 in ((relabelled(grp, 1), grp), (grp, relabelled(grp, 2))):
            start = time.perf_counter()
            result = permutation_isomorphic(g1, g2)
            assert time.perf_counter() - start < 2
            assert_isomorphism(g1, g2, result)

    def test_root_fixing_generators(self):
        """Two presentations of AGL(3,2) on 8 points; the first four
        generators of the first fix the point 0."""
        g1 = PermGroup(8, [Permutation(p) for p in (
            [0, 1, 2, 4, 3, 5, 7, 6], [0, 1, 4, 3, 2, 7, 6, 5],
            [0, 2, 1, 4, 3, 5, 6, 7], [0, 1, 5, 3, 7, 2, 6, 4],
            [4, 1, 6, 3, 0, 5, 2, 7])])
        g2 = PermGroup(8, [Permutation(p) for p in (
            [1, 0, 3, 2, 5, 4, 7, 6], [2, 3, 0, 1, 6, 7, 4, 5],
            [4, 5, 6, 7, 0, 1, 2, 3], [0, 3, 2, 1, 4, 7, 6, 5],
            [0, 2, 4, 6, 1, 3, 5, 7], [0, 2, 1, 3, 4, 6, 5, 7])])
        assert g1.order() == g2.order() == 1344
        start = time.perf_counter()
        result = permutation_isomorphic(g1, g2)
        assert time.perf_counter() - start < 2
        assert_isomorphism(g1, g2, result)

    def test_equal_order_regular_groups_differ(self):
        """The regular C16 and C8 x C2, and the regular D4 and Q8."""
        c16 = PermGroup(16, [Permutation.from_cycles(16, [list(range(16))])])
        c8c2 = PermGroup(16, [
            Permutation.from_cycles(16, [list(range(8)), list(range(8, 16))]),
            Permutation([(i + 8) % 16 for i in range(16)])])
        d4 = regular_group(sorted(elements(dihedral_group(4))),
                           lambda x, y: x * y)
        q8 = regular_group([(s, c) for s in (1, -1) for c in "1ijk"],
                           quaternion_product)
        for g1, g2, order in ((c16, c8c2, 16), (d4, q8, 8)):
            assert g1.order() == g2.order() == order
            start = time.perf_counter()
            assert permutation_isomorphic(g1, g2) is None
            assert time.perf_counter() - start < 2

    def test_search_nodes_are_capped(self, monkeypatch):
        monkeypatch.setenv("SMALLMOTION_CAP", "10")
        grp = agl1(13)
        with pytest.raises(CapExceededError, match="permutation-isomorphism "
                           "search exceeds cap SMALLMOTION_CAP=10 nodes"):
            permutation_isomorphic(relabelled(grp, 1), grp)


class TestCapVariable:
    def test_environment_cap_is_read_when_needed(self, monkeypatch):
        sym4 = sym_group(4)
        monkeypatch.setenv("SMALLMOTION_CAP", "5")
        with pytest.raises(CapExceededError):
            list(elements(sym4))
        monkeypatch.setenv("SMALLMOTION_CAP", "24")
        assert len(list(elements(sym4))) == 24

    def test_element_cap_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("SMALLMOTION_CAP", "10")
        with pytest.raises(CapExceededError) as info:
            list(elements(sym_group(5)))
        assert str(info.value) == \
            "group order 120 exceeds cap SMALLMOTION_CAP=10"

    def test_invalid_environment_cap(self, monkeypatch):
        for bad in ("abc", "0", "-3", ""):
            monkeypatch.setenv("SMALLMOTION_CAP", bad)
            with pytest.raises(ValueError, match="SMALLMOTION_CAP"):
                list(elements(sym_group(3)))


class TestTextFormats:
    def test_is_2_transitive(self):
        sym4 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1]]),
                             Permutation.from_cycles(4, [list(range(4))])])
        assert is_2_transitive(sym4)
        c4 = PermGroup(4, [Permutation.from_cycles(4, [list(range(4))])])
        assert not is_2_transitive(c4)
        # presentation with a generator fixing the first point
        s3 = PermGroup(3, [Permutation([0, 2, 1]), Permutation([2, 1, 0])])
        assert is_2_transitive(s3)

    def test_reduce_generators_preserves_group(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(3, 6)
            grp = random_group(rng, n, ngens=4)
            reduced = reduce_generators(n, elements(grp))
            assert PermGroup(n, reduced.generators).order() == grp.order()
