"""Wreath products, and the oracle embedding of imprimitive groups."""

import random

import pytest

import oracles
import oracles
from oracles import (block_systems_all_beta, embed_imprimitive,
                     is_invariant_partition, pair_reference_generators,
                     superflip, wreath_generators_by_pairs)
from smallmotion import grouptables
from smallmotion.grouptables import (_candidate_specs, construct,
                                     cyclic_group, dihedral_group, sym_group)
from smallmotion.permcore import BlockSystem, PermGroup, Permutation
from smallmotion.wreath import (base_group_element, top_group_element,
                                top_part, wreath_product)


def random_transitive_imprimitive(rng, max_tries=200):
    """A random transitive group with a nontrivial block system."""
    for _ in range(max_tries):
        n = rng.choice([4, 6, 8, 9])
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
        grp = PermGroup(n, gens)
        if grp.is_transitive() and not grp.is_primitive():
            return grp
    raise RuntimeError("no imprimitive group found")


def copies(m, k):
    """The k copies of m points, copy lam the run from lam*m."""
    return BlockSystem.from_blocks(
        m * k, [range(lam * m, (lam + 1) * m) for lam in range(k)])


class TestWreathProduct:
    def test_order(self):
        inner = sym_group(3)
        outer = sym_group(2)
        w = wreath_product(inner, outer)
        assert w.degree == 6
        assert w.order() == 6 ** 2 * 2

    def test_order_cyclic(self):
        w = wreath_product(cyclic_group(2), sym_group(3))
        assert w.order() == 2 ** 3 * 6

    def test_blocks_are_invariant(self):
        w = wreath_product(dihedral_group(5), cyclic_group(3))
        assert is_invariant_partition(w, copies(5, 3))

    def test_base_and_top_elements(self):
        inner = sym_group(3)
        outer = sym_group(2)
        w = wreath_product(inner, outer)
        g = base_group_element([Permutation([1, 0, 2]),
                                Permutation([0, 2, 1])])
        assert g in w
        assert g(0) == 1 and g(3) == 3 and g(4) == 5
        h = top_group_element(3, Permutation([1, 0]))
        assert h in w
        assert h(0) == 3 and h(4) == 1

    def test_semidirect_relation(self):
        # conjugating a base element by a top element permutes the copies
        w = wreath_product(sym_group(2), sym_group(3))
        b = base_group_element([Permutation([1, 0]), Permutation([0, 1]),
                                Permutation([0, 1])])
        t = top_group_element(2, Permutation([1, 2, 0]))
        conj = b.conjugate(t)
        assert conj == base_group_element([Permutation([0, 1]),
                                           Permutation([1, 0]),
                                           Permutation([0, 1])])
        assert conj in w


class TestTopPart:
    def test_reads_the_top_of_base_and_top_elements(self):
        rng = random.Random(34)
        for m, k in ((1, 4), (2, 3), (3, 2), (4, 4)):
            for _ in range(5):
                parts = [Permutation(rng.sample(range(m), m))
                         for _ in range(k)]
                h = Permutation(rng.sample(range(k), k))
                assert top_part(m, base_group_element(parts)).is_identity()
                assert top_part(m, top_group_element(m, h)) == h
                g = base_group_element(parts) * top_group_element(m, h)
                assert top_part(m, g) == h

    def test_is_a_homomorphism_on_the_wreath_product(self):
        w = wreath_product(dihedral_group(4), sym_group(3))
        elements = list(oracles.elements(w))
        rng = random.Random(35)
        for a, b in zip(rng.sample(elements, 40), rng.sample(elements, 40)):
            assert top_part(4, a * b) == top_part(4, a) * top_part(4, b)


class TestPairMapOracle:
    """The builders write exactly the generator image lists of the
    range-checked pair map and the pair formulas."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_pair_references_and_superflip(self, m):
        for name, gens in pair_reference_generators(m).items():
            built = getattr(grouptables, name)(m).generators
            assert [g.images for g in built] == [g.images for g in gens], name
        assert grouptables.superflip(m).images == superflip(m).images

    def test_wreath_products_of_every_family(self):
        specs = {spec for d in range(1, 17) for spec in _candidate_specs(d)}
        families = {spec.family for spec in specs}
        assert families == set(grouptables._CONSTRUCTORS)
        for spec in sorted(specs, key=str):
            for outer in (sym_group(2), cyclic_group(3)):
                built = wreath_product(construct(spec), outer).generators
                want = wreath_generators_by_pairs(construct(spec), outer)
                assert [g.images for g in built] == \
                    [g.images for g in want], (spec, outer.degree)


class TestEmbedding:
    def test_c6_into_wreath(self):
        c6 = PermGroup(6, [Permutation.from_cycles(6, [list(range(6))])])
        bs = BlockSystem.from_blocks(6, [(0, 3), (1, 4), (2, 5)])
        emb = embed_imprimitive(c6, bs)
        assert emb.verified
        assert emb.inner.order() == 2 and emb.outer.order() == 3
        assert emb.target.order() == 2 ** 3 * 3
        for g in c6.generators:
            assert emb.phi[g] in emb.target

    def test_rejects_noninvariant_partition(self):
        c6 = PermGroup(6, [Permutation.from_cycles(6, [list(range(6))])])
        bs = BlockSystem.from_blocks(6, [(0, 1), (2, 3), (4, 5)])
        with pytest.raises(ValueError):
            embed_imprimitive(c6, bs)

    def test_random_imprimitive_groups(self):
        rng = random.Random(30)
        for _ in range(20):
            grp = random_transitive_imprimitive(rng)
            for bs in block_systems_all_beta(grp):
                emb = embed_imprimitive(grp, bs)
                assert emb.verified
                assert all(emb.phi[g] in emb.target
                           for g in grp.generators)
                # conjugation preserves group structure on generator products
                for g in grp.generators:
                    for h in grp.generators:
                        assert emb.f.inverse() * (g * h) * emb.f == \
                               emb.phi[g] * emb.phi[h]

    def test_wreath_product_embeds_onto_itself(self):
        w = wreath_product(sym_group(2), sym_group(3))
        emb = embed_imprimitive(w, copies(2, 3))
        assert emb.verified
        assert emb.inner.order() == 2 and emb.outer.order() == 6
        assert emb.target.order() == w.order()

    def test_block_movers_map_each_block_onto_block_0(self):
        rng = random.Random(32)
        for _ in range(10):
            grp = random_transitive_imprimitive(rng)
            for bs in block_systems_all_beta(grp):
                movers = oracles._block_transversal(grp, bs)
                assert len(movers) == len(bs.blocks)
                for blk, u in zip(bs.blocks, movers):
                    assert u in grp
                    assert {u(v) for v in blk} == set(bs.blocks[0])

    def test_corrupted_block_movers_fail_verification(self, monkeypatch):
        # C9 with blocks {0,3,6}, {1,4,7}, {2,5,8} embeds into C3 wr C3.
        # Following block 1's mover by the transposition (0 3) of block 0
        # keeps f a bijection onto the canonical blocks, but the copies of
        # phi(g) that touch block 1 then leave C3.
        c9 = PermGroup(9, [Permutation.from_cycles(9, [list(range(9))])])
        bs = BlockSystem.from_blocks(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])
        assert embed_imprimitive(c9, bs).verified
        movers = oracles._block_transversal
        swap = Permutation.from_cycles(9, [[0, 3]])

        def corrupted(group, system):
            inverses = movers(group, system)
            inverses[1] = inverses[1] * swap
            return inverses

        monkeypatch.setattr(oracles, "_block_transversal", corrupted)
        emb = embed_imprimitive(c9, bs)
        assert all(emb.f(v) // 3 == bs.block_of[v] for v in range(9))
        assert not emb.verified
