"""Wreath products and imprimitive embeddings."""

import random

import pytest

from oracles import block_systems_all_beta
from smallmotion.grouptables import cyclic_group, dihedral_group, sym_group
from smallmotion.permcore import BlockSystem, PermGroup, Permutation
from smallmotion.wreath import (WreathLabeling, base_group_element,
                                embed_imprimitive, top_group_element,
                                verify_sandwich, wreath_product)


def random_transitive_imprimitive(rng, max_tries=200):
    """A random transitive group with a nontrivial block system."""
    for _ in range(max_tries):
        n = rng.choice([4, 6, 8, 9])
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
        grp = PermGroup(n, gens)
        if grp.is_transitive() and not grp.is_primitive():
            return grp
    raise RuntimeError("no imprimitive group found")


class TestLabeling:
    def test_flat_pair_roundtrip(self):
        lab = WreathLabeling(3, 4)
        for lam in range(4):
            for delta in range(3):
                assert lab.pair(lab.flat(delta, lam)) == (delta, lam)

    def test_canonical_blocks(self):
        lab = WreathLabeling(2, 3)
        assert lab.canonical_blocks().blocks == ((0, 1), (2, 3), (4, 5))


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
        lab = WreathLabeling(5, 3)
        assert w.is_invariant_partition(lab.canonical_blocks())

    def test_base_and_top_elements(self):
        inner = sym_group(3)
        outer = sym_group(2)
        w = wreath_product(inner, outer)
        lab = WreathLabeling(3, 2)
        g = base_group_element(lab, [Permutation([1, 0, 2]),
                                     Permutation([0, 2, 1])])
        assert g in w
        assert g(0) == 1 and g(3) == 3 and g(4) == 5
        h = top_group_element(lab, Permutation([1, 0]))
        assert h in w
        assert h(0) == 3 and h(4) == 1
        with pytest.raises(ValueError):
            base_group_element(lab, [Permutation([1, 0, 2])])

    def test_semidirect_relation(self):
        # conjugating a base element by a top element permutes the copies
        lab = WreathLabeling(2, 3)
        w = wreath_product(sym_group(2), sym_group(3))
        b = base_group_element(lab, [Permutation([1, 0]),
                                     Permutation([0, 1]),
                                     Permutation([0, 1])])
        t = top_group_element(lab, Permutation([1, 2, 0]))
        conj = b.conjugate(t)
        assert conj == base_group_element(lab, [Permutation([0, 1]),
                                                Permutation([1, 0]),
                                                Permutation([0, 1])])
        assert conj in w


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


class TestSandwich:
    def test_wreath_itself(self):
        w = wreath_product(sym_group(2), sym_group(3))
        lab = WreathLabeling(2, 3)
        x = Permutation.from_cycles(6, [[0, 1]])
        rep = verify_sandwich(w, lab.canonical_blocks(), x)
        assert rep.ok
        assert rep.x_order == 2

    def test_rejects_cross_block_support(self):
        w = wreath_product(sym_group(2), sym_group(3))
        lab = WreathLabeling(2, 3)
        x = Permutation.from_cycles(6, [[0, 2]])
        with pytest.raises(ValueError):
            verify_sandwich(w, lab.canonical_blocks(), x)

    def test_random_groups_with_block_elements(self):
        rng = random.Random(31)
        checked = 0
        while checked < 10:
            grp = random_transitive_imprimitive(rng)
            systems = block_systems_all_beta(grp)
            if not systems:
                continue
            bs = systems[0]
            block0 = set(bs.blocks[0])
            x = next((g for g in grp.chain.elements(5000)
                      if g.support() and g.support() <= block0), None)
            if x is None:
                continue
            rep = verify_sandwich(grp, bs, x)
            assert rep.ok, rep.failures
            checked += 1
