"""Wreath products and imprimitive embeddings."""

import random

import pytest

from oracles import block_systems_all_beta
from smallmotion import wreath
from smallmotion.grouptables import cyclic_group, dihedral_group, sym_group
from smallmotion.permcore import BlockSystem, PermGroup, Permutation
from smallmotion.wreath import (WreathLabeling, base_group_element,
                                embed_imprimitive, top_group_element,
                                wreath_product)


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

    def test_wreath_product_embeds_onto_itself(self):
        w = wreath_product(sym_group(2), sym_group(3))
        emb = embed_imprimitive(w, WreathLabeling(2, 3).canonical_blocks())
        assert emb.verified
        assert emb.inner.order() == 2 and emb.outer.order() == 6
        assert emb.target.order() == w.order()

    def test_block_movers_map_each_block_onto_block_0(self):
        rng = random.Random(32)
        for _ in range(10):
            grp = random_transitive_imprimitive(rng)
            for bs in block_systems_all_beta(grp):
                movers = wreath._block_transversal(grp, bs)
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
        movers = wreath._block_transversal
        swap = Permutation.from_cycles(9, [[0, 3]])

        def corrupted(group, system):
            inverses = movers(group, system)
            inverses[1] = inverses[1] * swap
            return inverses

        monkeypatch.setattr(wreath, "_block_transversal", corrupted)
        emb = embed_imprimitive(c9, bs)
        assert all(emb.labeling.pair(emb.f(v))[1] == bs.block_of[v]
                   for v in range(9))
        assert not emb.verified
