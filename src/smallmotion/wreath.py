"""Imprimitive wreath products and block-system embeddings.

A wreath product of an inner group on m points and an outer group on k
points acts on m*k points: the point delta of copy lam is lam*m + delta,
so copy lam is the run of m points from lam*m.  The group code writes
that index nowhere else: ``base_group_element``, ``top_group_element`` and
``top_part`` build and read wreath elements in it.  An embedding is
verified when every generator's image lies in (block action on one block)
wr (action on the blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from .permcore import BlockSystem, PermGroup, Permutation


def wreath_product(inner: PermGroup, outer: PermGroup) -> PermGroup:
    """The imprimitive wreath product, acting on inner.degree * outer.degree
    points: (delta, lam)^(g, h) = (delta^g(lam), lam^h).

    Generators: the inner generators acting in every copy, plus the outer
    generators permuting copies.
    """
    m, k = inner.degree, outer.degree
    one = Permutation.identity(m)
    gens = [base_group_element([g if i == lam else one for i in range(k)])
            for g in inner.generators for lam in range(k)]
    gens += [top_group_element(m, h) for h in outer.generators]
    return PermGroup(m * k, gens)


def base_group_element(parts: list[Permutation]) -> Permutation:
    """The base-group element acting as parts[lam] in copy lam."""
    m = parts[0].degree
    return Permutation([lam * m + g(delta) for lam, g in enumerate(parts)
                        for delta in range(m)])


def top_group_element(m: int, h: Permutation) -> Permutation:
    """The top-group element moving each copy lam of m points onto copy
    h(lam)."""
    return Permutation([h(lam) * m + delta for lam in range(h.degree)
                        for delta in range(m)])


def top_part(m: int, g: Permutation) -> Permutation:
    """The permutation of the copies of m points that the wreath element g
    induces."""
    return Permutation([g(lam * m) // m for lam in range(g.degree // m)])


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
    inverses = chain._inverses[0]
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
    outer = group.action_on_blocks(bs)
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
