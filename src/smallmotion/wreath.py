"""Imprimitive wreath products and block-system embeddings.

A wreath product of an inner group on m points and an outer group on k
points acts on m*k points; the pair (delta, lam) is flattened to
lam*m + delta, so the canonical blocks are the k consecutive runs of m
points.  Base-group elements are stored as flat permutations, never as
function objects.  An embedding is verified when every generator's image
lies in (block action on one block) wr (action on the blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from .permcore import BlockSystem, PermGroup, Permutation


@dataclass(frozen=True)
class WreathLabeling:
    """Index map between pairs (delta, lam) and flat points lam*m + delta."""

    inner_degree: int
    outer_degree: int

    def flat(self, delta: int, lam: int) -> int:
        if not (0 <= delta < self.inner_degree and 0 <= lam < self.outer_degree):
            raise ValueError("pair out of range")
        return lam * self.inner_degree + delta

    def pair(self, point: int) -> tuple[int, int]:
        if not 0 <= point < self.inner_degree * self.outer_degree:
            raise ValueError("point out of range")
        return point % self.inner_degree, point // self.inner_degree

    def canonical_blocks(self) -> BlockSystem:
        m, k = self.inner_degree, self.outer_degree
        return BlockSystem.from_blocks(
            m * k, [range(lam * m, (lam + 1) * m) for lam in range(k)])


def wreath_product(inner: PermGroup, outer: PermGroup) -> PermGroup:
    """The imprimitive wreath product, acting on inner.degree * outer.degree
    points: (delta, lam)^(g, h) = (delta^g(lam), lam^h).

    Generators: the inner generators acting in every copy, plus the outer
    generators permuting copies.
    """
    m, k = inner.degree, outer.degree
    lab = WreathLabeling(m, k)
    one = Permutation.identity(m)
    gens = [base_group_element(lab, [g if i == lam else one for i in range(k)])
            for g in inner.generators for lam in range(k)]
    gens += [top_group_element(lab, h) for h in outer.generators]
    return PermGroup(m * k, gens)


def base_group_element(lab: WreathLabeling, parts: list[Permutation]) -> Permutation:
    """The base-group element acting as parts[lam] in copy lam, one part
    for each of the copies."""
    if len(parts) != lab.outer_degree:
        raise ValueError(f"{len(parts)} parts for {lab.outer_degree} copies")
    return _pair_map(lab, lambda delta, lam: (parts[lam](delta), lam))


def top_group_element(lab: WreathLabeling, h: Permutation) -> Permutation:
    """The top-group element permuting the copies by h."""
    return _pair_map(lab, lambda delta, lam: (delta, h(lam)))


def _pair_map(lab: WreathLabeling, image) -> Permutation:
    """The permutation sending the pair (delta, lam) to image(delta, lam)."""
    m, k = lab.inner_degree, lab.outer_degree
    return Permutation([lab.flat(*image(*lab.pair(v))) for v in range(m * k)])


@dataclass
class Embedding:
    """A permutation embedding into a wreath product.

    ``f`` is the point bijection onto the wreath labeling and ``phi`` maps
    each generator g to f^-1 g f, so f(w^g) = f(w)^phi(g) holds for any
    bijection.  ``verified`` is the check that can fail: every phi(g) lies
    in ``target`` = ``inner`` wr ``outer``, built independently from the
    block stabilizer's action on block 0 and the action on the blocks.
    """

    f: Permutation
    phi: dict
    target: PermGroup
    labeling: WreathLabeling
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
    lies in that wreath product (``action_on_blocks`` checks invariance)."""
    outer = group.action_on_blocks(bs)
    if not group.is_transitive():
        raise ValueError("group must be transitive")
    block0 = bs.blocks[0]
    inner = group.block_stabilizer(block0).restriction(block0)
    lab = WreathLabeling(len(block0), len(bs.blocks))
    inverses = _block_transversal(group, bs)
    pos = {v: i for i, v in enumerate(block0)}

    def f_point(omega: int) -> int:
        j = bs.block_of[omega]
        delta = pos[inverses[j](omega)]
        return lab.flat(delta, j)

    f = Permutation([f_point(omega) for omega in range(group.degree)])
    f_inv = f.inverse()
    phi = {g: f_inv * g * f for g in group.generators}
    target = wreath_product(inner, outer)
    verified = all(image in target for image in phi.values())
    return Embedding(f=f, phi=phi, target=target, labeling=lab,
                     inner=inner, outer=outer, verified=verified)
