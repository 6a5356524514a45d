"""Imprimitive wreath products and their coordinate system.

A wreath product of an inner group on m points and an outer group on k
points acts on m*k points: the point delta of copy lam is lam*m + delta,
so copy lam is the run of m points from lam*m.  The group code writes
that index nowhere else: ``base_group_element``, ``top_group_element`` and
``top_part`` build and read wreath elements in it.
"""

from __future__ import annotations

from .permcore import PermGroup, Permutation


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
