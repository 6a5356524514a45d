"""Brute-force oracles: exhaustive scans the fast code is checked against."""

import itertools

from smallmotion.permcore import (BlockSystem, CapExceededError, PermGroup,
                                  Permutation, join_closure,
                                  reduce_generators)


def automorphism_group_brute(graph, max_n: int = 8) -> PermGroup:
    """The automorphism group by scanning all n! permutations."""
    if graph.n > max_n:
        raise CapExceededError(f"brute-force cap exceeded: {graph.n} > {max_n}")
    auts = [Permutation(images)
            for images in itertools.permutations(range(graph.n))
            if graph.is_automorphism(Permutation(images))]
    return reduce_generators(graph.n, auts)


def minimal_degree_full_scan(group: PermGroup) -> int:
    """The minimal degree by scanning every non-identity element."""
    if group.is_trivial():
        raise ValueError("minimal degree of the trivial group is undefined")
    return min(len(g.support()) for g in group.elements()
               if not g.is_identity())


def block_systems_all_beta(group: PermGroup) -> list[BlockSystem]:
    """``PermGroup.block_systems`` with one atom per point: the join
    closure of the smallest blocks holding {0, beta} for every beta."""
    atoms = {group._block_closure((0, beta))
             for beta in range(1, group.degree)}
    blocks = join_closure(atoms, lambda b, c: group._block_closure(b | c))
    systems = [group.block_system_from(b) for b in blocks
               if len(b) < group.degree]
    return sorted(systems, key=lambda s: (len(s.blocks[0]), s.blocks))
