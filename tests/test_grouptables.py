"""Concrete group families, table data, and the two classifiers."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import subgroups_by_cyclic_joins
from smallmotion.grouptables import (TABLE1, TABLE2, TABLE3, TABLE4,
                                     GroupSpec, NotConstructibleError,
                                     _all_subgroups,
                                     _block_system_containing_support,
                                     _find_p_cycle, agl1,
                                     agl_d2, alt_group,
                                     c2_wr_sym,
                                     check_table_row, classify_22_group,
                                     classify_p_cycle_group, construct,
                                     cyclic_group, dihedral_group,
                                     enumerate_small_subgroup_pairs,
                                     even_flips, even_flips_rtimes_sym,
                                     one_cross_sym, pair_projection, pgl2,
                                     pgl3_2, psl2, recognize_family,
                                     superflip, sym_group, tau_cross_sym)
from smallmotion.permcore import (CapExceededError, PermGroup, Permutation,
                                  is_2_transitive, is_two_two,
                                  permutation_isomorphic)
from smallmotion.wreath import wreath_product

SAMPLE_GROUPS = [dihedral_group(4), tau_cross_sym(3), even_flips_rtimes_sym(3),
                 c2_wr_sym(2), agl1(5), psl2(5),
                 wreath_product(cyclic_group(3), sym_group(2))]


@st.composite
def regenerated_groups(draw):
    """A group of degree <= 8, and the same group on its generators
    shuffled with one redundant product inserted."""
    if draw(st.booleans()):
        grp = draw(st.sampled_from(SAMPLE_GROUPS))
    else:
        n = draw(st.integers(2, 8))
        grp = PermGroup(n, draw(st.lists(
            st.permutations(range(n)).map(Permutation), min_size=1,
            max_size=3)))
    gens = draw(st.permutations(grp.generators))
    if gens:
        product = draw(st.sampled_from(gens)) * draw(st.sampled_from(gens))
        gens.insert(draw(st.integers(0, len(gens))), product)
    return grp, PermGroup(grp.degree, gens)


def witnesses(grp):
    """The minimal-degree, p-cycle and 2^2-classifier witnesses."""
    out = [grp.minimal_degree_witness(), _find_p_cycle(grp, None)]
    if grp.is_transitive() and \
            any(map(is_two_two, grp.small_support_elements(4))):
        out.append(classify_22_group(grp).witness)
    return out


class TestConstructors:
    def test_orders(self):
        assert sym_group(5).order() == 120
        assert alt_group(5).order() == 60
        assert cyclic_group(6).order() == 6
        assert dihedral_group(5).order() == 10
        assert agl1(5).order() == 20
        assert agl1(7).order() == 42
        assert psl2(5).order() == 60
        assert pgl2(5).order() == 120
        assert pgl3_2().order() == 168
        assert agl_d2(2).order() == 24
        assert agl_d2(3).order() == 1344

    def test_degrees(self):
        assert psl2(5).degree == 6        # projective line over F5
        assert pgl2(7).degree == 8
        assert pgl3_2().degree == 7       # projective plane of order 2
        assert agl_d2(3).degree == 8      # affine 3-space over F2

    def test_two_transitivity(self):
        for grp in (agl1(5), psl2(5), pgl2(5), pgl3_2(), agl_d2(3)):
            assert is_2_transitive(grp)
        assert not is_2_transitive(dihedral_group(5))
        assert not is_2_transitive(cyclic_group(5))

    def test_containments(self):
        d5, a5 = dihedral_group(5), agl1(5)
        assert all(g in a5 for g in d5.generators)
        l2, gl2 = psl2(5), pgl2(5)
        assert all(g in gl2 for g in l2.generators)

    def test_agl_d2_is_affine(self):
        # AGL3(2) contains all 8 translations as a regular normal subgroup
        grp = agl_d2(3)
        translations = [g for g in grp.elements()
                        if all((g(v) ^ g(0)) == v for v in range(8))]
        assert len(translations) == 8

    def test_construct_dispatch_and_metadata_rows(self):
        assert construct(GroupSpec("Sym", (4,))).order() == 24
        with pytest.raises(NotConstructibleError):
            construct(GroupSpec("M11", ()))
        with pytest.raises(ValueError):
            construct(GroupSpec("Frobble", ()))


class TestTables:
    def test_shapes(self):
        assert len(TABLE1) == 14
        assert len(TABLE2) == 5
        assert len(TABLE3) == len(TABLE4) == 2

    def test_constructible_flags(self):
        constructible_t1 = [r.index for r in TABLE1 if r.constructible]
        assert constructible_t1 == [1, 2, 3, 4, 9, 10]
        assert all(r.constructible for r in TABLE2)

    def test_tables_3_and_4_differ_only_in_row2_x(self):
        assert TABLE3[0].x_desc == TABLE4[0].x_desc
        assert TABLE3[1].x_desc != TABLE4[1].x_desc
        assert TABLE3[1].y_desc == TABLE4[1].y_desc

    def test_check_table_row_rejects_tables_3_4(self):
        with pytest.raises(ValueError):
            check_table_row(TABLE3[0])


class TestReferenceSubgroups:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_orders(self, m):
        fact = math.factorial(m)
        assert one_cross_sym(m).order() == fact
        assert tau_cross_sym(m).order() == 2 * fact
        assert even_flips(m).order() == 2 ** (m - 1)
        assert even_flips_rtimes_sym(m).order() == 2 ** (m - 1) * fact
        assert c2_wr_sym(m).order() == 2 ** m * fact

    def test_chain_of_containment(self):
        m = 3
        big = c2_wr_sym(m)
        for grp in (one_cross_sym(m), tau_cross_sym(m), even_flips(m),
                    even_flips_rtimes_sym(m)):
            assert all(g in big for g in grp.generators)

    def test_superflip_central(self):
        m = 3
        tau = superflip(m)
        for g in c2_wr_sym(m).generators:
            assert tau.conjugate(g) == tau

    def test_pair_projection(self):
        m = 3
        tau = superflip(m)
        assert pair_projection(m, tau).is_identity()
        breaks = Permutation([1, 2, 0, 3, 4, 5])   # splits the pair {0,1}
        assert pair_projection(m, breaks) is None
        for g in c2_wr_sym(m).elements():
            assert pair_projection(m, g) is not None


class TestRecognizeFamily:
    @pytest.mark.parametrize("spec", [
        GroupSpec("Sym", (4,)), GroupSpec("Alt", (5,)),
        GroupSpec("Cyclic", (6,)), GroupSpec("Dihedral", (5,)),
        GroupSpec("AGL1", (5,)), GroupSpec("PSL2", (5,)),
        GroupSpec("PGL2", (5,)), GroupSpec("PGL3_2", ()),
        GroupSpec("AGLd2", (3,)),
    ])
    def test_roundtrip(self, spec):
        assert recognize_family(construct(spec)) == spec

    def test_roundtrip_after_relabeling(self):
        grp = agl1(5)
        f = Permutation([3, 1, 4, 0, 2])
        relabeled = grp.__class__(5, [g.conjugate(f) for g in grp.generators])
        assert recognize_family(relabeled) == GroupSpec("AGL1", (5,))

    def test_groups_above_the_element_cap(self):
        """Sym(10) and Alt(10) are recognised without listing their
        3,628,800 and 1,814,400 elements."""
        assert recognize_family(sym_group(10)) == GroupSpec("Sym", (10,))
        rep = classify_p_cycle_group(alt_group(10))
        assert rep.x_family == GroupSpec("Alt", (10,))


class TestRowChecks:
    def test_table1_row1(self):
        check = check_table_row(TABLE1[0], (3,))
        assert check.status == "pass"

    def test_table1_row3(self):
        check = check_table_row(TABLE1[2], (5,))
        assert check.status == "pass"

    def test_table1_row9_above_a_million(self):
        """AGL3(2) wr Sym(2) has order 3,612,672; both groups are checked."""
        check = check_table_row(TABLE1[8], (3,))
        assert check.status == "pass"
        assert [(d["group"], d["direct_mindeg"], d["agree"])
                for d in check.details] == [("X", 4, True), ("Y", 4, True)]

    def test_table2_row2(self):
        check = check_table_row(TABLE2[1])
        assert check.status == "pass"

    def test_table2_row3(self):
        check = check_table_row(TABLE2[2])
        assert check.status == "pass"


def count_block_stabilizers(monkeypatch):
    """Count the calls of PermGroup.block_stabilizer from now on."""
    calls = []
    original = PermGroup.block_stabilizer

    def counting(self, block):
        calls.append(tuple(sorted(block)))
        return original(self, block)

    monkeypatch.setattr(PermGroup, "block_stabilizer", counting)
    return calls


class TestPCycleClassifier:
    def test_cyclic_wreath(self):
        g = wreath_product(cyclic_group(5), sym_group(2))
        rep = classify_p_cycle_group(g, 5)
        assert rep.p == 5 and rep.m == 5 and rep.k == 2
        assert rep.row is TABLE1[2]
        assert rep.cond_c is True
        assert rep.predicted_mindeg_is_p is True
        assert g.minimal_degree() == 5

    def test_sym_wreath(self):
        g = wreath_product(sym_group(3), sym_group(2))
        rep = classify_p_cycle_group(g, 2)
        assert rep.row is TABLE1[0]
        assert rep.predicted_mindeg_is_p is True
        assert g.minimal_degree() == 2

    def test_alt_wreath(self):
        g = wreath_product(alt_group(4), sym_group(2))
        rep = classify_p_cycle_group(g, 3)
        assert rep.row is TABLE1[1]
        assert rep.predicted_mindeg_is_p == (g.minimal_degree() == 3)

    def test_one_setwise_scan_per_block(self, monkeypatch):
        g = wreath_product(sym_group(3), sym_group(2))
        calls = count_block_stabilizers(monkeypatch)
        rep = classify_p_cycle_group(g, 2)
        assert rep.k == 2 and rep.row is TABLE1[0]
        assert len(calls) == 1

    @pytest.mark.parametrize("inner,top", [(5, 3), (2, 9)])
    def test_large_sym_wreaths(self, inner, top):
        """Sym(5) wr Sym(3) (order 10,368,000) and Sym(2) wr Sym(9): the
        block stabilizer comes from the chain, not from the elements."""
        g = wreath_product(sym_group(inner), sym_group(top))
        start = time.perf_counter()
        rep = classify_p_cycle_group(g)
        assert time.perf_counter() - start < 5
        assert rep.p == 2 and rep.m == inner and rep.k == top
        assert rep.row is TABLE1[0] and rep.cond_c is True
        assert rep.predicted_mindeg_is_p is True
        assert rep.y_group.order() == math.factorial(inner)

    def test_rejects_intransitive(self):
        g = wreath_product(cyclic_group(5), sym_group(2))
        sub = g.pointwise_stabilizer([0])
        with pytest.raises(ValueError):
            classify_p_cycle_group(sub)

    def test_block_is_the_closure_of_the_support(self):
        """The p-cycle's block is the smallest block holding its support,
        the block the first-proper-pair-closure scan finds (or the whole
        set when that scan finds none), over random transitive groups:
        random elements of Sym(a) wr Sym(b), relabelled, degree <= 8."""
        rng = random.Random(17)
        tested = 0
        while tested < 40:
            a, b = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 7)])
            n = a * b
            relabel = Permutation(rng.sample(range(n), n))
            gens = []
            for _ in range(2):
                top = rng.sample(range(b), b)
                inner = [rng.sample(range(a), a) for _ in range(b)]
                gens.append(Permutation([top[j] * a + inner[j][i] for j in
                                         range(b) for i in range(a)]))
            grp = PermGroup(n, [g.conjugate(relabel) for g in gens])
            p = rng.choice([2, 3, 5, 7])
            if not grp.is_transitive() or _find_p_cycle(grp, p) is None:
                continue
            tested += 1
            supp = _find_p_cycle(grp, p).support()
            bs = _block_system_containing_support(grp, supp)
            block = next(b for b in bs.blocks if supp <= set(b)) if bs \
                else tuple(range(n))
            assert tuple(sorted(grp._block_closure(supp))) == block
            rep = classify_p_cycle_group(grp, p)
            assert (rep.m, rep.k) == (len(block), n // len(block))


class TestTwoTwoClassifier:
    def test_small_mindeg_branch(self):
        rep = classify_22_group(sym_group(4))
        assert rep.tag == "small_mindeg"
        assert rep.witness.cycle_type() in ((2,), (3,))

    def test_primitive_block_branch(self):
        g = wreath_product(psl2(5), sym_group(2))
        rep = classify_22_group(g)
        assert rep.tag == "case_prim"
        assert rep.m == 6 and rep.k == 2
        assert rep.row is TABLE2[2]
        assert permutation_isomorphic(rep.x_group, psl2(5)) is not None

    def test_one_setwise_scan_per_block(self, monkeypatch):
        g = wreath_product(psl2(5), sym_group(2))
        calls = count_block_stabilizers(monkeypatch)
        rep = classify_22_group(g)
        assert rep.tag == "case_prim" and rep.k == 2
        assert len(calls) == 1

    def test_paired_blocks_branch_tau_cross(self):
        rep = classify_22_group(tau_cross_sym(3))
        assert rep.tag == "case_cross"
        assert rep.m == 3
        assert rep.row is TABLE4[0]

    def test_full_wreath_has_small_mindeg(self):
        # a single pair swap is a transposition, so the full wreath never
        # reaches the paired-blocks analysis
        rep = classify_22_group(c2_wr_sym(3))
        assert rep.tag == "small_mindeg"
        assert rep.witness.cycle_type() == (2,)

    def test_paired_blocks_branch_even_semidirect(self):
        rep = classify_22_group(even_flips_rtimes_sym(3))
        assert rep.tag == "case_cross"
        assert any("even_flips_rtimes_sym" in n for n in rep.notes)


class TestGeneratorIndependence:
    @settings(max_examples=60, deadline=None)
    @given(regenerated_groups())
    def test_witnesses_ignore_the_generating_set(self, pair):
        grp, regenerated = pair
        if grp.is_trivial():
            return
        assert witnesses(regenerated) == witnesses(grp)


def subgroups_by_subset_scan(elements):
    """Oracle: every subset that holds the identity and is closed under
    products."""
    ident, rest = elements[0], elements[1:]
    found = set()
    for size in range(len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            subset = frozenset((ident,) + extra)
            if all(g * h in subset for g in subset for h in subset):
                found.add(subset)
    return found


class TestSubgroupLattice:
    C2_CUBED = PermGroup(6, [Permutation.from_cycles(6, [[2 * i, 2 * i + 1]])
                             for i in range(3)])

    # A4's Klein subgroup is the join of two cyclic subgroups, not cyclic
    @pytest.mark.parametrize("grp, total", [
        (sym_group(3), 6), (dihedral_group(4), 10), (alt_group(4), 10),
        (C2_CUBED, 16)])
    def test_all_subgroups_match_subset_scan(self, grp, total):
        elements = sorted(grp.elements())
        assert elements[0].is_identity()
        got = _all_subgroups(elements, grp.degree)
        assert len(got) == len(set(got)) == total
        assert set(got) == subgroups_by_subset_scan(elements)

    @pytest.mark.parametrize("grp, total", [
        (c2_wr_sym(3), 98), (sym_group(4), 30), (alt_group(5), 59),
        (dihedral_group(6), 16), (agl1(5), 14)])
    def test_all_subgroups_match_cyclic_joins(self, grp, total):
        elements = sorted(grp.elements())
        got = _all_subgroups(elements, grp.degree)
        assert len(got) == len(set(got)) == total
        assert set(got) == subgroups_by_cyclic_joins(elements, grp.degree)
        assert got == sorted(got, key=lambda s: (len(s),
                                                 sorted(p.images for p in s)))

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)],
                             ids=["no_identity", "not_closed"])
    def test_element_list_must_be_a_group(self, cut):
        elements = sorted(sym_group(4).elements())[cut]
        with pytest.raises(RuntimeError,
                           match="subgroup closure leaves the element set"):
            _all_subgroups(elements, 4)

    def test_lattice_limit(self):
        with pytest.raises(CapExceededError):
            _all_subgroups(sorted(sym_group(6).elements()), 6)


class TestPairEnumeration:
    def test_m2(self):
        enum = enumerate_small_subgroup_pairs(2)
        assert enum.total_subgroups == 10
        assert len(enum.pairs) == 5
        assert enum.row1_matched

    def test_m3(self):
        enum = enumerate_small_subgroup_pairs(3)
        assert enum.total_subgroups == 98
        assert len(enum.pairs) == 10
        assert enum.row1_matched
        # the data settles the row-2 discrepancy between the two small
        # tables: the even-flip semidirect X occurs, the flips-only X never
        assert enum.table4_row2_matched
        assert not enum.table3_row2_matched

    @pytest.mark.parametrize("m, pairs", [(2, 5), (3, 10)])
    def test_every_x_is_normal_in_its_y(self, m, pairs):
        from smallmotion.permcore import reduce_generators
        enum = enumerate_small_subgroup_pairs(m)
        assert len(enum.pairs) == pairs
        for x_elems, y_elems in enum.pairs:
            assert x_elems <= y_elems
            y = reduce_generators(2 * m, y_elems)
            for x in x_elems:
                for g in y.generators:
                    assert x.conjugate(g) in x_elems
