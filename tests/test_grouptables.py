"""Concrete group families, table data, and the two classifiers."""

import dataclasses
import functools
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (TABLE3, block_system_containing_support,
                     block_systems_all_beta, closure, imprimitive_groups,
                     is_2_transitive, match_table1_row, match_table2_row,
                     match_table4_row, pair_projection, report_by_search,
                     small_supports_by_collection,
                     subgroups_by_cyclic_joins, two_two_classes,
                     two_two_witnesses_by_collection)
from smallmotion import grouptables
from smallmotion.autengine import automorphism_group, motion_witness
from smallmotion.classify import CorpusSpec, corpus_generators
from smallmotion.grouptables import (TABLE1, TABLE2, TABLE4,
                                     GroupSpec, PCycleReport,
                                     _all_subgroups, _candidate_specs,
                                     _find_p_cycle, _match_row,
                                     _size2_blocks, _two_two_classes, agl1,
                                     agl_d2, alt_group,
                                     c2_wr_sym,
                                     check_table_row, classify_22_group,
                                     classify_p_cycle_group, construct,
                                     cyclic_group, dihedral_group,
                                     enumerate_small_subgroup_pairs,
                                     even_flips, even_flips_rtimes_sym,
                                     family_order, one_cross_sym,
                                     pair_references,
                                     pgl2, pgl3_2, psl2,
                                     recognize_family,
                                     superflip, sym_group, tau_cross_sym)
from smallmotion.permcore import (MAX_AGL_DIMENSION, MAX_FIELD_PRIME,
                                  BlockSystem, PermGroup, Permutation,
                                  _is_prime,
                                  is_two_two, permutation_isomorphic)
from smallmotion.wreath import top_group_element, top_part, wreath_product

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
    if grp.is_transitive() and any(map(
            is_two_two, small_supports_by_collection(grp.chain, 4, False))):
        out.append(classify_22_group(grp).witness)
    return out


def random_wreath_subgroups(rng, shapes):
    """Endless random subgroups of Sym(a) wr Sym(b), (a, b) drawn from
    shapes, each generated by two random elements and relabelled."""
    while True:
        a, b = rng.choice(shapes)
        n = a * b
        relabel = Permutation(rng.sample(range(n), n))
        gens = []
        for _ in range(2):
            top = rng.sample(range(b), b)
            inner = [rng.sample(range(a), a) for _ in range(b)]
            gens.append(Permutation([top[j] * a + inner[j][i] for j in
                                     range(b) for i in range(a)]))
        yield PermGroup(n, [g.conjugate(relabel) for g in gens])


WREATH_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 8), (2, 5),
                 (5, 2)]


def two_two_groups(seed, count):
    """count random transitive subgroups of Sym(a) wr Sym(b), degree <= 10,
    that hold a 2^2-element."""
    pool = (grp for grp in random_wreath_subgroups(random.Random(seed),
                                                   WREATH_SHAPES)
            if grp.is_transitive()
            and any(map(is_two_two,
                        small_supports_by_collection(grp.chain, 4, False))))
    return list(itertools.islice(pool, count))


def random_transitive_group(seed):
    """The first transitive group of ``random_wreath_subgroups``."""
    return next(grp for grp in random_wreath_subgroups(
        random.Random(seed), WREATH_SHAPES) if grp.is_transitive())


MOTION4_GRAPHS = {label: graph for label, graph in
                  corpus_generators(CorpusSpec(circulant_max=16))
                  if graph.n and motion_witness(graph)[0] == 4}
MOTION4_LABELS = sorted(MOTION4_GRAPHS)


@functools.cache
def motion4_aut(label):
    return automorphism_group(MOTION4_GRAPHS[label]).group


def relabelled_motion4_aut(case):
    """The Aut group of a motion-4 corpus graph, its points relabelled."""
    label, rng = case
    grp = motion4_aut(label)
    f = Permutation(rng.sample(range(grp.degree), grp.degree))
    return PermGroup(grp.degree, [g.conjugate(f) for g in grp.generators])


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

    @pytest.mark.parametrize("make", [sym_group, alt_group])
    def test_degree_must_be_positive(self, make):
        for n in (0, -1):
            with pytest.raises(ValueError, match="degree must be positive"):
                make(n)
        assert make(1).degree == 1 and make(1).order() == 1

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
        translations = [g for g in oracles.elements(grp)
                        if all((g(v) ^ g(0)) == v for v in range(8))]
        assert len(translations) == 8

    def test_every_candidate_constructs(self):
        """Family recognition offers only groups the constructors build:
        every candidate of degree 1 to 30, past both field limits."""
        for d in range(1, 31):
            for spec in _candidate_specs(d):
                assert construct(spec).degree == d, spec

    def test_constructors_reject_the_next_prime_and_dimension(self):
        q = next(q for q in itertools.count(MAX_FIELD_PRIME + 1)
                 if _is_prime(q))
        for make in (agl1, psl2, pgl2):
            assert make(MAX_FIELD_PRIME).order() > 1
            with pytest.raises(ValueError,
                               match=f"^need a prime p <= {MAX_FIELD_PRIME}$"):
                make(q)
        assert agl_d2(MAX_AGL_DIMENSION).degree == 2 ** MAX_AGL_DIMENSION
        with pytest.raises(ValueError,
                           match=f"^need 1 <= d <= {MAX_AGL_DIMENSION}$"):
            agl_d2(MAX_AGL_DIMENSION + 1)
        assert {spec.family for spec in _candidate_specs(q)} & \
            {"AGL1", "PSL2", "PGL2"} == set()
        assert {spec.family for spec in _candidate_specs(q + 1)} & \
            {"PSL2", "PGL2"} == set()
        assert "AGLd2" not in {spec.family for spec in _candidate_specs(
            2 ** (MAX_AGL_DIMENSION + 1))}

    def test_construct_dispatch_and_metadata_rows(self):
        """Families named only in the tables have no constructor."""
        assert construct(GroupSpec("Sym", (4,))).order() == 24
        for family in ("M11", "M12", "M23", "M24", "PGammaL", "AGammaL",
                       "AGL1_2a", "Frobble"):
            with pytest.raises(ValueError, match="unknown family"):
                construct(GroupSpec(family, ()))


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

    @pytest.mark.parametrize("row", [r for r in TABLE1 if r.x_spec is None],
                             ids=lambda r: f"row{r.index}")
    def test_check_table_row_rejects_metadata_rows(self, row):
        with pytest.raises(ValueError, match=f"^table 1 row {row.index} "
                                             r"\(.*\) is metadata only"):
            check_table_row(row)


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
        assert top_part(2, superflip(m)).is_identity()
        # every element of Sym(2) wr Sym(m) keeps the pairs, so
        # enumerate_small_subgroup_pairs reads a projection off each
        for m in (2, 3, 4):
            elements = list(oracles.elements(c2_wr_sym(m)))
            assert len(elements) == 2 ** m * math.factorial(m)
            assert all(top_part(2, g) == pair_projection(m, g)
                       for g in elements)


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

    def test_family_orders_match_constructed_groups(self):
        """The closed-form order of every candidate of degree 1 to 24."""
        for d in range(1, 25):
            for spec in _candidate_specs(d):
                assert family_order(spec) == construct(spec).order(), spec

    @pytest.mark.parametrize("group, spec", [
        (agl1(7), GroupSpec("AGL1", (7,))),
        (sym_group(10), GroupSpec("Sym", (10,)))])
    def test_only_candidates_of_equal_order_are_built(self, group, spec,
                                                       monkeypatch):
        built = []

        def counting(candidate):
            built.append(candidate)
            return construct(candidate)

        monkeypatch.setattr(grouptables, "construct", counting)
        assert recognize_family(group) == spec
        assert built == [spec]


PAIR_REFERENCES = (one_cross_sym, tau_cross_sym, even_flips,
                   even_flips_rtimes_sym, c2_wr_sym)


def relabelled(grp, seed):
    """grp conjugated by a random point bijection, on new generators."""
    f = Permutation(random.Random(seed).sample(range(grp.degree), grp.degree))
    return PermGroup(grp.degree, [g.conjugate(f) for g in grp.generators])


def chain_snapshot(grp):
    """The generators, chain base, strong generators per level and order."""
    chain = grp.chain
    return (tuple(g.images for g in grp.generators), tuple(chain.base),
            tuple(tuple(g.images for g in level) for level in chain._gens),
            grp.order())


@st.composite
def relabelled_family_members(draw):
    """A family candidate of degree 2 to 10, conjugated by a random point
    bijection."""
    spec = draw(st.sampled_from(_candidate_specs(draw(st.integers(2, 10)))))
    return relabelled(construct(spec), draw(st.integers(0, 2 ** 32)))


class TestSharedReferences:
    """Family candidates and pair-table references are built once per
    process and shared; no classifier extends their chains."""

    def test_each_reference_is_built_once(self):
        for d in range(1, 13):
            for spec in _candidate_specs(d):
                assert construct(spec) is construct(spec), spec
        for make in PAIR_REFERENCES:
            for m in (2, 3, 4):
                assert make(m) is make(m), (make.__name__, m)
        for m in (2, 3):
            shared = pair_references(m)
            assert shared is pair_references(m)
            assert [(name, ref) for name, ref, _ in shared] == \
                [(make.__name__, make(m)) for make in PAIR_REFERENCES]
            assert all(elems == frozenset(oracles.elements(ref))
                       for _, ref, elems in shared)

    def test_classifiers_leave_the_references_intact(self):
        refs = [construct(spec) for d in range(2, 13)
                for spec in _candidate_specs(d)]
        refs += [make(m) for make in PAIR_REFERENCES for m in (2, 3)]
        shared = [pair_references(m) for m in (2, 3)]
        snapshots = []
        for i, ref in enumerate(refs):
            assert permutation_isomorphic(relabelled(ref, i), ref) is not None
            snapshots.append(chain_snapshot(ref))
        for grp in (wreath_product(agl1(5), sym_group(2)),
                    wreath_product(alt_group(4), sym_group(2)),
                    wreath_product(psl2(5), sym_group(2)), pgl2(7)):
            classify_p_cycle_group(relabelled(grp, 1))
        for make in (tau_cross_sym, even_flips_rtimes_sym):
            rep = classify_22_group(relabelled(make(3), 2))
            assert rep.tag == "case_cross"
            assert f"Y matches {make.__name__}" in rep.notes
        enumerate_small_subgroup_pairs(3)
        for d in range(2, 13):
            for spec in _candidate_specs(d):
                member = relabelled(construct(spec), d)
                assert family_order(recognize_family(member)) == \
                    family_order(spec)
        assert [chain_snapshot(ref) for ref in refs] == snapshots
        assert [pair_references(m) for m in (2, 3)] == shared
        assert all(elems == frozenset(oracles.elements(ref))
                   for table in shared for _, ref, elems in table)

    @settings(max_examples=40, deadline=None)
    @given(relabelled_family_members())
    def test_warm_recognition_matches_fresh_references(self, member):
        """recognize_family on the shared references names the first
        candidate of equal order that a freshly built one matches."""
        recognize_family(member)
        fresh = next(spec for spec in _candidate_specs(member.degree)
                     if family_order(spec) == member.order() and
                     permutation_isomorphic(
                         member, construct.__wrapped__(spec)) is not None)
        assert recognize_family(member) == fresh


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


class TestRowRules:
    """Each row's rule names the row the per-table matchers of
    ``oracles`` name, for every prime p <= 23, every block size m <= 24
    and X, Y among the families of degree m or unrecognised (None)."""

    @staticmethod
    def cases():
        for m in range(1, 25):
            specs = _candidate_specs(m) + [None]
            for p in filter(_is_prime, range(2, 24)):
                for x, y in itertools.product(specs, repeat=2):
                    yield p, m, x, y

    def test_table1(self):
        for p, m, x, y in self.cases():
            assert _match_row(TABLE1, p, m, x and x.family, y and y.family) \
                is match_table1_row(p, m, x, y, x and construct(x))

    def test_table2(self):
        for p, m, x, y in self.cases():
            assert _match_row(TABLE2, p, m, x and x.family, y and y.family) \
                is match_table2_row(x, y)

    def test_table4(self):
        names = [make.__name__ for make in (
            one_cross_sym, tau_cross_sym, even_flips, even_flips_rtimes_sym,
            c2_wr_sym)] + [None]
        for m in range(2, 25):
            for x, y in itertools.product(names, repeat=2):
                assert _match_row(TABLE4, None, m, x, y) \
                    is match_table4_row(y)

    def test_metadata_rows_match_nothing(self):
        for row in TABLE1 + TABLE2 + TABLE4:
            if not row.constructible and row.table != 4:
                assert not any(row.matches(*case) for case in self.cases())


class TestTwoTwoClasses:
    """The 2^2 classes, listed from the least members ``_least_supports``
    finds, equal those of the search of the whole group
    (``oracles.two_two_classes``)."""

    def test_table2_samples(self):
        for row in TABLE2:
            for params in row.sample_params:
                _, _, x, y = row.x_spec(*params)
                for grp in (x, y):
                    assert _two_two_classes(grp) == two_two_classes(grp)

    @settings(max_examples=60, deadline=None)
    @given(imprimitive_groups().filter(PermGroup.is_transitive))
    def test_transitive_groups(self, grp):
        assert _two_two_classes(grp) == two_two_classes(grp)

    @settings(max_examples=60, deadline=None)
    @given(imprimitive_groups().filter(lambda grp: not grp.is_transitive()))
    def test_intransitive_groups(self, grp):
        assert _two_two_classes(grp) == two_two_classes(grp)


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

    def test_unmatched_group_is_reported_verbatim(self):
        """AGL1(8) wr Sym(2) at p = 7: X = Y = AGL1(8), of order 56 and
        no constructible family, so no Table 1 row and no prediction."""
        # F_8 = F_2[a]/(a^3 + a + 1), each element a bit mask over 1, a, a^2
        plus_one = Permutation([v ^ 1 for v in range(8)])
        times_a = Permutation([(v << 1) ^ (0b1011 if v & 4 else 0)
                               for v in range(8)])
        agl1_8 = PermGroup(8, [plus_one, times_a])
        rep = classify_p_cycle_group(wreath_product(agl1_8, sym_group(2)), 7)
        assert (rep.p, rep.m, rep.k) == (7, 8, 2)
        assert rep.x_group.order() == rep.y_group.order() == 56
        assert rep.x_family is None and rep.y_family is None
        assert rep.row is None and rep.predicted_mindeg_is_p is None
        assert rep.notes == ["no table row matched; groups reported verbatim"]

    def test_alt_wreath_above_p3_names_no_value(self):
        """Alt(5) wr Sym(2) at p = 5 meets row 2, whose condition p3_and_C
        predicts the minimal degree is not p without naming it."""
        g = wreath_product(alt_group(5), sym_group(2))
        rep = classify_p_cycle_group(g, 5)
        assert rep.row is TABLE1[1] and rep.row.condition == "p3_and_C"
        assert rep.cond_c is True and rep.predicted_mindeg_is_p is False
        assert rep.notes == [
            "table predicts mindeg != p without naming a value"]
        assert g.minimal_degree() == 3

    @pytest.mark.parametrize("condition, p, cond_c, predicted", [
        ("always", 2, None, True), ("never", 7, True, False),
        ("cond_C", 5, True, True), ("cond_C", 5, False, False),
        ("cond_C", 5, None, False), ("p3_and_C", 3, True, True),
        ("p3_and_C", 3, False, False), ("p3_and_C", 5, True, False)])
    def test_prediction_of_each_condition(self, condition, p, cond_c,
                                          predicted):
        row = next(r for r in TABLE1 if r.condition == condition)
        assert row.predicts_p(p, cond_c) is predicted

    def test_one_setwise_scan_per_block(self, monkeypatch):
        g = wreath_product(sym_group(3), sym_group(2))
        calls = count_block_stabilizers(monkeypatch)
        rep = classify_p_cycle_group(g, 2)
        assert rep.k == 2 and rep.row is TABLE1[0]
        assert len(calls) == 1

    def test_condition_c_on_17_points(self):
        """Sym(17) wr Sym(2): condition (C) compares two copies of
        Sym(17) on 17 points."""
        rep = classify_p_cycle_group(
            wreath_product(sym_group(17), sym_group(2)), 2)
        assert rep.cond_c is True
        assert rep.x_family == rep.y_family == GroupSpec("Sym", (17,))
        assert rep.row is TABLE1[0]

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
        groups = random_wreath_subgroups(
            rng, [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 7)])
        tested = 0
        while tested < 40:
            grp = next(groups)
            n = grp.degree
            p = rng.choice([2, 3, 5, 7])
            if not grp.is_transitive() or _find_p_cycle(grp, p) is None:
                continue
            tested += 1
            supp = _find_p_cycle(grp, p).support()
            bs = block_system_containing_support(grp, supp)
            block = next(b for b in bs.blocks if supp <= set(b)) if bs \
                else tuple(range(n))
            assert tuple(sorted(grp._block_closure(supp))) == block
            rep = classify_p_cycle_group(grp, p)
            assert (rep.m, rep.k) == (len(block), n // len(block))


def one_indexed(n, *cycles):
    return Permutation.from_cycles(n, [[v - 1 for v in c] for c in cycles])


M11 = PermGroup(11, [one_indexed(11, range(1, 12)),
                     one_indexed(11, (3, 7, 11, 8), (4, 10, 5, 6))])
M23 = PermGroup(23, [one_indexed(23, range(1, 24)),
                     one_indexed(23, (3, 17, 10, 7, 9), (4, 13, 14, 19, 5),
                                 (8, 18, 11, 12, 23), (15, 20, 22, 21, 16))])


class TestPointStabilizerReach:
    """Searches of transitive groups walk the point stabilizer, which puts
    these under the default SMALLMOTION_CAP."""

    def test_m23_minimal_degree(self, monkeypatch):
        monkeypatch.delenv("SMALLMOTION_CAP", raising=False)
        assert M23.order() == 10200960
        mindeg, witness = M23.minimal_degree_witness()
        assert mindeg == 16 and witness.cycle_type() == (2,) * 8
        assert witness in M23

    def test_m11_wreath_eleven_cycle(self, monkeypatch):
        monkeypatch.delenv("SMALLMOTION_CAP", raising=False)
        grp = wreath_product(M11, sym_group(2))
        x = _find_p_cycle(grp, 11)
        assert x.cycle_type() == (11,) and x in grp


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

    def test_size2_blocks_are_the_size2_systems(self):
        """For random 2^2-elements x, the size-2 blocks through min supp(x)
        found from its three pairings give exactly the size-2 systems the
        all-beta oracle lists; the other two support points form a block
        of the same system, the image of a crosswise block under x; and the
        pairings that are blocks number 0, 1 or 3, with 3 only when supp(x)
        is itself a block."""
        rng = random.Random(5)
        with_size2 = 0
        for grp in two_two_groups(5, 150):
            elems = sorted(filter(is_two_two, small_supports_by_collection(
                grp.chain, 4, False)))
            for x in rng.sample(elems, min(3, len(elems))):
                (a1, a2), _ = x.cycles()
                pairs = _size2_blocks(grp, x)
                want = {bs.blocks for bs in block_systems_all_beta(grp)
                        if len(bs.blocks[0]) == 2}
                got = {BlockSystem.from_blocks(grp.degree, classes).blocks
                       for classes, _ in pairs}
                assert got == want
                with_size2 += bool(want)
                for classes, kind in pairs:
                    blk = frozenset(classes[0])
                    assert BlockSystem.from_blocks(grp.degree, classes) == \
                        grp.block_system_from(blk)
                    (c,) = blk - {a1}
                    assert kind == ("flips" if c == a2 else "crosswise")
                    rest = tuple(sorted(x.support() - blk))
                    assert rest in grp.block_system_from(blk).blocks
                    image = frozenset(map(x, blk))
                    assert image == (blk if kind == "flips" else set(rest))
                assert len(pairs) != 2
                if len(pairs) == 3:
                    assert grp._block_closure(x.support()) == x.support()
        assert with_size2 > 50

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(0, 2**32).map(random_transitive_group),
                     st.tuples(st.sampled_from(MOTION4_LABELS),
                               st.randoms(use_true_random=False))
                     .map(relabelled_motion4_aut)))
    def test_first_hits_match_collection(self, grp):
        """x and small, the first 2^2-element of ``_least_supports(4)`` and
        the first element of ``_least_supports(3)``, are the minima of the
        whole bound-4 list (``two_two_witnesses_by_collection``) and of a
        collection from the whole group; the report takes small when there
        is one, else x, and there is no report without x."""
        want = two_two_witnesses_by_collection(grp)
        elems = small_supports_by_collection(grp.chain, 4, False)
        assert want == (next(filter(is_two_two, elems), None),
                        next((g for g in elems if len(g.support()) < 4),
                             None))
        x, small = want
        assert (next(filter(is_two_two, grp._least_supports(4)), None),
                next(grp._least_supports(3), None)) == want
        if x is None:
            with pytest.raises(ValueError, match="no order-2 support-4"):
                classify_22_group(grp)
            return
        rep = classify_22_group(grp)
        assert (rep.tag == "small_mindeg") == (small is not None)
        assert rep.witness == (x if small is None else small)

    def test_first_hits_on_motion4_aut_groups(self):
        """On the Aut group of every motion-4 graph of
        ``CorpusSpec(circulant_max=16)``, in its own labelling, the oracle
        finds x and no smaller support, and the report's witness is x, the
        graph's motion witness too."""
        for label in MOTION4_LABELS:
            grp = motion4_aut(label)
            x, small = two_two_witnesses_by_collection(grp)
            assert x is not None and small is None, label
            rep = classify_22_group(grp)
            assert rep.tag != "small_mindeg", label
            assert rep.witness == x == \
                motion_witness(MOTION4_GRAPHS[label])[1], label

    def test_witness_block_is_the_pair_scan_block(self):
        """The classifier branches as the first-proper-pair-closure scan
        (the oracle) does: the primitive-block case on the scan's block,
        which is the witness block closure(supp(x)); with no such block,
        on the whole set of a primitive group; otherwise the paired-blocks
        case.  The witness block is proper without the scan's block only
        when all three pairings of supp(x) are blocks."""
        prim = cross = 0
        for grp in two_two_groups(11, 150):
            rep = classify_22_group(grp)
            if rep.tag == "small_mindeg":
                continue
            x, n = rep.witness, grp.degree
            block = grp._block_closure(x.support())
            bs = block_system_containing_support(grp, x.support())
            if bs is not None:
                assert block in map(frozenset, bs.blocks)
                assert (rep.tag, rep.m, rep.k) == \
                    ("case_prim", len(block), len(bs.blocks))
            elif grp.is_primitive():
                assert (rep.tag, rep.m, rep.k) == ("case_prim", n, 1)
            else:
                assert rep.tag == "case_cross"
                assert len(block) == n or len(_size2_blocks(grp, x)) == 3
            prim += rep.tag == "case_prim"
            cross += rep.tag == "case_cross"
        assert prim and cross

    def test_klein_support_block_is_crosswise(self):
        """In V4 wr Sym(2), V4 the regular Klein four-group, supp(x) is a
        block, but no closure of a pair in it holds supp(x): all three
        pairings are blocks, and x pairs the size-2 blocks crosswise."""
        v4 = PermGroup(4, [Permutation.from_cycles(4, [[0, 1], [2, 3]]),
                           Permutation.from_cycles(4, [[0, 2], [1, 3]])])
        grp = wreath_product(v4, sym_group(2))
        rep = classify_22_group(grp)
        x = rep.witness
        assert len(grp._block_closure(x.support())) == 4
        assert block_system_containing_support(grp, x.support()) is None
        assert len(_size2_blocks(grp, x)) == 3
        assert (rep.tag, rep.m, rep.k) == ("case_cross", 4, 4)
        assert rep.notes[0] == "witness acts crosswise on the size-2 blocks"
        (a1, _), (b1, _) = x.cycles()
        assert tuple(sorted((a1, b1))) in rep.pair_blocks

    def test_paired_blocks_above_the_isomorphism_cap(self):
        """E+ : Alt(9) on 18 points is none of the paired-blocks
        references: every reference has another order."""
        m = 9
        top = [top_group_element(2, g) for g in alt_group(m).generators]
        grp = PermGroup(2 * m, list(even_flips(m).generators) + top)
        rep = classify_22_group(grp)
        assert (rep.tag, rep.m, rep.row) == ("case_cross", m, None)
        assert rep.notes == ["witness acts flips on the size-2 blocks"]

    @pytest.mark.parametrize("make", [even_flips_rtimes_sym, tau_cross_sym],
                             ids=lambda make: make.__name__)
    def test_paired_blocks_on_18_points(self, make):
        """The Table-2 groups at m = 9, relabelled: Y is named by a
        permutation isomorphism of degree 18."""
        grp = make(9)
        f = Permutation(random.Random(3).sample(range(18), 18))
        rep = classify_22_group(
            PermGroup(18, [g.conjugate(f) for g in grp.generators]))
        assert (rep.tag, rep.m) == ("case_cross", 9)
        assert f"Y matches {make.__name__}" in rep.notes

    def test_paired_blocks_lookalike_is_fast(self):
        """A degree-10 group whose Y has the order of E+ : Sym(5) without
        being permutation isomorphic to it; the backtrack oracle
        ``permutation_isomorphic_backtrack`` takes about 52 s here."""
        grp = PermGroup(10, [Permutation([5, 8, 7, 0, 6, 9, 4, 1, 2, 3]),
                             Permutation([1, 8, 6, 4, 0, 9, 7, 5, 3, 2])])
        start = time.perf_counter()
        rep = classify_22_group(grp)
        assert time.perf_counter() - start < 5
        assert rep.tag == "case_cross"
        assert rep.y_group.order() == even_flips_rtimes_sym(5).order()
        assert rep.notes == ["witness acts flips on the size-2 blocks"]


def table_sample_cases():
    """(group, classifier, args) for each group the table checks build:
    X wr Sym(2) and Y wr Sym(2) of every Table 1 sample, with its p, and
    every Table 2 sample's X and Y, alone and wreathed with Sym(2)."""
    cases = []
    for row in TABLE1:
        for params in row.sample_params:
            p, _, x, y = row.x_spec(*params)
            cases += [(wreath_product(inner, sym_group(2)),
                       classify_p_cycle_group, (p,)) for inner in (x, y)]
    for row in TABLE2:
        for params in row.sample_params:
            _, _, x, y = row.x_spec(*params)
            cases += [(grp, classify_22_group, ()) for inner in (x, y)
                      for grp in (inner, wreath_product(inner, sym_group(2)))]
    return cases


TABLE_SAMPLE_CASES = table_sample_cases()
WREATH_SAMPLES = [wreath_product(inner, sym_group(k)) for inner, k in (
    (cyclic_group(3), 2), (sym_group(3), 2), (agl1(5), 2), (alt_group(4), 2),
    (dihedral_group(4), 2), (cyclic_group(2), 3), (sym_group(2), 4))]


def report_fields(rep):
    """Every field of a classifier report, a group as the image tuples of
    its generators and its order."""
    return {f.name: ([g.images for g in v.generators], v.order())
            if isinstance(v, PermGroup) else v
            for f in dataclasses.fields(rep) for v in [getattr(rep, f.name)]}


def assert_matches_search_route(group, classify, args):
    """classify's report equals, field by field, the one whose sandwich
    and condition (C) come from ``oracles.sandwich_by_search``."""
    rep = classify(group, *args)
    old, conditions = report_by_search(classify, group, *args)
    assert report_fields(rep) == report_fields(old)
    if isinstance(rep, PCycleReport):
        assert conditions == ([] if rep.cond_c is None else [rep.cond_c])
    return rep


@st.composite
def sandwich_cases(draw):
    """A relabelled table sample with its classifier, or a transitive
    group from ``imprimitive_groups`` with each classifier that applies."""
    if draw(st.booleans()):
        group, classify, args = draw(st.sampled_from(TABLE_SAMPLE_CASES))
        return [(relabelled(group, draw(st.integers(0, 2 ** 32))), classify,
                 args)]
    group = draw(imprimitive_groups().filter(PermGroup.is_transitive))
    cases = []
    if _find_p_cycle(group, None) is not None:
        cases.append((group, classify_p_cycle_group, ()))
    if any(map(is_two_two,
               small_supports_by_collection(group.chain, 4, False))):
        cases.append((group, classify_22_group, ()))
    return cases


@st.composite
def witness_blocks(draw):
    """A transitive group, from ``imprimitive_groups`` or a relabelled
    wreath product; a witness x, its least prime cycle or its least
    2^2-element; and the smallest block holding supp(x)."""
    if draw(st.booleans()):
        group = relabelled(draw(st.sampled_from(WREATH_SAMPLES)),
                           draw(st.integers(0, 2 ** 32)))
    else:
        group = draw(imprimitive_groups().filter(PermGroup.is_transitive))
    witnesses = [x for x in (_find_p_cycle(group, None), min(filter(
        is_two_two, small_supports_by_collection(group.chain, 4, False)),
        default=None)) if x is not None]
    assume(witnesses)
    x = draw(st.sampled_from(witnesses))
    return group, tuple(sorted(group._block_closure(x.support()))), x


class TestSandwich:
    """The sandwich X <= Y is closed in the block's degree, Y = X and
    condition (C) are decided by membership, and the reports equal those
    of the route that searched every group."""

    @settings(max_examples=60, deadline=None)
    @given(witness_blocks())
    def test_closure_in_y_is_the_restricted_closure_in_g_b(self, case):
        group, block, x = case
        g_block = group.block_stabilizer(block)
        closure_gens = g_block.normal_closure(x).generators
        outside = [v for v in range(group.degree) if v not in block]
        assert all(h(v) == v for h in closure_gens for v in outside)
        x_grp = grouptables._sandwich(group, block, x)[0]
        assert [h.images for h in x_grp.generators] == \
            [tuple(block.index(h(v)) for v in block) for h in closure_gens]

    def test_table_samples_match_the_search_route(self):
        """Every table sample, relabelled; among them are sandwiches with
        Y != X and groups that fail condition (C)."""
        outcomes = set()
        for i, case in enumerate(TABLE_SAMPLE_CASES):
            group, classify, args = case
            rep = assert_matches_search_route(relabelled(group, i), classify,
                                              args)
            if rep.x_group is not None and rep.y_group is not None:
                outcomes.add(rep.x_group.order() == rep.y_group.order())
            outcomes.add(("C", getattr(rep, "cond_c", None)))
        assert {False, True, ("C", False), ("C", True)} <= outcomes

    @settings(max_examples=60, deadline=None)
    @given(sandwich_cases())
    @example([(wreath_product(agl1(5), sym_group(2)), classify_p_cycle_group,
               (5,))])                                    # Y != X, no (C)
    @example([(PermGroup(6, [Permutation([5, 2, 1, 4, 0, 3]),
                             Permutation([2, 5, 1, 4, 3, 0])]),
               classify_p_cycle_group, ())])              # Y != X, (C)
    def test_reports_match_the_search_route(self, cases):
        for case in cases:
            assert_matches_search_route(*case)

    @pytest.mark.parametrize("group, classify, args", [
        (wreath_product(sym_group(3), sym_group(2)), classify_p_cycle_group,
         (2,)),
        (wreath_product(cyclic_group(5), sym_group(2)),
         classify_p_cycle_group, (5,)),
        (wreath_product(psl2(5), sym_group(2)), classify_22_group, ())],
        ids=["Sym3 wr S2", "C5 wr S2", "PSL2(5) wr S2"])
    def test_y_equal_to_x_is_recognised_once(self, group, classify, args,
                                             monkeypatch):
        """When Y = X, the classifier recognises X alone, searches for a
        permutation isomorphism only inside that recognition, and builds
        no chain for Y or for condition (C)'s group: the restrictions."""
        recognized, restricted, searched = [], [], []
        recognize = grouptables.recognize_family
        search = grouptables.permutation_isomorphic
        restrict = PermGroup.restriction
        monkeypatch.setattr(grouptables, "recognize_family", lambda grp: (
            recognized.append(grp), recognize(grp))[1])
        monkeypatch.setattr(grouptables, "permutation_isomorphic",
                            lambda g1, g2: (searched.append(g1),
                                            search(g1, g2))[1])
        monkeypatch.setattr(PermGroup, "restriction", lambda grp, points: (
            restricted.append(restrict(grp, points)), restricted[-1])[1])
        rep = classify(relabelled(group, 5), *args)
        assert len(recognized) == 1 and recognized[0] is rep.x_group
        assert rep.x_family == rep.y_family is not None
        assert searched and all(g1 is rep.x_group for g1 in searched)
        assert any(grp is rep.y_group for grp in restricted)
        assert len(restricted) == (2 if classify is classify_p_cycle_group
                                   else 1)
        assert all(grp._chain is None for grp in restricted)


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


def canonical_sequence(elements, subgroup, degree):
    """Oracle: at each step the subgroup's least element, by index in
    ``elements``, outside the group the steps before it generate."""
    rank = {g: i for i, g in enumerate(elements)}
    sequence, generated = [], {Permutation.identity(degree)}
    while len(generated) < len(subgroup):
        sequence.append(min(subgroup - generated, key=rank.__getitem__))
        generated = closure(degree, sequence)
    return sequence


@st.composite
def small_relabelled_subgroups(draw):
    """A subgroup of Sym(5) or Sym(6) with at most 120 elements, on the
    longest prefix of 1-3 random cycles that keeps it that small,
    relabelled by a random point bijection; its elements come shuffled."""
    degree = draw(st.sampled_from([5, 6]))
    cycle = st.lists(st.integers(0, degree - 1), min_size=2, unique=True)
    gens = draw(st.lists(cycle.map(
        lambda c: Permutation.from_cycles(degree, [c])), min_size=1,
        max_size=3))
    while PermGroup(degree, gens).order() > 120:
        gens.pop()
    grp = relabelled(PermGroup(degree, gens), draw(st.integers(0, 2 ** 32)))
    elements = list(oracles.elements(grp))
    draw(st.randoms(use_true_random=False)).shuffle(elements)
    return elements, degree


class TestSubgroupLattice:
    C2_CUBED = PermGroup(6, [Permutation.from_cycles(6, [[2 * i, 2 * i + 1]])
                             for i in range(3)])

    @staticmethod
    def checked_subgroups(elements, degree):
        """The element sets of ``_all_subgroups``, once each subgroup's
        kept generators are checked to be its canonical sequence, which
        lies in it and generates it."""
        got = _all_subgroups(elements, degree)
        for subgroup, gens in got:
            assert set(gens) <= subgroup
            assert PermGroup(degree, gens).order() == len(subgroup)
            assert gens == canonical_sequence(elements, subgroup, degree)
        return [subgroup for subgroup, _ in got]

    # A4's Klein subgroup is the join of two cyclic subgroups, not cyclic
    @pytest.mark.parametrize("grp, total", [
        (sym_group(3), 6), (dihedral_group(4), 10), (alt_group(4), 10),
        (C2_CUBED, 16)])
    def test_all_subgroups_match_subset_scan(self, grp, total):
        elements = sorted(oracles.elements(grp))
        assert elements[0].is_identity()
        got = self.checked_subgroups(elements, grp.degree)
        assert len(got) == len(set(got)) == total
        assert set(got) == subgroups_by_subset_scan(elements)

    @pytest.mark.parametrize("grp, total", [
        (c2_wr_sym(3), 98), (sym_group(4), 30), (alt_group(5), 59),
        (dihedral_group(6), 16), (agl1(5), 14)])
    def test_all_subgroups_match_cyclic_joins(self, grp, total):
        elements = sorted(oracles.elements(grp))
        got = self.checked_subgroups(elements, grp.degree)
        assert len(got) == len(set(got)) == total
        assert set(got) == subgroups_by_cyclic_joins(elements, grp.degree)
        assert got == sorted(got, key=lambda s: (len(s),
                                                 sorted(p.images for p in s)))

    @settings(max_examples=12, deadline=None)
    @given(small_relabelled_subgroups())
    def test_random_subgroups_match_cyclic_joins(self, case):
        elements, degree = case
        got = self.checked_subgroups(elements, degree)
        assert len(got) == len(set(got))
        assert set(got) == subgroups_by_cyclic_joins(elements, degree)

    @pytest.mark.parametrize("grp", [c2_wr_sym(3), sym_group(4), C2_CUBED])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_each_subgroup_extends_its_parent(self, grp, seed):
        """Every kept sequence is canonical, in sorted or shuffled element
        order, and without its last step it is the kept sequence of the
        subgroup it generates: each subgroup has one parent in the walk,
        so it is built once."""
        elements = sorted(oracles.elements(grp))
        if seed is not None:
            random.Random(seed).shuffle(elements)
        got = _all_subgroups(elements, grp.degree)
        kept = dict(got)
        for subgroup, gens in got:
            assert gens == canonical_sequence(elements, subgroup, grp.degree)
            if gens:
                parent = frozenset(closure(grp.degree, gens[:-1]))
                assert kept[parent] == gens[:-1]

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)],
                             ids=["no_identity", "not_closed"])
    def test_element_list_must_be_a_group(self, cut):
        elements = sorted(oracles.elements(sym_group(4)))[cut]
        with pytest.raises(RuntimeError,
                           match="subgroup closure leaves the element set"):
            _all_subgroups(elements, 4)


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

    @pytest.mark.parametrize("m", [2, 3])
    def test_enumeration_matches_the_recorded_one(self, m):
        """tests/data/subgroup_pairs.json pins the whole enumeration: each
        pair as the sorted image tuples of X and Y, with its matches,
        kernel tags and row flags."""
        path = Path(__file__).parent / "data" / "subgroup_pairs.json"
        want = json.loads(path.read_text())[str(m)]
        enum = enumerate_small_subgroup_pairs(m)
        assert enum.total_subgroups == want["total_subgroups"]
        assert [[[list(p.images) for p in sorted(s)] for s in pair]
                for pair in enum.pairs] == want["pairs"]
        assert [list(match) for match in enum.matches] == want["matches"]
        assert enum.kernels == want["kernels"]
        for flag in ("row1_matched", "table3_row2_matched",
                     "table4_row2_matched"):
            assert getattr(enum, flag) is want[flag]

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_x_is_the_normal_closure_of_a_witness(self, m):
        """The Xs paired with each Y are exactly the element sets of
        ``PermGroup.normal_closure`` of its witnesses, in family order."""
        enum = enumerate_small_subgroup_pairs(m)
        xs_of = {}
        for x_elems, y_elems in enum.pairs:
            xs_of.setdefault(y_elems, []).append(x_elems)
        for y_elems, xs in xs_of.items():
            y = PermGroup(2 * m, sorted(y_elems))
            closures = {frozenset(oracles.elements(y.normal_closure(x)))
                        for x in y_elems if is_two_two(x) and
                        top_part(2, x).cycle_type() == (2,)}
            assert len(xs) == len(closures) and set(xs) == closures
            assert xs == sorted(xs, key=lambda s: (len(s), sorted(
                p.images for p in s)))

    @pytest.mark.parametrize("m, pairs", [(2, 5), (3, 10)])
    def test_every_x_is_normal_in_its_y(self, m, pairs):
        enum = enumerate_small_subgroup_pairs(m)
        assert len(enum.pairs) == pairs
        for x_elems, y_elems in enum.pairs:
            assert x_elems <= y_elems
            y = PermGroup(2 * m, y_elems)
            for x in x_elems:
                for g in y.generators:
                    assert x.conjugate(g) in x_elems
