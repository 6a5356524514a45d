"""Graph containers, constructions, products, and serialization formats."""

import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from oracles import (FullPassPath, cartesian_product, coloured_isomorphism,
                     complete_bipartite, equitable_refinement,
                     from_graph6_by_columns, has_edge,
                     inf_graph_by_edges, is_automorphism,
                     is_invariant_partition, lex_product_by_edges,
                     matching_graph, neighbors, petersen_graph, px_graph,
                     refine_pass_sorted, relabel, seed_ids, spx_graph,
                     to_edge_list, to_graph6_by_columns, with_edge_removed)
from smallmotion.autengine import automorphism_group
from smallmotion.classify import CorpusSpec, corpus_generators
from smallmotion.graphcore import (Graph, InfParams,
                                   _maps_onto, _pass_keys, _refine_pass,
                                   _SourcePath,
                                   alternate_matching, antipodal_matching,
                                   are_isomorphic, canonical_connection_set,
                                   circulant_graph,
                                   complete_graph,
                                   cycle_graph, empty_graph,
                                   from_edge_list,
                                   from_graph6, inf_graph,
                                   invariant_graphs_under,
                                   lex_product, parse_graph,
                                   prism_graph, quotient_graph, to_graph6)
from smallmotion.grouptables import tau_cross_sym
from smallmotion.permcore import (BlockSystem, CapExceededError, PermGroup,
                                  Permutation)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    all_pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(all_pairs),
                         max_size=len(all_pairs)))
    return Graph.from_edges(n, [e for e, b in zip(all_pairs, mask) if b])


def _partition_of(colors):
    """A colouring as a set of cells, forgetting the colour ids."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return frozenset(frozenset(vs) for vs in cells.values())


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return g


def shrikhande_graph():
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1); vertex 4a+b."""
    steps = [(1, 0), (0, 1), (1, 1)]
    return Graph.from_edges(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                                 for a in range(4) for b in range(4)
                                 for x, y in steps])


class TestGraphBasics:
    def test_from_edges_and_queries(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert not has_edge(g, 0, 2)
        assert neighbors(g, 1) == [0, 2]
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.num_edges() == 2

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    @given(graphs())
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    @given(graphs(min_n=2))
    def test_complement_degrees(self, g):
        for v in range(g.n):
            assert g.degree(v) + g.complement().degree(v) == g.n - 1

    def test_relabel_is_action(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            p = Permutation(rng.sample(range(n), n))
            h = relabel(g, p)
            for u, v in itertools.combinations(range(n), 2):
                assert has_edge(g, u, v) == has_edge(h, p(u), p(v))

    def test_is_automorphism(self):
        c4 = cycle_graph(4)
        assert is_automorphism(c4, Permutation([1, 2, 3, 0]))
        assert not is_automorphism(c4, Permutation([1, 0, 2, 3]))

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, verts = g.induced_subgraph([0, 1, 2])
        assert verts == (0, 1, 2)
        assert sub.edges() == [(0, 1), (1, 2)]


class TestGraphValidation:
    def test_rejects_a_loop_row(self):
        with pytest.raises(ValueError, match="loops are not allowed"):
            Graph(2, [0b01, 0])

    def test_rejects_a_bit_out_of_range(self):
        with pytest.raises(ValueError, match="adjacency bit out of range"):
            Graph(2, [0b100, 0b000])

    def test_rejects_an_asymmetric_row(self):
        with pytest.raises(ValueError, match="adjacency must be symmetric"):
            Graph(3, [0b010, 0b000, 0b000])

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                             max_size=n))))
    def test_symmetry_check_matches_all_pairs(self, case):
        n, rows = case
        rows = [row & ~(1 << v) for v, row in enumerate(rows)]
        symmetric = all(bool(rows[u] >> v & 1) == bool(rows[v] >> u & 1)
                        for u in range(n) for v in range(n))
        if symmetric:
            assert Graph(n, rows).adj == tuple(rows)
        else:
            with pytest.raises(ValueError, match="must be symmetric"):
                Graph(n, rows)


class TestNeighbourLists:
    @given(graphs())
    def test_lists_are_the_neighbours(self, g):
        lists = g.neighbor_lists()
        assert g.neighbor_lists() is lists   # decoded once
        for v in range(g.n):
            assert list(lists[v]) == neighbors(g, v) == \
                [w for w in range(g.n) if has_edge(g, v, w)]

    def test_derived_graphs_decode_their_own_lists(self):
        g = petersen_graph()
        g.neighbor_lists()
        p = Permutation([(v + 3) % 10 for v in range(10)])
        for h in (relabel(g, p), g.complement(), with_edge_removed(g, 0, 1)):
            assert h != g
            assert [list(ns) for ns in h.neighbor_lists()] == \
                [[w for w in range(h.n) if has_edge(h, v, w)]
                 for v in range(h.n)]

    def test_pickled_graph_with_lists_compares_equal(self):
        g = cycle_graph(7)
        lists = g.neighbor_lists()
        h = pickle.loads(pickle.dumps(g))
        assert h == g and hash(h) == hash(g)
        assert h.neighbor_lists() == lists


class TestNamedFamilies:
    def test_complete_and_empty(self):
        assert complete_graph(5).num_edges() == 10
        assert empty_graph(5).num_edges() == 0
        assert complete_graph(4).complement() == empty_graph(4)

    def test_cycle(self):
        c6 = cycle_graph(6)
        assert c6.num_edges() == 6
        assert all(c6.degree(v) == 2 for v in range(6))

    def test_circulant_canonicalization(self):
        assert canonical_connection_set(8, [1, 7, 3]) == frozenset({1, 3})
        assert circulant_graph(8, [1, 7]) == cycle_graph(8)
        assert circulant_graph(5, [1, 2]) == complete_graph(5)

    def test_circulant_rejects_bad_set(self):
        with pytest.raises(ValueError):
            circulant_graph(6, [0])
        with pytest.raises(ValueError):
            circulant_graph(6, [6])
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                circulant_graph(n, [1])
        assert circulant_graph(1, []).n == 1

    def test_complete_bipartite_and_matching(self):
        k33 = complete_bipartite(3, 3)
        assert k33.num_edges() == 9
        m3 = matching_graph(3)
        assert m3.n == 6 and m3.num_edges() == 3
        assert all(m3.degree(v) == 1 for v in range(6))

    def test_petersen(self):
        p = petersen_graph()
        assert p.n == 10 and p.num_edges() == 15
        assert nx.is_isomorphic(to_nx(p), nx.petersen_graph())

    def test_prism(self):
        pr = prism_graph(4)
        assert are_isomorphic(pr, cartesian_product(complete_graph(4),
                                                    complete_graph(2)))


class TestProducts:
    def test_lex_product_edge_rule(self):
        rng = random.Random(2)
        for _ in range(10):
            delta = random_graph(rng, rng.randint(1, 4))
            theta = random_graph(rng, rng.randint(1, 4))
            g = lex_product(delta, theta)
            m = delta.n
            assert g.n == m * theta.n
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    bx, ix = divmod(x, m)
                    by, iy = divmod(y, m)
                    want = (has_edge(theta, bx, by) if bx != by
                            else has_edge(delta, ix, iy))
                    assert has_edge(g, x, y) == want

    def test_lex_against_networkx(self):
        rng = random.Random(3)
        for _ in range(10):
            delta = random_graph(rng, rng.randint(2, 4))
            theta = random_graph(rng, rng.randint(2, 4))
            ours = to_nx(lex_product(delta, theta))
            # networkx composes outer-first, so the roles swap
            theirs = nx.lexicographic_product(to_nx(theta), to_nx(delta))
            assert nx.is_isomorphic(ours, theirs)

    def test_cartesian_against_networkx(self):
        rng = random.Random(4)
        for _ in range(10):
            g1 = random_graph(rng, rng.randint(2, 4))
            g2 = random_graph(rng, rng.randint(2, 4))
            assert nx.is_isomorphic(
                to_nx(cartesian_product(g1, g2)),
                nx.cartesian_product(to_nx(g1), to_nx(g2)))

    def test_quotient(self):
        c6 = cycle_graph(6)
        q = quotient_graph(c6, [(0, 3), (1, 4), (2, 5)])
        assert are_isomorphic(q, cycle_graph(3))


class TestRowBuilds:
    """The products, quotients, fibre graphs and named families are
    written as adjacency rows; each equals its build from edge lists."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=0, max_n=7), graphs(min_n=0, max_n=7))
    def test_lex_product_matches_edge_build(self, delta, theta):
        assert lex_product(delta, theta).adj == \
            lex_product_by_edges(delta, theta).adj

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inf_graph_matches_edge_build(self, data):
        """Random sigma on 2k <= 8 vertices, a random pairing of them, both
        bits and m <= 4."""
        k = data.draw(st.integers(1, 4))
        sigma = data.draw(graphs(min_n=2 * k, max_n=2 * k))
        order = data.draw(st.permutations(range(2 * k)))
        pairs = BlockSystem.from_blocks(2 * k, zip(order[::2], order[1::2]))
        params = InfParams(*(data.draw(st.integers(0, 1)) for _ in "lk"),
                           data.draw(st.integers(2, 4)))
        assert inf_graph(params, sigma, pairs).adj == \
            inf_graph_by_edges(params, sigma, pairs).adj

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_quotient_matches_cross_edges(self, g, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n,
                                    max_size=g.n))
        parts = [[v for v in range(g.n) if labels[v] == c]
                 for c in sorted(set(labels))]
        want = Graph.from_edges(len(parts), [
            (i, j) for i, j in itertools.combinations(range(len(parts)), 2)
            if any(has_edge(g, u, v) for u in parts[i] for v in parts[j])])
        assert quotient_graph(g, parts).adj == want.adj

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_induced_subgraph_keeps_the_edges(self, g, data):
        verts = data.draw(st.sets(st.integers(0, g.n - 1)))
        sub, order = g.induced_subgraph(verts)
        assert order == tuple(sorted(verts))
        assert all(has_edge(sub, i, j) == has_edge(g, u, v)
                   for (i, u), (j, v) in itertools.product(enumerate(order),
                                                           repeat=2))

    def test_named_families_match_edge_builds(self):
        for n in range(9):
            assert complete_graph(n).adj == Graph.from_edges(
                n, itertools.combinations(range(n), 2)).adj
            assert matching_graph(n).adj == Graph.from_edges(
                2 * n, [(2 * i, 2 * i + 1) for i in range(n)]).adj
            assert prism_graph(n).adj == cartesian_product(
                complete_graph(n), complete_graph(2)).adj
            if n >= 3:
                assert cycle_graph(n).adj == Graph.from_edges(
                    n, [(i, (i + 1) % n) for i in range(n)]).adj


class TestPairPartition:
    """Pair partitions are block systems of pairs."""

    def test_pairs_and_validation(self):
        pp = alternate_matching(6)
        assert pp.blocks == ((0, 1), (2, 3), (4, 5))
        assert pp.block_of[4] == pp.block_of[5] != pp.block_of[1]
        assert pp.block_of[1] != pp.block_of[2]
        with pytest.raises(ValueError):
            BlockSystem.from_blocks(4, [(0, 1), (1, 2)])

    def test_antipodal(self):
        pp = antipodal_matching(6)
        assert pp.blocks == ((0, 3), (1, 4), (2, 5))

    def test_preserved_by(self):
        pp = alternate_matching(4)

        def preserves(images):
            return is_invariant_partition(PermGroup(4, [Permutation(images)]),
                                          pp)

        assert preserves([1, 0, 2, 3])
        assert preserves([2, 3, 0, 1])
        assert not preserves([0, 2, 1, 3])


class TestInfGraphs:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            InfParams(2, 0, 2)
        with pytest.raises(ValueError):
            InfParams(1, 0, 1)

    def test_fibre_structure(self):
        sigma = cycle_graph(4)
        pairs = alternate_matching(4)
        m = 3
        g = inf_graph(InfParams(1, 0, m), sigma, pairs)
        assert g.n == 4 * m
        # fibre i occupies [i*m, (i+1)*m); kappa=0 means fibres are cocliques
        for i in range(4):
            for a, b in itertools.combinations(range(i * m, (i + 1) * m), 2):
                assert not has_edge(g, a, b)

    def test_pairs_must_be_pairs_on_sigma(self):
        """A block system of triples, or of pairs on too few or too many
        points, is no pair partition of sigma."""
        params, sigma = InfParams(1, 0, 2), cycle_graph(6)
        for pairs in (BlockSystem.from_blocks(6, [(0, 1, 2), (3, 4, 5)]),
                      alternate_matching(4), alternate_matching(8)):
            with pytest.raises(ValueError):
                inf_graph(params, sigma, pairs)

    def test_kappa_makes_fibres_complete(self):
        sigma = cycle_graph(4)
        g = inf_graph(InfParams(1, 1, 2), sigma, alternate_matching(4))
        for i in range(4):
            assert has_edge(g, 2 * i, 2 * i + 1)

    def test_spx_identity(self):
        # the smallest split-praeger-xu style graph coincides with the
        # lambda=1, kappa=0 construction over an even cycle
        for r in (3, 4):
            spx = spx_graph(r)
            built = inf_graph(InfParams(1, 0, 2), cycle_graph(2 * r),
                              alternate_matching(2 * r))
            assert are_isomorphic(spx, built)

    def test_px_identity(self):
        for r in (3, 4, 5):
            assert are_isomorphic(px_graph(r),
                                  lex_product(empty_graph(2), cycle_graph(r)))


class TestInvariantGraphs:
    def test_orbits_give_distinct_graphs(self):
        z = tau_cross_sym(3)
        found = invariant_graphs_under(z)
        assert len(found) == len({g for g in found})
        for g in found:
            for gen in z.generators:
                assert is_automorphism(g, gen)

    def test_count_for_pair_swap_times_sym(self):
        # edge orbits of <tau> x Sym(m): within-fibre, matched cross,
        # unmatched cross -> 2^3 graphs including empty and complete
        z = tau_cross_sym(3)
        assert len(invariant_graphs_under(z)) == 8

    def test_pair_orbit_cap(self):
        # the trivial group on 7 points has 21 pair orbits
        with pytest.raises(CapExceededError, match="pair-orbits"):
            invariant_graphs_under(PermGroup(7, []))

    def test_pair_orbit_cap_error_names_the_limit(self):
        with pytest.raises(CapExceededError) as info:
            invariant_graphs_under(PermGroup(7, []))
        assert str(info.value) == \
            "21 pair-orbits exceed cap MAX_PAIR_ORBITS=20"


class TestSerialization:
    @given(graphs())
    def test_graph6_roundtrip(self, g):
        assert from_graph6(to_graph6(g)) == g

    @given(graphs())
    def test_graph6_matches_networkx(self, g):
        assert to_graph6(g) == nx.to_graph6_bytes(
            to_nx(g), header=False).decode().strip()

    @given(graphs())
    def test_edge_list_roundtrip(self, g):
        assert from_edge_list(to_edge_list(g)) == g

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 100])
    @pytest.mark.parametrize("p", [0, 0.5, 1])
    def test_graph6_header_boundary_against_networkx(self, n, p):
        # n = 63 is the first order with the four-byte header
        g = random_graph(random.Random(n), n, p)
        text = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert to_graph6(g) == text
        assert from_graph6(text) == g
        assert sorted(tuple(sorted(e)) for e in nx.from_graph6_bytes(
            to_graph6(g).encode()).edges()) == g.edges()

    def test_graph6_roundtrip_without_vertices(self):
        assert from_graph6(to_graph6(empty_graph(0))) == empty_graph(0)

    def test_parse_graph_dispatch(self):
        c5 = cycle_graph(5)
        assert parse_graph(to_graph6(c5)) == c5
        assert parse_graph(to_edge_list(c5)) == c5


# the orders around graph6's one- and four-character headers
G6_BOUNDARY_ORDERS = (0, 1, 2, 62, 63, 64)
G6_ALPHABET = "".join(map(chr, range(63, 127)))
NOT_G6_CHARACTERS = st.one_of(
    st.characters(max_codepoint=62),                      # below "?"
    st.characters(min_codepoint=127, max_codepoint=127),  # above "~"
    st.characters(min_codepoint=128))                     # not ASCII


@st.composite
def codec_graphs(draw, orders=st.integers(0, 100)):
    n = draw(orders)
    p = draw(st.sampled_from([0, 0.1, 0.5, 0.9, 1]))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@st.composite
def mutated_graph6(draw):
    """A valid graph6 string, or one with a character outside ?..~ put in
    its header or body, a truncated long header, a body one character
    short or long, the ">>graph6<<" prefix, surrounding whitespace, or
    nothing left."""
    text = to_graph6_by_columns(draw(codec_graphs(
        st.sampled_from(G6_BOUNDARY_ORDERS) | st.integers(0, 70))))
    head = 4 if text[0] == "~" else 1
    kind = draw(st.sampled_from(["valid", "header", "body", "short header",
                                 "short body", "long body", "empty"]))
    if kind in ("header", "body"):
        lo, hi = (0, head - 1) if kind == "header" else (head, len(text))
        i, c = draw(st.integers(lo, hi)), draw(NOT_G6_CHARACTERS)
        text = text[:i] + c + text[i + draw(st.integers(0, 1)):]
    elif kind == "short header":
        text = "~" + draw(st.text(G6_ALPHABET, max_size=2))
    elif kind == "short body":
        text = text[:-1]
    elif kind == "long body":
        text += draw(st.sampled_from(G6_ALPHABET))
    elif kind == "empty":
        text = ""
    if draw(st.booleans()):
        text = ">>graph6<<" + text
    if draw(st.booleans()):
        space = st.sampled_from([" ", "\t", "\n", "\r\n", "\x0b\x0c"])
        text = draw(space) + text + draw(space)
    return text


def decoded(decode, text):
    """The graph ``decode`` reads from text, or its ValueError's message."""
    try:
        return decode(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGraph6Codec:
    """The table-driven codec against the one that walks 6-bit groups and
    set bits one at a time."""

    @settings(max_examples=150, deadline=None)
    @given(codec_graphs())
    def test_encoders_agree(self, g):
        assert to_graph6(g) == to_graph6_by_columns(g)

    @pytest.mark.parametrize("n", G6_BOUNDARY_ORDERS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_encoders_agree_at_the_header_boundary(self, n, data):
        g = data.draw(codec_graphs(st.just(n)))
        assert to_graph6(g) == to_graph6_by_columns(g)
        assert from_graph6(to_graph6(g)) == g

    @settings(max_examples=400, deadline=None)
    @given(mutated_graph6())
    def test_decoders_agree(self, text):
        assert decoded(from_graph6, text) == \
            decoded(from_graph6_by_columns, text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 string"),
        (" >>graph6<< ", "empty graph6 string"),
        ("D\x7fc", "invalid graph6 character"),
        ("D Qc", "invalid graph6 character"),
        ("\u00e9Qc", "invalid graph6 character"),
        ("~??", "truncated graph6 header"),
        ("DQ", "graph6 body length mismatch"),
        ("DQcc", "graph6 body length mismatch"),
    ])
    def test_rejections(self, text, message):
        assert decoded(from_graph6, text) == f"ValueError: {message}"
        assert decoded(from_graph6_by_columns, text) == \
            f"ValueError: {message}"


class TestUncheckedRows:
    """Every construction that builds its rows unchecked, with
    ``Graph._rows``, gives rows that the checking ``Graph(n, adj)``
    accepts."""

    @staticmethod
    def assert_checked(g):
        assert isinstance(g.adj, tuple)
        assert Graph(g.n, g.adj) == g

    @settings(max_examples=100, deadline=None)
    @given(codec_graphs(st.integers(0, 70)))
    def test_decoder_and_complement(self, g):
        self.assert_checked(g)    # from_edges
        self.assert_checked(from_graph6(to_graph6(g)))
        self.assert_checked(g.complement())

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_subgraphs_and_quotients(self, g, data):
        self.assert_checked(g.induced_subgraph(
            data.draw(st.sets(st.integers(0, g.n - 1))))[0])
        labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n,
                                    max_size=g.n))
        self.assert_checked(quotient_graph(g, [
            [v for v in range(g.n) if labels[v] == c]
            for c in sorted(set(labels))]))

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=0, max_n=6), graphs(min_n=0, max_n=6), st.data())
    def test_products_and_fibre_graphs(self, delta, theta, data):
        self.assert_checked(lex_product(delta, theta))
        k = data.draw(st.integers(1, 4))
        sigma = data.draw(graphs(min_n=2 * k, max_n=2 * k))
        order = data.draw(st.permutations(range(2 * k)))
        pairs = BlockSystem.from_blocks(2 * k, zip(order[::2], order[1::2]))
        params = InfParams(*(data.draw(st.integers(0, 1)) for _ in "lk"),
                           data.draw(st.integers(2, 4)))
        self.assert_checked(inf_graph(params, sigma, pairs))

    @pytest.mark.parametrize("n", range(12))
    def test_named_families(self, n):
        for g in (empty_graph(n), complete_graph(n), prism_graph(n)):
            self.assert_checked(g)
        if n >= 3:
            self.assert_checked(cycle_graph(n))

    @pytest.mark.parametrize("build", [
        empty_graph, complete_graph,
        lambda n: Graph.from_edges(n, [])])
    def test_a_negative_order_is_rejected(self, build):
        with pytest.raises(ValueError, match="at least 0, got -1"):
            build(-1)

    @pytest.mark.parametrize("verts", [[0, 0, 1], [-1, 2], [1, 5]])
    def test_induced_subgraph_needs_distinct_vertices(self, verts):
        with pytest.raises(ValueError, match="distinct, in 0..4"):
            cycle_graph(5).induced_subgraph(verts)


class TestEdgeListErrors:
    @pytest.mark.parametrize("text, message", [
        ("n 3\n1 4", "line 2: vertex 4 outside 1..3"),
        ("n 3\n# a comment\n\n0 2", "line 4: vertex 0 outside 1..3"),
        ("n 3\n1 2 3", "line 2: expected two vertices, got '1 2 3'"),
        ("n 3\n2", "line 2: expected two vertices, got '2'"),
        ("n 3\n1 x", "line 2: expected two vertices, got '1 x'"),
        ("n 3\n2 2", "line 2: loops are not allowed"),
        ("n x\n1 2", "line 1: expected 'n <count>' header"),
        ("n -1", "line 1: expected 'n <count>' header"),
        ("\n1 2", "line 2: expected 'n <count>' header"),
        ("# no header", "empty edge list"),
    ])
    def test_errors_name_the_line_and_the_vertices_as_written(self, text,
                                                             message):
        with pytest.raises(ValueError) as info:
            from_edge_list(text)
        assert str(info.value) == message


class TestIsomorphism:
    def test_against_networkx(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            g1 = random_graph(rng, n)
            g2 = random_graph(rng, n)
            assert (are_isomorphic(g1, g2) is not None) == \
                   nx.is_isomorphic(to_nx(g1), to_nx(g2))

    def test_witness_is_isomorphism(self):
        rng = random.Random(6)
        randoms = (random_graph(rng, rng.randint(2, 8)) for _ in range(30))
        # edgeless and complete graphs: the edge count alone decides
        extremes = (family(n) for n in (1, 2, 7)
                    for family in (complete_graph, empty_graph))
        for g1 in itertools.chain(randoms, extremes):
            p = Permutation(rng.sample(range(g1.n), g1.n))
            g2 = relabel(g1, p)
            f = are_isomorphic(g1, g2)
            assert f is not None
            assert relabel(g1, f) == g2

    def test_pairs_refinement_cannot_split(self):
        # both pairs are regular with equal parameters, so refinement from
        # one colour cannot split them: the search has to individualise
        two_triangles = lex_product(complete_graph(3), empty_graph(2))
        assert are_isomorphic(cycle_graph(6), two_triangles) is None
        rook = cartesian_product(complete_graph(4), complete_graph(4))
        assert are_isomorphic(rook, shrikhande_graph()) is None
        assert are_isomorphic(rook, relabel(
            rook, Permutation([(5 * v) % 16 for v in range(16)]))) is not None
        assert automorphism_group(cycle_graph(6)).order == 12
        assert automorphism_group(two_triangles).order == 72
        assert automorphism_group(rook).order == 1152
        assert automorphism_group(shrikhande_graph()).order == 192

    def test_searches_on_a_kept_path(self):
        """Searches on one kept first path, as ``corpus_generators`` runs
        them, give the verdicts of fresh ones: each corpus graph against a
        relabelled copy of every corpus graph of its order, and rook's
        graph against a copy of itself and the Shrikhande graph."""
        rng = random.Random(30)
        graphs = [g for _, g in corpus_generators(CorpusSpec(
            circulant_max=10))]
        for g in graphs:
            path = _SourcePath(g, [0] * g.n)
            p = Permutation(rng.sample(range(g.n), g.n))
            for h in (relabel(other, p) for other in graphs
                      if other.n == g.n):
                found = are_isomorphic(g, h, path)
                assert (found is None) == (are_isomorphic(g, h) is None)
                assert found is None or relabel(g, found) == h
        rook = cartesian_product(complete_graph(4), complete_graph(4))
        path = _SourcePath(rook, [0] * 16)
        copy = relabel(rook, Permutation([(5 * v) % 16 for v in range(16)]))
        assert are_isomorphic(rook, copy, path) is not None
        assert are_isomorphic(rook, shrikhande_graph(), path) is None

    def test_kept_path_search_gets_the_whole_cap(self, monkeypatch):
        """A search on a kept path counts its nodes from zero: with the cap
        at each search's node count but below their sum, two searches on
        one path both finish."""
        rook = cartesian_product(complete_graph(4), complete_graph(4))
        targets = [relabel(rook, Permutation([(k * v) % 16
                                               for v in range(16)]))
                   for k in (5, 7)]
        counts = []
        for copy in targets:
            fresh = _SourcePath(rook, [0] * 16)
            assert are_isomorphic(rook, copy, fresh) is not None
            counts.append(fresh.nodes)
        assert min(counts) > 0
        monkeypatch.setenv("SMALLMOTION_CAP", str(max(counts)))
        kept = _SourcePath(rook, [0] * 16)
        for copy, count in zip(targets, counts):
            assert are_isomorphic(rook, copy, kept) is not None
            assert kept.nodes == count

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_coloured_search_against_networkx(self, data):
        n = data.draw(st.integers(1, 9))
        g1 = data.draw(graphs(min_n=n, max_n=n))
        c1 = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if data.draw(st.booleans()):   # a relabelled copy: isomorphic
            p = data.draw(st.permutations(range(n)))
            g2 = relabel(g1, Permutation(p))
            c2 = [0] * n
            for v in range(n):
                c2[p[v]] = c1[v]
        else:
            g2 = data.draw(graphs(min_n=n, max_n=n))
            c2 = data.draw(st.lists(st.integers(0, 2), min_size=n,
                                    max_size=n))
        found = coloured_isomorphism(g1, c1, g2, c2)
        h1, h2 = to_nx(g1), to_nx(g2)
        nx.set_node_attributes(h1, dict(enumerate(c1)), "c")
        nx.set_node_attributes(h2, dict(enumerate(c2)), "c")
        want = GraphMatcher(h1, h2, node_match=lambda a, b: a["c"] == b["c"]
                            ).is_isomorphic()
        assert (found is not None) == want
        if found is not None:
            assert relabel(g1, found) == g2
            assert all(c2[found(v)] == c1[v] for v in range(n))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_coloured_search_on_near_copies_against_networkx(self, data):
        """A relabelled copy is found, with edges and colours kept; a copy
        with one vertex pair flipped, and one with two vertices' colours
        swapped, get the verdict of networkx's coloured matcher."""
        n = data.draw(st.integers(1, 10))
        g1 = data.draw(graphs(min_n=n, max_n=n))
        c1 = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        p = Permutation(data.draw(st.permutations(range(n))))
        g2 = relabel(g1, p)
        c2 = [c1[v] for v in p.inverse().images]

        def check(h2, d2, want):
            found = coloured_isomorphism(g1, c1, h2, d2)
            assert (found is not None) == want
            if found is not None:
                assert relabel(g1, found) == h2
                assert all(d2[found(v)] == c1[v] for v in range(n))

        def coloured_nx(graph, colors):
            h = to_nx(graph)
            nx.set_node_attributes(h, dict(enumerate(colors)), "c")
            return h

        check(g2, c2, True)
        u, v = data.draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        flipped = Graph(n, [row ^ (x == u) << v ^ (x == v) << u
                            for x, row in enumerate(g2.adj)]) \
            if u != v else g2
        recoloured = list(c2)
        recoloured[u], recoloured[v] = c2[v], c2[u]
        for h2, d2 in ((flipped, c2), (g2, recoloured)):
            check(h2, d2, nx.is_isomorphic(
                coloured_nx(g1, c1), coloured_nx(h2, d2),
                node_match=lambda a, b: a["c"] == b["c"]))

    @given(graphs(max_n=8), st.data())
    def test_leaf_check_is_relabel_equality(self, g1, data):
        # a stable discrete leaf with equal histograms is always an
        # isomorphism, so the search never fails this check: test it alone
        images = data.draw(st.permutations(range(g1.n)))
        g2 = data.draw(st.sampled_from([g1, relabel(g1, Permutation(images)),
                                        g1.complement()]))
        assert _maps_onto(g1, images, g2) == \
            (relabel(g1, Permutation(images)) == g2)


class TestEquitableRefinement:
    @given(graphs(max_n=12), st.data())
    def test_equitable_and_same_as_first_path(self, g, data):
        colors = data.draw(st.lists(st.integers(0, 2), min_size=g.n,
                                    max_size=g.n))
        refined = equitable_refinement(g, colors)
        for u in range(g.n):
            # refined cells lie inside the seed cells
            assert all(colors[w] == colors[u] for w in range(g.n)
                       if refined[w] == refined[u])
            # equal colours see equal neighbour colour counts
            for w in range(g.n):
                if refined[w] == refined[u]:
                    assert sorted(refined[x] for x in neighbors(g, u)) == \
                        sorted(refined[x] for x in neighbors(g, w))
        # the first path's depth 0, seeded with the colours renamed
        path = _SourcePath(g, [(2 - c, "renamed") for c in colors])
        assert _partition_of(refined) == _partition_of(path.level(0)[1])

    @staticmethod
    def assert_passes_match_sorted_keys(g, seed):
        """Every pass, up to the stable one, gives the oracle's ids."""
        colors = _SourcePath(g, seed)._seed
        want, count = list(seed), len(set(seed))
        while True:
            key_ids, oracle_ids = {}, {}
            colors = _refine_pass(g, colors, key_ids)
            want = refine_pass_sorted(g, want, oracle_ids)
            assert colors == want
            assert len(key_ids) == len(oracle_ids)
            if len(key_ids) == count:
                return
            count = len(key_ids)

    @given(graphs(max_n=12), st.data())
    def test_packed_keys_match_sorted_keys(self, g, data):
        ints = st.integers(0, 3)
        kind = data.draw(st.sampled_from([ints,
                                          st.tuples(ints, st.booleans())]))
        seed = data.draw(st.lists(kind, min_size=g.n, max_size=g.n))
        self.assert_passes_match_sorted_keys(g, seed)

    @pytest.mark.parametrize("n", [7, 8, 15, 16, 63, 64])
    def test_packed_keys_where_a_count_reaches_n_minus_1(self, n):
        star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        for g in (complete_graph(n), star):
            for seed in ([0] * n, [1] + [0] * (n - 1),
                         [v % 2 for v in range(n)],
                         [min(v, 2) for v in range(n)]):
                self.assert_passes_match_sorted_keys(g, seed)

    @pytest.mark.parametrize("n", [7, 15, 63])
    def test_packed_keys_where_one_bit_fewer_would_carry(self, n):
        # vertex k+1 sees k = 2^(b-1) neighbours of colour 0, vertex k+2 one
        # of colour 1: with b - 1 bits a digit, both sums would be k
        k = 1 << n.bit_length() - 1
        g = Graph.from_edges(n, [(k + 1, v) for v in range(k)] + [(k + 2, k)])
        self.assert_passes_match_sorted_keys(
            g, [0] * k + [1, 2, 2] + [0] * (n - k - 3))

    def test_individualising_one_vertex_of_a_cycle(self):
        # pinning 0 of C6 leaves the pairs at equal distance from it
        colors = equitable_refinement(cycle_graph(6), [1, 0, 0, 0, 0, 0])
        assert _partition_of(colors) == _partition_of([0, 1, 2, 3, 2, 1])


def with_pair_flipped(graph, u, v):
    """The graph with the edge {u, v} added or removed."""
    return Graph(graph.n, [row ^ (x == u) << v ^ (x == v) << u
                           for x, row in enumerate(graph.adj)])


class TestSplitterPasses:
    """The first path's splitter passes against full passes
    (``oracles.FullPassPath``): the same levels, and every search returns
    the same isomorphism after the same number of nodes."""

    @staticmethod
    def assert_same_as_full_passes(g, colors, targets):
        path, full = _SourcePath(g, colors), FullPassPath(g, colors)
        depth = 0
        while True:
            passes, stable, v, fresh = path.level(depth)
            want = full.level(depth)
            assert (stable, v, fresh) == want[1:]
            assert [hist for *_, hist in passes] == \
                [hist for _, hist in want[0]]
            if v is None:
                break
            depth += 1
        # an isomorphism search of each target from depth 0 ...
        ids = seed_ids(colors)
        for g2, c2 in targets:
            if all(c in ids for c in c2):
                seed = [ids[c] for c in c2]
                assert path.transport(g2, seed, 0) == \
                    full.transport(g2, seed, 0)
                assert path.nodes == full.nodes
        # ... and the automorphism group's searches, level by level
        for d in range(depth):
            _, cells, v, fresh = path.level(d)
            for w in range(g.n):
                if cells[w] == cells[v]:
                    branch = cells[:w] + [fresh] + cells[w + 1:]
                    assert path.transport(g, branch, d + 1) == \
                        full.transport(g, branch, d + 1)
                    assert path.nodes == full.nodes

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12), st.data())
    def test_levels_and_searches_match_full_passes(self, g, data):
        colors = data.draw(st.lists(st.integers(0, 2), min_size=g.n,
                                    max_size=g.n))
        p = Permutation(data.draw(st.permutations(range(g.n))))
        g2 = relabel(g, p)
        c2 = [colors[v] for v in p.inverse().images]
        u, v = data.draw(st.permutations(range(g.n)))[:2] \
            if g.n > 1 else (0, 0)
        targets = [(g2, c2)]
        if u != v:   # a copy with one vertex pair flipped: often pruned
            targets.append((with_pair_flipped(g2, u, v), c2))
        self.assert_same_as_full_passes(g, colors, targets)

    def test_a_tie_for_the_largest_fragment(self):
        # P8 from one colour: pass 1 splits off the ends {0, 7} (id 0),
        # pass 2 their neighbours {1, 6} (id 1), and pass 3 cuts the rest
        # into {2, 5} (id 2) and {3, 4} (id 3), a tie: the first is kept
        # as the largest, so pass 4 counts neighbours in id 3 alone
        p8 = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
        passes = _SourcePath(p8, [0] * 8).level(0)[0]
        assert [splitters for splitters, _, _ in passes] == \
            [None, [0], [1], [3]]
        assert passes[-1][2] == [0, 0, 1, 1, 2, 2, 3, 3]
        # pinning 0 splits {0, 7} into two singletons, another tie
        p = Permutation([(3 * v + 2) % 8 for v in range(8)])
        self.assert_same_as_full_passes(
            p8, [0] * 8, [(relabel(p8, p), [0] * 8),
                          (with_pair_flipped(p8, 0, 7), [0] * 8),
                          (with_pair_flipped(p8, 3, 4), [0] * 8)])


class RowRecorder:
    """A graph for ``_pass_keys`` whose neighbour lists record each row
    they hand out, by index or by iteration."""

    def __init__(self, graph):
        self.rows, self.read = graph.neighbor_lists(), []

    def neighbor_lists(self):
        return self

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, u):
        self.read.append(u)
        return self.rows[u]

    def __iter__(self):
        return (self[u] for u in range(len(self.rows)))


class TestSparsePasses:
    """Each pass reads only the rows of its splitter colours' members;
    depth 0's first pass (splitters None) reads every row."""

    @staticmethod
    def replay(path, g2, colors, depth):
        """Run the depth's passes on g2 as a search does, from ``colors``,
        checking the rows each reads; the number of passes run."""
        passes = path.level(depth)[0]
        for done, (splitters, key_ids, hist) in enumerate(passes, 1):
            rec = RowRecorder(g2)
            keys = _pass_keys(rec, colors, splitters)
            assert keys == _pass_keys(g2, colors, splitters)
            assert sorted(rec.read) == [
                u for u in range(g2.n)
                if splitters is None or colors[u] in splitters]
            colors = [key_ids.get(k, -1) for k in keys]
            if sorted(colors) != hist:
                break
        return done

    @pytest.mark.parametrize("g", [petersen_graph(),
                                   circulant_graph(12, [1, 2, 3, 5]),
                                   lex_product(cycle_graph(4),
                                               cycle_graph(5))])
    def test_reads_only_splitter_rows(self, g):
        path = _SourcePath(g, [0] * g.n)
        passes, cells, v, fresh = path.level(0)
        assert passes[0][0] is None and path.level(1)[0][0][0] == [fresh]
        flipped = with_pair_flipped(relabel(g, Permutation(
            [(7 * u + 1) % g.n for u in range(g.n)])), 0, 1)
        for g2 in (g, flipped):   # depth 0's first pass reads every row
            self.replay(path, g2, [0] * g.n, 0)
        ran = 0
        for w in range(g.n):     # the searches from depth 1
            if cells[w] == cells[v]:
                branch = cells[:w] + [fresh] + cells[w + 1:]
                assert self.replay(path, g, branch, 1) == \
                    len(path.level(1)[0])
                ran += self.replay(path, flipped, branch, 1)
        assert ran > 1


def assert_keys_decode(g, colors, splitters):
    """Each key, read in base 2^b, gives the vertex's colour and then its
    neighbour count in each splitter colour, in the splitters' order."""
    keys = _pass_keys(g, colors, splitters)
    if splitters is None:
        splitters = range(max(colors, default=-1) + 1)
    b = len(colors).bit_length()
    for u, key in enumerate(keys):
        digits = []
        for _ in range(len(splitters) + 1):
            digits.append(key % (1 << b))
            key >>= b
        assert key == 0
        assert digits == [colors[u]] + [
            sum(colors[x] == c for x in neighbors(g, u)) for c in splitters]


class TestPackedKeys:
    @given(graphs(max_n=16), st.data())
    def test_keys_match_brute_force_counts(self, g, data):
        k = data.draw(st.integers(1, g.n))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=g.n,
                                    max_size=g.n))
        # any order, and colours >= k (or not drawn) have no members
        splitters = data.draw(st.none() | st.lists(
            st.integers(0, g.n - 1), unique=True))
        assert_keys_decode(g, colors, splitters)

    @pytest.mark.parametrize("n", [7, 8, 63, 64])
    def test_a_colour_or_count_reaches_n_minus_1(self, n):
        star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        for g in (complete_graph(n), star):
            assert_keys_decode(g, [0] * n, [0])
            assert_keys_decode(g, [0] * n, [1, 0])    # 1 has no members
            assert_keys_decode(g, list(range(n)), None)
            assert_keys_decode(g, list(range(n)), [n - 1, 0, n - 2])
            assert_keys_decode(g, [n - 1] + [0] * (n - 1), [0, n - 1])
