"""Automorphism groups, twins, motion, all cross-checked by brute force."""

import inspect
import itertools
import math
import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import oracles
from oracles import (aut_preserving_partition, automorphism_group_brute,
                     cartesian_product, closure, coloured_isomorphism,
                     count_base_changes, elements, equitable_refinement,
                     find_twins_all_pairs, has_edge,
                     is_automorphism, is_invariant_partition,
                     minimal_degree_full_scan, motion, path_graph,
                     petersen_graph, random_element, spx_graph)
from smallmotion.autengine import (_involution, automorphism_group,
                                   find_twins, motion_witness,
                                   transitivity_aut)
from smallmotion.classify import (CorpusSpec, corpus_generators, named_graph,
                                  sigma_matchings)
from smallmotion.graphcore import (Graph, _maps_onto, alternate_matching,
                                   circulant_graph, complete_graph,
                                   cycle_graph, empty_graph, lex_product,
                                   prism_graph)
from smallmotion.permcore import (BlockSystem, PermGroup, Permutation,
                                  StabilizerChain, _is_prime, orbit)

# the corpus of `smallmotion verify graphs --quick`
QUICK_SPEC = CorpusSpec(circulant_max=8, inf_sigmas=("cycle:4", "cycle:6"),
                        inf_ms=(2,), lex_thetas=("complete:2",))


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


@st.composite
def coloured_graphs(draw, max_n):
    """A graph on at most max_n vertices with None or a random 2-colouring."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    colors = draw(st.none() | st.lists(st.sampled_from("ab"), min_size=n,
                                       max_size=n))
    return Graph.from_edges(n, [e for e, b in zip(pairs, mask) if b]), colors


@st.composite
def twin_rich_graphs(draw):
    """A graph on at most 6 vertices with each vertex blown up into 1 to 3
    true or false twins, relabelled, with one vertex pair perhaps flipped."""
    quotient, _ = draw(coloured_graphs(max_n=6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=quotient.n,
                          max_size=quotient.n))
    cliques = draw(st.lists(st.booleans(), min_size=quotient.n,
                            max_size=quotient.n))
    block = [a for a, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    pos = draw(st.permutations(range(n)))
    edges = [(pos[x], pos[y]) for x, y in itertools.combinations(range(n), 2)
             if has_edge(quotient, block[x], block[y])
             or block[x] == block[y] and cliques[block[x]]]
    adj = list(Graph.from_edges(n, edges).adj)
    u, v = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    if u != v and draw(st.booleans()):
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph(n, adj)


def first_path(graph, colors=None):
    """The first-path base, level by level: refine, and individualise the
    least vertex in a cell of two or more, until the colouring is
    discrete."""
    cells = equitable_refinement(graph, colors or [0] * graph.n)
    points = []
    while True:
        size = [cells.count(c) for c in cells]   # of each vertex's cell
        if max(size, default=1) == 1:
            return points
        v = next(u for u, k in enumerate(size) if k > 1)
        points.append(v)
        cells = equitable_refinement(graph, [(c, u == v)
                                             for u, c in enumerate(cells)])


def reference_involution(graph, v, w, pinned, colors):
    """(v w), or (v w)(a b) when the rows of v and w differ off {v, w} in
    just a, adjacent to v only, and b, adjacent to w only; None unless it
    fixes the pinned vertices, keeps the colours and maps the edge set
    onto itself."""
    rows = [{u for u in range(graph.n) if has_edge(graph, x, u)} - {v, w}
            for x in (v, w)]
    only_v, only_w = rows[0] - rows[1], rows[1] - rows[0]
    images = list(range(graph.n))
    images[v], images[w] = w, v
    if only_v or only_w:
        if len(only_v) != 1 or len(only_w) != 1:
            return None
        (a,), (b,) = only_v, only_w
        images[a], images[b] = b, a
    edges = {frozenset(e) for e in graph.edges()}
    if any(images[u] != u for u in pinned) or \
            [colors[x] for x in images] != list(colors) or \
            {frozenset(images[x] for x in e) for e in edges} != edges:
        return None
    return Permutation(images)


def reference_automorphism_group(graph, colors=None):
    """The level loop over the first-path base, deepest level first,
    without the refined-cell filter: at level d every w of v_d's seed
    colour not yet in v_d's orbit under the generators found so far gets
    ``reference_involution`` and, failing that, a search, with
    v_0..v_{d-1} pinned.  Returns (base, generators in the order found,
    order)."""
    n = graph.n
    base = [(0, c) for c in ([0] * n if colors is None else colors)]
    points = first_path(graph, colors)
    gens = []
    order = 1
    for d in reversed(range(len(points))):
        v = points[d]
        pinned = {u: (1, u) for u in points[:d]}
        reached = set(orbit(v, gens))
        for w in range(n):
            if w in reached or base[w] != base[v]:
                continue
            t = reference_involution(graph, v, w, pinned, base)
            if t is None:
                src = [pinned.get(u, (2,) if u == v else base[u])
                       for u in range(n)]
                dst = [pinned.get(u, (2,) if u == w else base[u])
                       for u in range(n)]
                t = coloured_isomorphism(graph, src, graph, dst)
            if t is None:
                continue
            gens.append(t)
            reached = set(orbit(v, gens))
        order *= len(reached)
    return points, gens, order


def networkx_aut_order(graph, colors=None):
    """Oracle: |Aut| from networkx's VF2 matcher by orbit-stabilizer, the
    product over v of the number of w that an automorphism keeping
    ``colors`` and fixing 0..v-1 sends v to.  (VF2 takes about 30 s to
    list the 9! automorphisms of the empty graph on 9 vertices.)"""
    n = graph.n
    colors = [0] * n if colors is None else colors

    def labelled(v, w):
        # 0..v-1 pinned, v's image w marked, the rest by colour alone
        h = nx.Graph(graph.edges())
        h.add_nodes_from(range(n))
        for u in range(n):
            h.nodes[u]["label"] = (colors[u], u if u < v else
                                   -1 if u == w else n)
        return h

    order = 1
    for v in range(n):
        src = labelled(v, v)
        order *= sum(GraphMatcher(src, labelled(v, w), node_match=lambda a, b:
                                  a["label"] == b["label"]).is_isomorphic()
                     for w in range(v, n))
    return order


class TestAutomorphismGroup:
    def test_matches_brute_force(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
            fast = automorphism_group(g)
            brute = automorphism_group_brute(g)
            assert fast.order == brute.order()
            assert all(h in brute for h in fast.group.generators)

    def test_known_orders(self):
        assert automorphism_group(complete_graph(5)).order == 120
        assert automorphism_group(cycle_graph(6)).order == 12
        assert automorphism_group(petersen_graph()).order == 120
        assert automorphism_group(prism_graph(3)).order == 12
        # lex composition: Sym(2) wr Aut(C5) has order 2^5 * 10
        assert automorphism_group(
            lex_product(complete_graph(2), cycle_graph(5))).order == 320

    def test_complement_has_same_group(self):
        rng = random.Random(21)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 8))
            a1 = automorphism_group(g)
            a2 = automorphism_group(g.complement())
            assert a1.order == a2.order
            assert all(h in a2.group for h in a1.group.generators)

    def test_colours_match_brute_force(self):
        rng = random.Random(26)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
            colors = [rng.choice("ab") for _ in range(n)]
            fast = automorphism_group(g, colors)
            want = [h for h in elements(automorphism_group_brute(g))
                    if all(colors[h(v)] == colors[v] for v in range(n))]
            assert fast.order == len(want)
            assert set(fast.group.generators) <= set(want)

    @settings(max_examples=60, deadline=None)
    @given(coloured_graphs(max_n=9))
    def test_order_matches_networkx_and_brute_force(self, case):
        g, colors = case
        order = automorphism_group(g, colors).order
        assert order == networkx_aut_order(g, colors)
        if g.n <= 8:
            keep = colors or [0] * g.n
            assert order == sum(
                all(keep[h(v)] == keep[v] for v in range(g.n))
                for h in elements(automorphism_group_brute(g)))


class TestGeneratorsKeepEdgesAndColours:
    """Aut checks each generator once, at its search's leaf.  These tests
    relabel the edge set themselves rather than call
    ``oracles.is_automorphism``, which shares the leaf's edge check."""

    @staticmethod
    def assert_generators_keep(graph, colors=None):
        aut = automorphism_group(graph, colors)
        edges = {frozenset(e) for e in graph.edges()}
        keep = colors or [0] * graph.n
        for h in aut.group.generators:
            assert {frozenset(map(h, e)) for e in edges} == edges
            assert [keep[h(v)] for v in range(graph.n)] == list(keep)

    @settings(max_examples=150, deadline=None)
    @given(coloured_graphs(max_n=10))
    def test_random_coloured_graphs(self, case):
        self.assert_generators_keep(*case)

    def test_corpus(self):
        graphs = [graph for _, graph in corpus_generators(CorpusSpec())]
        assert len(graphs) == 122
        for graph in graphs:
            self.assert_generators_keep(graph)

    def test_marked_graphs_of_the_inf_grid(self, monkeypatch):
        marked = []

        def recording(graph, colors=None):
            marked.append((graph, colors))
            return automorphism_group(graph, colors)

        monkeypatch.setattr(oracles, "automorphism_group", recording)
        for token in CorpusSpec().inf_sigmas:
            family, n = token.split(":")
            for _, pairs in sigma_matchings(family, int(n)):
                aut_preserving_partition(named_graph(token), pairs)
        assert marked and all(colors is not None for _, colors in marked)
        for graph, colors in marked:
            self.assert_generators_keep(graph, colors)


class TestSearchFilter:
    """Searches start only in v's refined cell and run on the first path's
    base; the generators are those of the unfiltered loop."""

    @staticmethod
    def assert_same_as_reference(g, colors=None):
        aut = automorphism_group(g, colors)
        points, gens, order = reference_automorphism_group(g, colors)
        assert [h.images for h in aut.group.generators] == \
            [h.images for h in gens]
        assert aut.order == order
        assert aut.group.chain.base == points
        # deepest level first; each generator fixes the base above its level
        levels = [next(d for d, p in enumerate(points) if h(p) != p)
                  for h in aut.group.generators]
        assert levels == sorted(levels, reverse=True)
        assert all(h(p) == p for h, d in zip(aut.group.generators, levels)
                   for p in points[:d])

    @settings(max_examples=80, deadline=None)
    @given(coloured_graphs(max_n=10))
    def test_random_graphs_match_reference(self, case):
        self.assert_same_as_reference(*case)

    def test_quick_corpus_matches_reference(self):
        graphs = [graph for _, graph in corpus_generators(QUICK_SPEC)]
        assert len(graphs) == 33
        for graph in graphs:
            self.assert_same_as_reference(graph)

    def test_quick_corpus_chains_match_schreier_sims(self):
        """The chain Aut files its generators into, against a full
        Schreier-Sims chain of them: order and membership."""
        rng = random.Random(24)
        for _, graph in corpus_generators(QUICK_SPEC):
            aut = automorphism_group(graph)
            kept = aut.group.chain
            full = StabilizerChain(graph.n, aut.group.generators)
            assert kept.order() == full.order() == aut.order
            members = [random_element(full, rng) for _ in range(10)]
            probes = members + [Permutation(rng.sample(range(graph.n),
                                                       graph.n))
                                for _ in range(10)]
            assert all(kept.contains(g) for g in members)
            assert [kept.contains(g) for g in probes] == \
                [full.contains(g) for g in probes]

    def test_aut_chains_strip_no_schreier_generator(self, monkeypatch):
        """The search's generators are strong for the first path, so the
        chain told the order never sifts a Schreier generator below level
        0."""
        stripped = []
        original = StabilizerChain._strip

        def counting(self, g, level):
            stripped.append(level)
            return original(self, g, level)

        monkeypatch.setattr(StabilizerChain, "_strip", counting)
        for _, graph in corpus_generators(QUICK_SPEC):
            aut = automorphism_group(graph)
            assert aut.group.chain.order() == aut.order
        assert [level for level in stripped if level >= 1] == []

    def test_point_stabilizer_reuses_the_aut_chain(self, monkeypatch):
        group = automorphism_group(petersen_graph()).group
        assert group.chain.base[0] == 0
        built = count_base_changes(monkeypatch)
        stab = group.pointwise_stabilizer([0])
        assert not built and stab.order() == 12
        assert all(g(0) == 0 for g in stab.generators)

    def test_search_counts(self):
        for graph, most in ((petersen_graph(), 4), (cycle_graph(12), 2),
                            (circulant_graph(13, [1, 3, 4]), 3)):  # Paley13
            aut = automorphism_group(graph)
            assert aut.stats["transporter_searches"] <= most

    def test_search_nodes(self):
        # every search runs straight down to a leaf that is an
        # automorphism, one node per depth: C12 searches from depths 2
        # and 1 (base 0, 1), Petersen from depths 4, 3, 2 and 1 (base 0,
        # 1, 2, 3)
        for graph, searches, nodes, passes in ((cycle_graph(12), 2, 3, 28),
                                               (petersen_graph(), 4, 10, 29)):
            stats = automorphism_group(graph).stats
            assert (stats["transporter_searches"], stats["search_nodes"],
                    stats["refinement_passes"]) == (searches, nodes, passes)

    # (searches, nodes, passes, involutions) and the generators in the
    # order found: the refinement keys must keep every colour id, so each
    # search visits the same nodes.  The twin and fibre swaps of the
    # other three graphs are involutions (v w) and (v w)(a b), found
    # without a search; Petersen has motion 6, so its generators all
    # come from searches.
    PINNED = {
        "petersen": ((4, 10, 29, 0), [
            "(4,8)(5,6)(9,10)", "(3,7)(4,9)(5,6)(8,10)",
            "(2,5)(3,4)(7,10)(8,9)", "(1,2)(3,5)(6,7)(8,10)"]),
        "lex:cycle:5:cycle:5": ((2, 18, 62, 10), [
            "(22,25)(23,24)", "(21,22)(23,25)", "(17,20)(18,19)",
            "(16,17)(18,20)", "(12,15)(13,14)", "(11,12)(13,15)",
            "(7,10)(8,9)", "(6,7)(8,10)",
            "(6,21)(7,22)(8,23)(9,24)(10,25)(11,16)(12,17)(13,18)(14,19)"
            "(15,20)",
            "(2,5)(3,4)", "(1,2)(3,5)",
            "(1,6)(2,7)(3,8)(4,9)(5,10)(11,21)(12,22)(13,23)(14,24)(15,25)"]),
        "inf:01:cycle:8:antipodal:m3": ((2, 14, 52, 8), [
            "(11,12)(23,24)", "(10,11)(22,23)", "(8,9)(20,21)",
            "(7,8)(19,20)", "(5,6)(17,18)", "(4,5)(16,17)",
            "(4,22)(5,23)(6,24)(7,19)(8,20)(9,21)(10,16)(11,17)(12,18)",
            "(2,3)(14,15)", "(1,2)(13,14)",
            "(1,4)(2,5)(3,6)(7,22)(8,23)(9,24)(10,19)(11,20)(12,21)(13,16)"
            "(14,17)(15,18)"]),
        "circulant:12:1-2-3-5": ((2, 7, 28, 2), [
            "(4,12)(6,10)", "(3,11)(5,9)", "(2,4)(6,12)(8,10)",
            "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)"]),
    }

    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_pinned_searches(self, label):
        graph = petersen_graph() if label == "petersen" else named_graph(label)
        aut = automorphism_group(graph)
        (searches, nodes, passes, involutions), gens = self.PINNED[label]
        assert aut.stats == {"transporter_searches": searches,
                             "search_nodes": nodes,
                             "refinement_passes": passes,
                             "involutions": involutions}
        assert [str(g) for g in aut.group.generators] == gens

    def test_bare_involution_off_the_colours_is_not_taken(self):
        # (0 2)(3 5) is an automorphism of the bare 6-cycle, and 0 and 2
        # share a colour, but 3 and 5 do not.  Only the reflection
        # (0 3)(1 2)(4 5) keeps the colours, and a search must find it
        graph, colors = cycle_graph(6), list("ooooxx")
        assert is_automorphism(graph, Permutation.from_cycles(6, [(0, 2),
                                                                  (3, 5)]))
        aut = automorphism_group(graph, colors)
        assert aut.order == networkx_aut_order(graph, colors) == 2
        assert aut.stats["transporter_searches"] == 1
        assert aut.stats["involutions"] == 0
        assert [str(g) for g in aut.group.generators] == ["(1,4)(2,3)(5,6)"]

    def test_crown_graph_takes_one_search(self):
        # K_{9,9} minus a perfect matching: each swap of two matched pairs
        # is an involution (v w)(a b), and only the swap of the two sides
        # needs a search
        graph = named_graph("inf:00:cycle:6:antipodal:m3")
        crown = nx.Graph([(i, 9 + j) for i in range(9) for j in range(9)
                          if i != j])
        assert nx.is_isomorphic(nx.Graph(graph.edges()), crown)
        aut = automorphism_group(graph)
        assert aut.order == 2 * math.factorial(9) == 725_760
        assert aut.stats["transporter_searches"] == 1
        assert aut.stats["involutions"] == 8

    def test_discrete_refinement_starts_no_search(self):
        # a triangle 0 1 2 with pendant paths 0-3-5 and 1-4: no symmetry,
        # and degree refinement alone tells every vertex apart
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4),
                                 (3, 5)])
        assert len(set(equitable_refinement(g, [0] * 6))) == 6
        aut = automorphism_group(g)
        assert aut.order == 1
        assert aut.stats["transporter_searches"] == 0
        assert aut.stats["search_nodes"] == 0
        assert aut.stats["refinement_passes"] == 3
        assert aut.group.chain.base == []

    def test_edgeless_graph_needs_no_search(self):
        # every w is v_d's twin: the first path's n - 1 levels each take one
        # transposition, and only the path's own passes run
        aut = automorphism_group(empty_graph(80))
        assert aut.order == math.factorial(80)
        assert aut.stats == {"transporter_searches": 0, "search_nodes": 0,
                             "refinement_passes": 80, "involutions": 79}

    def test_deep_first_path_needs_no_recursion(self):
        # 27 disjoint Petersen graphs have no twins and no fibre swaps, and
        # their first path is 109 levels deep; the search for level 0 runs
        # down all of it: nested calls would need more frames than allowed
        petersen = petersen_graph()
        graph = Graph.from_edges(270, [(u + 10 * i, v + 10 * i)
                                       for i in range(27)
                                       for u, v in petersen.edges()])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            aut = automorphism_group(graph)
        finally:
            sys.setrecursionlimit(limit)
        assert aut.order == 120 ** 27 * math.factorial(27)
        assert len(aut.group.chain.base) == 108
        assert aut.stats["involutions"] == 0


class TestInvolution:
    """``_involution`` checks only the rows it swaps; it agrees with the
    check of every row by ``_maps_onto``."""

    @staticmethod
    def involution_by_maps_onto(graph, v, w):
        rows = [{u for u in range(graph.n) if has_edge(graph, x, u)} - {v, w}
                for x in (v, w)]
        only_v, only_w = rows[0] - rows[1], rows[1] - rows[0]
        images = list(range(graph.n))
        images[v], images[w] = w, v
        if only_v or only_w:
            if len(only_v) != 1 or len(only_w) != 1:
                return None
            (a,), (b,) = only_v, only_w
            images[a], images[b] = b, a
        return images if _maps_onto(graph, images, graph) else None

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(twin_rich_graphs(),
                     coloured_graphs(max_n=9).map(lambda case: case[0])),
           st.data())
    def test_involution_agrees_with_maps_onto(self, graph, data):
        assume(graph.n >= 2)
        v, w = data.draw(st.permutations(range(graph.n)))[:2]
        assert _involution(graph, v, w) == \
            self.involution_by_maps_onto(graph, v, w)

    def test_every_pair_of_random_graphs(self):
        rng = random.Random(42)
        found = 0
        for _ in range(40):
            graph = random_graph(rng, rng.randint(2, 10), rng.random())
            for v, w in itertools.permutations(range(graph.n), 2):
                want = self.involution_by_maps_onto(graph, v, w)
                assert _involution(graph, v, w) == want
                found += want is not None
        assert found > 50


class TestTwins:
    def test_true_twins_in_complete(self):
        g = complete_graph(4)
        pairs = find_twins(g)
        assert pairs == sorted(itertools.combinations(range(4), 2))
        assert all(has_edge(g, u, v) for u, v in pairs)

    def test_false_twins_in_bipartite(self):
        g = lex_product(empty_graph(3), cycle_graph(5))
        pairs = find_twins(g)
        assert pairs == sorted(pairs) and len(pairs) == 5 * 3
        assert not any(has_edge(g, u, v) for u, v in pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(twin_rich_graphs(),
                     coloured_graphs(max_n=12).map(lambda case: case[0])))
    def test_grouped_twins_match_all_pairs(self, g):
        assert find_twins(g) == find_twins_all_pairs(g)

    def test_no_twins_in_cycle(self):
        assert not find_twins(cycle_graph(5))
        assert not find_twins(petersen_graph())

    def test_twin_transposition_is_automorphism(self):
        rng = random.Random(22)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 8))
            for u, v in find_twins(g):
                t = Permutation.from_cycles(g.n, [[u, v]])
                assert is_automorphism(g, t)

    def test_twins_iff_motion_two(self):
        rng = random.Random(23)
        seen_two = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8))
            if automorphism_group(g).order == 1:
                continue
            has_twins = bool(find_twins(g))
            mu = motion(g)
            assert has_twins == (mu == 2)
            seen_two += has_twins
        assert seen_two >= 3   # the sample actually exercised both branches


class TestMotion:
    def test_motion_matches_minimal_degree(self):
        rng = random.Random(24)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 8))
            aut = automorphism_group(g)
            if aut.order == 1:
                continue
            assert motion(g) == aut.group.minimal_degree()

    def test_witness_properties(self):
        for g in (cycle_graph(5), prism_graph(3), petersen_graph(),
                  complete_graph(6), spx_graph(3)):
            mu, w = motion_witness(g)
            assert is_automorphism(g, w)
            assert len(w.support()) == mu

    def test_known_motions(self):
        assert motion(complete_graph(4)) == 2
        assert motion(cycle_graph(4)) == 2
        assert motion(cycle_graph(5)) == 4
        assert motion(cycle_graph(6)) == 4
        assert motion(prism_graph(3)) == 4
        assert motion(petersen_graph()) == 6
        assert motion(circulant_graph(7, [1, 2])) == 6
        assert motion(spx_graph(3)) == 4

    def test_rook_graph_motion_without_enumeration(self):
        # K6 x K6 (Cartesian): 36 vertices, no twins, |Aut| = 1,036,800
        graph = cartesian_product(complete_graph(6), complete_graph(6))
        start = time.perf_counter()
        mu, w = motion_witness(graph)
        assert time.perf_counter() - start < 5
        assert mu == 12 and len(w.support()) == 12
        assert is_automorphism(graph, w)

    def test_witness_matches_brute_force_rule(self):
        """Twin and search paths alike give the least automorphism by
        image tuple among those of prime order and smallest support."""
        rng = random.Random(27)
        graphs = [cycle_graph(n) for n in range(5, 9)] + \
            [prism_graph(3), prism_graph(4), circulant_graph(8, [1, 4])]
        graphs += [random_graph(rng, rng.randint(2, 8),
                                p=rng.choice([0.3, 0.5, 0.7]))
                   for _ in range(40)]
        paths = {True: 0, False: 0}
        for g in graphs:
            auts = closure(g.n, automorphism_group_brute(g).generators)
            if len(auts) == 1:
                continue
            want = min((len(h.support()), h) for h in auts
                       if not h.is_identity() and _is_prime(h.order()))
            assert motion_witness(g) == want
            paths[bool(find_twins(g))] += 1
        assert paths[True] >= 5 and paths[False] >= 5

    def test_rigid_graph_rejected(self):
        # smallest rigid graph has 6 vertices; motion is undefined there
        rigid = Graph.from_edges(6, [(0, 3), (1, 2), (1, 3), (1, 5), (2, 3),
                                     (2, 4), (2, 5), (4, 5)])
        assert automorphism_group(rigid).order == 1
        with pytest.raises(ValueError):
            motion(rigid)


# the reference scan enumerates at most this many elements
REFERENCE_SCAN_LIMIT = 200_000


def reference_scan(group):
    """The witness rule by an element scan: the least element by image
    tuple among the elements of prime order whose support is smallest."""
    best = None
    for g in elements(group.chain, REFERENCE_SCAN_LIMIT):
        if g.is_identity() or not _is_prime(g.order()):
            continue
        if best is None or (len(g.support()), g) < (len(best.support()), best):
            best = g
    return len(best.support()), best


class TestMinimalDegreeWitness:
    def test_random_groups_match_reference_scan(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 8)
            grp = PermGroup(n, [Permutation(rng.sample(range(n), n))
                                for _ in range(rng.randint(1, 3))])
            if grp.is_trivial():
                continue
            assert grp.minimal_degree_witness() == reference_scan(grp)
            assert grp.minimal_degree() == minimal_degree_full_scan(grp)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1,
        max_size=3)))
    def test_search_matches_reference_scan(self, gens):
        grp = PermGroup(gens[0].degree, gens)
        if grp.is_trivial():
            return
        assert grp.minimal_degree_witness() == reference_scan(grp)
        assert grp.minimal_degree() == minimal_degree_full_scan(grp)

    def test_quick_corpus_auts_match_reference_scan(self):
        checked = 0
        for _, graph in corpus_generators(QUICK_SPEC):
            aut = automorphism_group(graph)
            if aut.order == 1:
                continue
            assert aut.group.minimal_degree_witness() \
                == reference_scan(aut.group)
            checked += 1
        assert checked >= 30


def cycle_union(*sizes):
    """The disjoint union of cycles of the given sizes."""
    edges, start = [], 0
    for k in sizes:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return Graph.from_edges(start, edges)


class TestVertexTransitive:
    def test_examples(self):
        assert transitivity_aut(cycle_graph(7)) is not None
        assert transitivity_aut(petersen_graph()) is not None
        assert transitivity_aut(prism_graph(4)) is not None
        assert transitivity_aut(path_graph(4)) is None
        assert transitivity_aut(Graph.from_edges(4, [(0, 1)])) is None
        # regular, so the group decides
        assert transitivity_aut(cycle_union(3, 3)) is not None
        assert transitivity_aut(cycle_union(3, 4)) is None
        assert transitivity_aut(cycle_union(3, 4).complement()) is None

    def test_matches_brute_orbit(self):
        """On random graphs, and on regular ones where the group decides:
        the unions of two cycles on at most 7 vertices and their
        complements."""
        rng = random.Random(25)
        graphs = [random_graph(rng, rng.randint(2, 7)) for _ in range(25)]
        unions = [cycle_union(3, 3), cycle_union(3, 4)]
        for g in graphs + unions + [u.complement() for u in unions]:
            brute = automorphism_group_brute(g)
            reached = len(list(orbit(0, brute.generators)))
            assert (transitivity_aut(g) is not None) == (reached == g.n)


def reference_pair_preserving(sigma, pairs):
    """Oracle: scan Aut(sigma) for the elements mapping pairs to pairs."""
    return sorted(g for g in elements(automorphism_group(sigma).group)
                  if is_invariant_partition(PermGroup(sigma.n, [g]), pairs))


class TestPairPreservingAutomorphisms:
    def test_inf_grid_matches_scan(self):
        for family, n in (("cycle", 4), ("cycle", 6), ("cycle", 8),
                          ("prism", 3)):
            sigma = named_graph(f"{family}:{n}")
            for _, pairs in sigma_matchings(family, n):
                got = aut_preserving_partition(sigma, pairs)
                assert sorted(elements(got)) == \
                    reference_pair_preserving(sigma, pairs)

    def test_random_graphs_match_scan(self):
        rng = random.Random(27)
        for _ in range(40):
            n = rng.choice([2, 4, 6, 8])
            sigma = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
            order = rng.sample(range(n), n)
            pairs = BlockSystem.from_blocks(
                n, [order[i:i + 2] for i in range(0, n, 2)])
            got = aut_preserving_partition(sigma, pairs)
            assert sorted(elements(got)) == \
                reference_pair_preserving(sigma, pairs)

    def test_complete_graph_without_a_scan(self):
        """Aut(K10) has 10! elements; the alternate matching keeps
        2^5 * 5! = 3,840 of them."""
        start = time.perf_counter()
        group = aut_preserving_partition(complete_graph(10),
                                         alternate_matching(10))
        assert time.perf_counter() - start < 5
        assert group.order() == 3840

    def test_partition_must_cover_sigma(self):
        for n in (4, 8):
            with pytest.raises(ValueError):
                aut_preserving_partition(cycle_graph(6),
                                         alternate_matching(n))

    def test_sigma_above_42_vertices(self):
        """The marked graph of C44 has 66 vertices."""
        assert aut_preserving_partition(
            cycle_graph(44), alternate_matching(44)).order() == 44
