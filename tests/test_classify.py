"""Motion-2/4 decomposition, paired-fibre criteria, and the corpus driver."""

import functools
import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (block_systems_all_beta, count_base_changes,
                     decompose_by_search, decompose_by_trying,
                     decompose_motion2_twins, decompose_motion4_all_systems,
                     has_edge, inf_grid,
                     inf_is_vertex_transitive_predicted,
                     inf_motion2_predicted, motion,
                     pair_transposition_in_aut, path_graph, petersen_graph,
                     relabel, restricted_orbits, spx_graph,
                     with_edge_removed)
from smallmotion import autengine, classify, cli, graphcore
from smallmotion.autengine import (automorphism_group, motion_witness,
                                   transitivity_aut)
from smallmotion.classify import (CorpusSpec, GraphRecord,
                                  NotVertexTransitiveError, circulant_corpus,
                                  corpus_generators, decompose, inf_corpus,
                                  invariant_union_corpus, lex_corpus,
                                  named_graph, sigma_matchings,
                                  summarize, verify_corpus, verify_graph)
from smallmotion.graphcore import (Graph, InfParams, _maps_onto, _SourcePath,
                                   are_isomorphic,
                                   circulant_graph, complete_graph, cycle_graph, empty_graph,
                                   inf_graph, lex_product, prism_graph,
                                   quotient_graph, to_graph6)
from smallmotion.permcore import (CapExceededError, Permutation,
                                  format_cycles)


def _assert_one_restricted_orbit(aut, witness):
    """A lex form's block is one orbit of the pointwise stabilizer of its
    complement: Aut of the fibre, acting on the block alone, lies in Aut."""
    group = aut.group
    block = group._block_closure(witness[1].support())
    assert len(restricted_orbits(group, block)) == 1


@functools.lru_cache(maxsize=None)
def motion4_graphs():
    """The vertex-transitive motion-4 graphs of the default corpus and the
    paired-fibre grid."""
    graphs = [g for _, g in corpus_generators(CorpusSpec())]
    graphs += [inf_graph(params, sigma, pairs)
               for _, _, params, sigma, pairs in inf_grid()]
    return [g for g in graphs
            if transitivity_aut(g) is not None and motion(g) == 4]


class TestMotion2Decomposition:
    def test_complete_graph_is_true_twins(self):
        rep = decompose(complete_graph(4))
        assert rep.form == "lex_Km" and rep.m == 4
        assert rep.theta.n == 1
        assert rep.verified

    def test_c4_is_false_twins(self):
        rep = decompose(cycle_graph(4))
        assert rep.form == "lex_mK1" and rep.m == 2
        assert rep.verified

    def test_blown_up_cycle(self):
        g = lex_product(empty_graph(3), cycle_graph(5))
        rep = decompose(g)
        assert rep.form == "lex_mK1" and rep.m == 3
        assert are_isomorphic(rep.theta, cycle_graph(5)) is not None
        assert rep.verified

    def test_roundtrip_random_lex(self):
        for theta in (cycle_graph(5), cycle_graph(6), complete_graph(3)):
            for m in (2, 3):
                for fibre, tag in ((complete_graph(m), "lex_Km"),
                                   (empty_graph(m), "lex_mK1")):
                    g = lex_product(fibre, theta)
                    rep = decompose(g)
                    assert rep.form == tag
                    assert rep.verified

    def test_witness_block_matches_twin_classes(self):
        """The witness block gives the report the twin classes give, on
        the motion-2 graphs of the default corpus and a lex grid."""
        corpus = [g for _, g in corpus_generators(CorpusSpec())]
        fibres = [f(m) for m in (2, 3, 4)
                  for f in (complete_graph, empty_graph)]
        bases = [complete_graph(2), cycle_graph(5), cycle_graph(6),
                 prism_graph(3), cycle_graph(7), empty_graph(3),
                 complete_graph(4)]
        lex = [lex_product(f, b) for f in fibres for b in bases]
        checked = 0
        for g in corpus + lex:
            aut = transitivity_aut(g)
            if aut is None:
                continue
            witness = motion_witness(g, aut=aut)
            if witness[0] != 2:
                continue
            got = decompose(g, witness=witness, aut=aut)
            assert got.as_dict() == decompose_motion2_twins(g).as_dict(), \
                to_graph6(g)
            _assert_one_restricted_orbit(aut, witness)
            checked += 1
        assert checked == 37 + 42

    def test_rejects_non_vertex_transitive(self):
        with pytest.raises(NotVertexTransitiveError):
            decompose(path_graph(4))


class TestMotion4Decomposition:
    def test_c5(self):
        rep = decompose(cycle_graph(5))
        assert rep.form == "lex_C5" and rep.verified

    def test_lex_c5(self):
        rep = decompose(lex_product(cycle_graph(5), complete_graph(2)))
        assert rep.form == "lex_C5" and rep.verified

    def test_prism(self):
        rep = decompose(prism_graph(3))
        assert rep.form == "lex_prism" and rep.m == 3 and rep.verified

    def test_c6_is_coprism(self):
        rep = decompose(cycle_graph(6))
        assert rep.form == "lex_coprism" and rep.m == 3 and rep.verified

    def test_spx_is_paired_fibre(self):
        rep = decompose(spx_graph(3))
        assert rep.form == "inf"
        assert (rep.lam, rep.kap) == (1, 0)
        assert rep.m == 2
        assert are_isomorphic(rep.sigma, cycle_graph(6)) is not None
        assert rep.verified

    def test_inf_instances_recovered(self):
        for token, mname, params, sigma, pairs in inf_grid():
            g = inf_graph(params, sigma, pairs)
            if transitivity_aut(g) is None or motion(g) != 4:
                continue
            rep = decompose(g)
            assert rep.form != "unclassified", (token, mname, params)
            assert rep.verified, (token, mname, params)

    def test_one_chain_per_block_system(self, monkeypatch):
        """The paired fibres are read off the graph: decomposing a
        paired-fibre graph builds no base-change chain."""
        g = inf_graph(InfParams(0, 1, 3), cycle_graph(8),
                      sigma_matchings("cycle", 8)[0][1])
        built = count_base_changes(monkeypatch)
        rep = decompose(g)
        assert rep.form == "inf" and rep.verified
        assert built == []

    def test_corpus_round_builds_no_base_change_chain(self, monkeypatch):
        """A verify_graph round over the default corpus, its 28
        paired-fibre graphs included, builds no chain_with_base chain."""
        built = count_base_changes(monkeypatch)
        records = [verify_graph(item)
                   for item in corpus_generators(CorpusSpec())]
        assert sum(rec.form == "inf" for rec in records) == 28
        assert built == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_outside_classes_match_restricted_orbits(self, data):
        """On every block of every block system of a relabelled motion-4
        graph, the classes of equal outside neighbourhood are two of size
        m exactly when the restricted orbits are, and then the same parts;
        with at most two classes they are the orbits (the fibre lemma)."""
        g = data.draw(st.sampled_from(motion4_graphs()))
        g = relabel(g, data.draw(st.permutations(range(g.n)).map(Permutation)))
        group = automorphism_group(g).group
        for bs in block_systems_all_beta(group):
            m = len(bs.blocks[0]) // 2
            for block in bs.blocks:
                classes = classify._outside_classes(g, block)
                orbits = restricted_orbits(group, block)
                assert ([len(c) for c in classes] == [m, m]) == \
                    ([len(o) for o in orbits] == [m, m])
                if len(classes) <= 2:
                    assert classes == orbits

    def test_witness_block_matches_all_systems_search(self):
        """The witness block gives the report the search over every block
        system gives, on the motion-4 graphs of the default corpus, the
        paired-fibre grid and a lex grid."""
        corpus = [g for _, g in corpus_generators(CorpusSpec())]
        grid = [inf_graph(params, sigma, pairs)
                for _, _, params, sigma, pairs in inf_grid()]
        fibres = [cycle_graph(5), prism_graph(3), prism_graph(4)]
        fibres += [f.complement() for f in fibres]
        bases = [complete_graph(2), empty_graph(2), cycle_graph(5),
                 petersen_graph()]
        lex = [lex_product(f, b) for f in fibres for b in bases
               if f.n * b.n <= 64]
        checked = 0
        for g in corpus + grid + lex:
            aut = transitivity_aut(g)
            if aut is None:
                continue
            witness = motion_witness(g, aut=aut)
            if witness[0] != 4:
                continue
            want = decompose_motion4_all_systems(g)
            assert want is not None, to_graph6(g)
            got = decompose(g, witness=witness, aut=aut)
            assert got.as_dict() == want.as_dict(), to_graph6(g)
            if got.form.startswith("lex_"):
                _assert_one_restricted_orbit(aut, witness)
            checked += 1
        assert checked == 42 + 50 + 22

    def test_unclassified_report(self, monkeypatch, capsys):
        monkeypatch.setattr(classify, "_try_lex_form", lambda *args: None)
        monkeypatch.setattr(classify, "_try_inf_form", lambda *args: None)
        g = prism_graph(3)
        rep = decompose(g)
        assert rep.form == "unclassified" and not rep.verified
        x = motion_witness(g)[1]
        group = automorphism_group(g).group
        assert rep.diagnostics["witness"] == format_cycles(x)
        assert rep.diagnostics["block"] == \
            sorted(group._block_closure(x.support()))
        assert cli.main(["classify", "prism:3"]) == cli.EXIT_FALSIFIED
        assert "unclassified" in capsys.readouterr().out

    def test_dispatch(self):
        assert decompose(cycle_graph(4)).form == "lex_mK1"
        assert decompose(cycle_graph(5)).form == "lex_C5"
        with pytest.raises(ValueError):
            decompose(cycle_graph(7))


@functools.lru_cache(maxsize=None)
def lex_and_inf_graphs():
    """The vertex-transitive motion-2/4 graphs of a lex grid and of the
    paired-fibre grid."""
    fibres = [complete_graph(2), empty_graph(3), cycle_graph(5),
              prism_graph(3), prism_graph(3).complement()]
    bases = [complete_graph(2), empty_graph(2), cycle_graph(5)]
    graphs = [lex_product(f, b) for f in fibres for b in bases]
    graphs += [inf_graph(params, sigma, pairs)
               for _, _, params, sigma, pairs in inf_grid()]
    return [g for g in graphs
            if transitivity_aut(g) is not None and motion(g) in (2, 4)]


def witness_blocks(spec):
    """(graph, aut, witness, witness block) for each vertex-transitive
    motion-2/4 graph of the corpus."""
    for _, g in corpus_generators(spec):
        aut = transitivity_aut(g)
        if aut is None:
            continue
        witness = motion_witness(g, aut=aut)
        if witness[0] in (2, 4):
            yield g, aut, witness, aut.group._block_closure(
                witness[1].support())


class TestOneFormPerWitnessBlock:
    """The witness block's outside classes pick the one form decompose
    tries; the reports equal those of trying the lex forms first."""

    def test_matches_trying_lex_forms_first(self):
        checked = 0
        for g, aut, witness, _ in witness_blocks(CorpusSpec(circulant_max=16)):
            got = decompose(g, witness=witness, aut=aut)
            want = decompose_by_trying(g, witness=witness, aut=aut)
            assert got.as_dict() == want.as_dict(), to_graph6(g)
            checked += 1
        assert checked == 108

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_matches_trying_lex_forms_first(self, data):
        g = data.draw(st.sampled_from(lex_and_inf_graphs()))
        g = relabel(g, data.draw(st.permutations(range(g.n)).map(Permutation)))
        assert decompose(g).as_dict() == decompose_by_trying(g).as_dict()

    def test_classes_pick_the_form(self):
        """On the default corpus, one outside class means a lex form and
        the paired-fibre attempt fails; two mean the paired-fibre form,
        and the lex product of the block's subgraph over the quotient,
        which a lex attempt reconstructs, has more edges than the graph."""
        counts = {1: 0, 2: 0}
        lex_reports = 0
        for g, aut, witness, block in witness_blocks(CorpusSpec()):
            classes = len(classify._outside_classes(g, block))
            counts[classes] += 1
            form = decompose(g, witness=witness, aut=aut).form
            mu, bs = witness[0], aut.group.block_system_from(block)
            all_classes = [classify._outside_classes(g, b) for b in bs.blocks]
            if classes == 1:
                assert form.startswith("lex_")
                assert classify._try_inf_form(g, mu, bs, all_classes) is None
                continue
            assert form == "inf" and mu == 4
            sub, _ = g.induced_subgraph(bs.blocks[0])
            lex = lex_product(sub, quotient_graph(g, bs.blocks))
            assert lex.num_edges() > g.num_edges(), to_graph6(g)
            found = classify._try_lex_form(g, mu, bs, _SourcePath(
                sub, [0] * sub.n), aut.group)
            if found is not None:
                report, _ = found
                assert report.reconstruction.num_edges() == lex.num_edges()
                lex_reports += 1
        assert counts == {1: 51, 2: 28} and lex_reports > 0

    def test_one_attempt_per_decomposition(self, monkeypatch):
        """A verify_graph round over the default corpus calls one of
        _try_lex_form and _try_inf_form per decomposition."""
        calls = []
        for name in ("_try_lex_form", "_try_inf_form"):
            original = getattr(classify, name)
            monkeypatch.setattr(classify, name, lambda *args, f=original,
                                name=name: (calls.append(name), f(*args))[1])
        records = [verify_graph(item)
                   for item in corpus_generators(CorpusSpec())]
        forms = [rec.form for rec in records if rec.form is not None]
        assert calls == ["_try_inf_form" if form == "inf" else "_try_lex_form"
                         for form in forms]


@functools.lru_cache(maxsize=None)
def inf_graphs_by_bits() -> dict:
    """(m, lambda, kappa) -> the graphs of the small grid's bases with that
    multiplicity and those bits, for m in {2, 3, 4}, that the search-only
    route decomposes in the paired-fibre form."""
    out: dict = {}
    for token, _, params, sigma, pairs in inf_grid(ms=(2, 3, 4)):
        g = inf_graph(params, sigma, pairs)
        if transitivity_aut(g) is not None and motion(g) == 4 and \
                decompose_by_search(g).form == "inf":
            out.setdefault((params.m, params.lam, params.kap), []).append(g)
    assert len(out) == 12
    return out


def unclassified_report(g) -> dict:
    """The ``as_dict`` of decompose's unclassified report on g."""
    aut = transitivity_aut(g)
    mu, x = motion_witness(g, aut=aut)
    return {"motion": mu, "form": "unclassified", "verified": False,
            "diagnostics": {
                "graph6": to_graph6(g), "aut_order": aut.group.order(),
                "aut_generators": [str(h) for h in aut.group.generators],
                "witness": format_cycles(x),
                "block": sorted(aut.group._block_closure(x.support()))}}


def searches_from(monkeypatch) -> list:
    """The first graphs of the ``are_isomorphic`` calls classify makes from
    now on.  A round-trip search would start from the input graph itself;
    a fibre test starts from the block's subgraph, a new graph."""
    calls = []
    original = classify.are_isomorphic
    monkeypatch.setattr(classify, "are_isomorphic", lambda g1, *rest: (
        calls.append(g1), original(g1, *rest))[1])
    return calls


def patch_candidates(monkeypatch, change):
    """Make each decomposition attempt return change(graph, report,
    images) as its candidate images."""
    for name in ("_try_lex_form", "_try_inf_form"):
        original = getattr(classify, name)

        def patched(graph, *args, f=original):
            found = f(graph, *args)
            return found and (found[0], change(graph, *found))
        monkeypatch.setattr(classify, name, patched)


class TestCandidateIsomorphism:
    """decompose checks the candidate isomorphism each attempt builds onto
    its reconstruction, and nothing else: no search runs on the whole
    graph.  The reports equal those of the search-only route."""

    def test_candidate_holds_on_the_corpus(self, monkeypatch):
        """On the 108 decompositions of CorpusSpec(circulant_max=16), the
        79 of the default corpus among them, no round trip searches, and
        a paired-fibre decomposition runs no isomorphism test at all."""
        items = list(witness_blocks(CorpusSpec(circulant_max=16)))
        searched = searches_from(monkeypatch)
        for g, aut, witness, _ in items:
            searched.clear()
            got = decompose(g, witness=witness, aut=aut)
            assert got.verified, to_graph6(g)
            assert not any(h is g for h in searched), to_graph6(g)
            assert got.form != "inf" or searched == [], to_graph6(g)
            assert got.as_dict() == decompose_by_search(
                g, witness=witness, aut=aut).as_dict(), to_graph6(g)
        assert len(items) == 108

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_matches_search_route(self, data):
        """Relabelled lex and paired-fibre graphs: the candidate holds, and
        the report is the search-only route's."""
        g = data.draw(st.sampled_from(lex_and_inf_graphs()))
        g = relabel(g, data.draw(st.permutations(range(g.n)).map(Permutation)))
        with pytest.MonkeyPatch.context() as mp:
            searched = searches_from(mp)
            got = decompose(g)
        assert got.verified and not any(h is g for h in searched)
        assert got.as_dict() == decompose_by_search(g).as_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelled_inf_bits_match_the_fibre_search(self, data):
        """Relabelled paired-fibre graphs with m in {2, 3, 4} and every
        (lambda, kappa): the bits read off the fibres give the report of
        the route that finds them by fibre searches."""
        graphs = inf_graphs_by_bits()
        g = data.draw(st.sampled_from(graphs[data.draw(
            st.sampled_from(sorted(graphs)))]))
        g = relabel(g, data.draw(st.permutations(range(g.n)).map(Permutation)))
        got = decompose(g)
        assert got.verified and got.form == "inf"
        assert got.as_dict() == decompose_by_search(g).as_dict()

    @pytest.mark.parametrize("token", ["prism:3", "lex:complete:2:cycle:5",
                                       "inf:01:cycle:6:alternate:m2",
                                       "inf:10:prism:3:rungs:m3"])
    def test_bad_map_unclassified(self, monkeypatch, token):
        """A candidate with two images swapped so that it maps some edge
        onto a non-edge: no search rescues it, and the report is the
        unclassified one with the usual diagnostics."""
        g = named_graph(token)
        assert decompose(g).verified

        def swap_two(graph, report, images):
            for v in range(1, graph.n):
                swapped = list(images)
                swapped[0], swapped[v] = images[v], images[0]
                if not _maps_onto(graph, swapped, report.reconstruction):
                    return swapped
            raise AssertionError("every swap is an isomorphism")
        patch_candidates(monkeypatch, swap_two)
        searched = searches_from(monkeypatch)
        got = decompose(g)
        assert got.as_dict() == unclassified_report(g)
        assert not any(h is g for h in searched)

    def test_non_bijection_never_reaches_the_edge_check(self, monkeypatch):
        """``_maps_onto`` passes any list on edgeless graphs, so a candidate
        that is not a bijection is rejected before it, and the graph is
        left unclassified."""
        assert _maps_onto(empty_graph(2), [0, 0], empty_graph(2))
        g = empty_graph(3)
        checked = []
        original = classify._maps_onto
        monkeypatch.setattr(classify, "_maps_onto", lambda *args: (
            checked.append(args), original(*args))[1])
        patch_candidates(monkeypatch, lambda graph, report, images:
                         [0] * graph.n)
        searched = searches_from(monkeypatch)
        got = decompose(g)
        assert got.as_dict() == unclassified_report(g)
        assert checked == [] and not any(h is g for h in searched)

    def test_decompose_builds_no_edge_list(self, monkeypatch):
        """The reconstructions, quotients and fibres are written as rows."""
        items = list(witness_blocks(CorpusSpec()))
        built = []
        original = Graph.from_edges.__func__
        monkeypatch.setattr(graphcore.Graph, "from_edges", classmethod(
            lambda cls, *args: (built.append(args), original(cls, *args))[1]))
        for g, aut, witness, _ in items:
            assert decompose(g, witness=witness, aut=aut).verified
        assert built == [] and len(items) == 79


class TestOneAutPerGraph:
    """A verdict on one graph computes its automorphism group once."""

    @pytest.fixture
    def aut_calls(self, monkeypatch):
        calls = []
        original = autengine.automorphism_group

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return original(graph, *args, **kwargs)

        for module in (autengine, classify, cli):
            if hasattr(module, "automorphism_group"):
                monkeypatch.setattr(module, "automorphism_group", counting)
        return calls

    def test_verify_graph(self, aut_calls):
        rec = verify_graph(("prism:3", prism_graph(3)))
        assert rec.motion == 4 and rec.form == "lex_prism" and rec.verified
        assert len(aut_calls) == 1

    def test_decompose_motion4(self, aut_calls):
        assert decompose(prism_graph(3)).form == "lex_prism"
        assert len(aut_calls) == 1

    def test_cli_classify(self, aut_calls, capsys):
        assert cli.main(["classify", "prism:3"]) == cli.EXIT_OK
        assert "lex_prism" in capsys.readouterr().out
        assert len(aut_calls) == 1


class TestOnePathPerGraph:
    """A verdict builds the graph's first path once, in its Aut
    computation, and a lex decomposition one more, of the block's
    subgraph, shared by every fibre candidate."""

    def test_motion4_verify_graph_paths_per_form(self, monkeypatch):
        """Two paths for a lex form, one for the paired-fibre form."""
        built = []
        original = graphcore._SourcePath.__init__

        def recording(self, graph, colors):
            built.append(graph)
            original(self, graph, colors)

        monkeypatch.setattr(graphcore._SourcePath, "__init__", recording)
        for token, form in (("prism:3", "lex_prism"),
                            ("circulant:10:1-2-3-5", "lex_C5"),
                            ("inf:01:cycle:6:alternate:m2", "inf")):
            built.clear()
            graph = named_graph(token)
            rec = verify_graph((token, graph))
            assert (rec.motion, rec.form, rec.verified) == (4, form, True)
            assert len(built) == (1 if form == "inf" else 2)
            assert built[0] is graph

    def test_corpus_builds_one_path_per_raw_graph(self, monkeypatch):
        """corpus_generators tests each raw graph against the kept graphs
        of its order on one path of its own; the labels stay pinned."""
        built = []
        original = graphcore._SourcePath.__init__

        def recording(self, graph, colors):
            built.append(graph)
            original(self, graph, colors)

        monkeypatch.setattr(graphcore._SourcePath, "__init__", recording)
        spec = CorpusSpec()
        labels = [label for label, _ in corpus_generators(spec)]
        raw = list(itertools.chain(
            circulant_corpus(spec.circulant_max),
            inf_corpus(spec.inf_sigmas, spec.inf_ms),
            lex_corpus(spec.lex_deltas, spec.lex_thetas),
            invariant_union_corpus(spec.invariant_union_ms)))
        assert len(built) == len({id(g) for g in built}) == len(raw) == 172
        assert [to_graph6(g) for g in built] == [to_graph6(g) for _, g in raw]
        assert len(labels) == 122
        assert labels[:2] == ["circulant:2:", "circulant:3:"]
        assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == \
            "d5a04e51b9dd0faeb6ec2621916c0a6ebe16d8e0637a950f17d37062fdb49687"


class TestInfIdentities:
    def test_complement_identity(self):
        # vertex-indexed equality, not just isomorphism
        for token, mname, params, sigma, pairs in inf_grid():
            g = inf_graph(params, sigma, pairs)
            flipped = InfParams((params.lam + 1) % 2, (params.kap + 1) % 2,
                                params.m)
            assert g.complement() == inf_graph(flipped, sigma.complement(),
                                               pairs), (token, mname, params)

    def test_edge_pruning_identity(self):
        # an edge of sigma joining a matched pair never affects the result
        for token, mname, params, sigma, pairs in inf_grid():
            g = inf_graph(params, sigma, pairs)
            for a, b in pairs.blocks:
                if has_edge(sigma, a, b):
                    pruned = with_edge_removed(sigma, a, b)
                    assert inf_graph(params, pruned, pairs) == g, \
                        (token, mname, params, (a, b))


class TestPairedFibreCriteria:
    def test_pair_transposition(self):
        sigma = named_graph("cycle:6")
        for name, pairs in sigma_matchings("cycle", 6):
            has = pair_transposition_in_aut(sigma, pairs)
            # no single transposition fixes a 6-cycle
            assert not has
        sigma = named_graph("prism:3")
        rungs = dict(sigma_matchings("prism", 3))["rungs"]
        assert not pair_transposition_in_aut(sigma, rungs)

    def test_vertex_transitivity_prediction(self):
        for token, mname, params, sigma, pairs in inf_grid():
            g = inf_graph(params, sigma, pairs)
            assert (transitivity_aut(g) is not None) == \
                   inf_is_vertex_transitive_predicted(sigma, pairs), \
                   (token, mname, params)

    def test_motion_dichotomy_readings(self):
        """Both readings of the motion-2 criterion, compared per instance.

        The computed motions decide which reading is faithful.  Outcome on
        this grid: for m >= 3 the parity reading ("unequal") matches every
        instance and the "equal" reading is refuted; at m = 2 the small
        fibres admit extra motion-2 collapses even when the bits agree.
        """
        misses = {"equal": [], "unequal": []}
        exercised = 0
        for token, mname, params, sigma, pairs in inf_grid():
            g = inf_graph(params, sigma, pairs)
            if transitivity_aut(g) is None:
                continue
            mu = motion(g)
            exercised += 1
            for reading in misses:
                pred = inf_motion2_predicted(params, sigma, pairs, reading)
                if pred != (mu == 2):
                    misses[reading].append((token, mname, params))
        assert exercised >= 20
        assert not [t for t in misses["unequal"] if t[2].m >= 3]
        assert [t for t in misses["equal"] if t[2].m >= 3]
        # the m = 2 exceptions are exactly the equal-bit antipodal 4-cycles
        assert all(p.m == 2 and p.lam == p.kap and mn == "antipodal"
                   for _, mn, p in misses["unequal"])


class TestCorpus:
    def test_named_graph_tokens(self):
        assert named_graph("complete:4") == complete_graph(4)
        assert named_graph("cycle:6") == cycle_graph(6)
        assert named_graph("circulant:7:1-2").num_edges() == 14
        assert named_graph("lex:complete:2:cycle:5") == lex_product(
            complete_graph(2), cycle_graph(5))
        assert named_graph("lex:lex:empty:2:complete:2:cycle:5") == \
            lex_product(lex_product(empty_graph(2), complete_graph(2)),
                        cycle_graph(5))
        for token in ("widget:3", "cycle", "prism:3:1", "circulant:5",
                      "circulant:7:1:2", "lex:cycle:5", "lex:cycle:5:cycle",
                      "inf:12:cycle:6:alternate:m2",
                      "inf:1:cycle:6:alternate:m2",
                      "inf:10:cycle:6:rungs:m2", "inf:10:cycle:6:alternate:2",
                      "inf:10:cycle:5:alternate:m2",
                      "inf:10:circulant:6:1:alternate:m2",
                      "inf:10:cycle:6:alternate:m2:1",
                      "invariant:tauxsym:m3:8", "invariant:tauxsym:m3:-1",
                      "invariant:widget:m3:0", "invariant:tauxsym:3:0"):
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                named_graph(token)

    def test_corpus_labels_are_tokens(self):
        """Every corpus label names its graph, so a verify record can be
        replayed with ``smallmotion classify <label>``."""
        items = list(corpus_generators(CorpusSpec()))
        assert len(items) == 122
        assert {label.split(":")[0] for label, _ in items} == {
            "circulant", "inf", "lex", "invariant"}
        for label, graph in items:
            assert named_graph(label) == graph, label

    def test_circulant_corpus_labels_parse_back(self):
        # "circulant:N:" is the empty connection set, the edgeless graph
        assert named_graph("circulant:5:") == empty_graph(5)
        for n in range(2, 13):
            half = range(1, n // 2 + 1)
            for r in range(len(half) + 1):
                for s in itertools.combinations(half, r):
                    label = f"circulant:{n}:" + "-".join(map(str, s))
                    assert named_graph(label) == circulant_graph(n, s), label
        for label, graph in circulant_corpus(12):
            assert named_graph(label) == graph, label

    def test_corpus_is_deterministic(self):
        spec = CorpusSpec(circulant_max=8)
        first = [(label, to_graph6(g)) for label, g in corpus_generators(spec)]
        second = [(label, to_graph6(g)) for label, g in corpus_generators(spec)]
        assert first == second

    def test_verify_graph_record(self):
        rec = verify_graph(("cycle:5", cycle_graph(5)))
        assert rec.vertex_transitive and rec.motion == 4
        assert rec.form == "lex_C5" and rec.verified
        rec = verify_graph(("path:4", path_graph(4)))
        assert not rec.vertex_transitive

    def test_one_vertex_has_no_motion(self):
        """K1's automorphism group is trivial: the record says the motion
        is undefined instead of failing."""
        rec = verify_graph(("empty:1", empty_graph(1)))
        assert rec.vertex_transitive and rec.error == "motion undefined"
        assert rec.motion is None and rec.form is None
        assert summarize([rec]).ok

    def test_cap_is_recorded_not_raised(self, monkeypatch):
        def capped(*args, **kwargs):
            raise CapExceededError("SMALLMOTION_CAP=5 reached")

        monkeypatch.setattr(classify, "motion_witness", capped)
        rec = verify_graph(("cycle:5", cycle_graph(5)))
        assert rec.vertex_transitive and rec.motion is None
        assert rec.error == "cap exceeded: SMALLMOTION_CAP=5 reached"

    def test_summary_collects_each_falsification(self):
        """An odd prime motion and an unverified decomposition each make
        the summary fail; a graph that is not vertex-transitive is only
        counted."""
        odd = GraphRecord("odd", "g6", True, motion=3)
        unverified = GraphRecord("bad", "g6", True, motion=2,
                                 form="lex_mK1", verified=False)
        fine = GraphRecord("fine", "g6", True, motion=2, form="lex_mK1",
                           verified=True)
        not_vt = GraphRecord("path", "g6", False)
        summary = summarize([odd, unverified, fine, not_vt])
        assert summary.odd_prime_motions == ["odd"]
        assert summary.falsifications == ["bad"]
        assert summary.non_vertex_transitive == 1
        assert summary.motion_counts == {3: 1, 2: 2}
        assert summary.form_counts == {"lex_mK1": 2}
        assert not summary.ok and not summary.as_dict()["ok"]
        for bad in (odd, unverified):
            assert not summarize([fine, bad]).ok
        assert summarize([fine, not_vt]).ok

    def test_small_corpus_summary(self):
        spec = CorpusSpec(circulant_max=8, inf_sigmas=("cycle:4", "cycle:6"),
                          inf_ms=(2,), lex_thetas=("complete:2",))
        summary = verify_corpus(spec)
        assert summary.ok
        assert not summary.odd_prime_motions
        assert not summary.falsifications
        assert "unclassified" not in summary.form_counts

    def test_parallel_matches_serial(self):
        spec = CorpusSpec(circulant_max=6, inf_sigmas=("cycle:4",),
                          inf_ms=(2,), lex_deltas=("complete:2",),
                          lex_thetas=("complete:2",), invariant_union_ms=())
        serial = verify_corpus(spec, jobs=1)
        parallel = verify_corpus(spec, jobs=2)
        assert [r.as_dict() for r in serial.records] == \
               [r.as_dict() for r in parallel.records]

    def test_workers_are_bounded(self, monkeypatch):
        """At most min(jobs, items, CPUs) workers; the stand-in pool
        records its size and runs the items in this process."""
        import multiprocessing
        spec = CorpusSpec(circulant_max=5, inf_sigmas=(), lex_deltas=(),
                          lex_thetas=(), invariant_union_ms=())
        items = len(list(corpus_generators(spec)))
        requested = []

        class RecordingPool:
            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, iterable):
                return list(map(func, iterable))

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(classify.os, "cpu_count", lambda: items + 1)
        serial = verify_corpus(spec, jobs=1)
        assert verify_corpus(spec, jobs=10**6).records == serial.records
        assert verify_corpus(spec, jobs=2).records == serial.records
        monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
        verify_corpus(spec, jobs=8)
        assert requested == [items, 2]
