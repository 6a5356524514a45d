"""Command-line interface: outputs, determinism, and exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smallmotion
from oracles import cartesian_product, path_graph
from smallmotion import cli
from smallmotion.classify import CorpusSpec, corpus_generators
from smallmotion.cli import (EXIT_CAP, EXIT_FALSIFIED, EXIT_INTERNAL,
                             EXIT_INVALID, EXIT_OK, SCHEMA_VERSION, main)
from smallmotion.graphcore import Graph, complete_graph, cycle_graph, to_graph6
from smallmotion.grouptables import RowCheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_named_family(self, capsys):
        code, out, _ = run(capsys, "construct", "cycle:5")
        assert code == EXIT_OK
        assert out.strip() == to_graph6(cycle_graph(5))

    def test_circulant(self, capsys):
        code, out, _ = run(capsys, "construct", "circulant:7:1-2")
        assert code == EXIT_OK
        assert out.strip() == "FzM]W"

    def test_inf_reproduces_known_encoding(self, capsys):
        code, out, _ = run(capsys, "construct", "inf:10:cycle:6:alternate:m2")
        assert code == EXIT_OK
        assert out.strip() == "KQKoOGB?u@WA"

    def test_lex_reproduces_known_encoding(self, capsys):
        code, out, _ = run(capsys, "construct", "lex:complete:2:cycle:5")
        assert code == EXIT_OK
        assert out.strip() == "I~KwW^Bow"

    def test_describe_structured(self, capsys):
        code, out, _ = run(capsys, "--format", "structured",
                           "construct", "cycle:6", "--describe")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["vertices"] == 6 and doc["edges"] == 6

    def test_structured_output_is_byte_stable(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "--format", "structured",
                            "construct", "prism:3", "--describe")
            outs.add(out)
        assert len(outs) == 1

    def test_unknown_family_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "construct", "widget:9")
        assert code == EXIT_INVALID
        assert "error" in err

    def test_token_without_size_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "construct", "cycle")
        assert code == EXIT_INVALID
        assert "fields" in err

    @pytest.mark.parametrize("token, message", [
        ("prism:-1", "prism order must be at least 0, got -1"),
        ("inf:2:cycle:4:alternate:m2", "expected two bits, got '2'"),
        ("inf:012:cycle:4:alternate:m2", "expected two bits, got '012'"),
        ("inf::cycle:4:alternate:m2", "expected two bits, got ''"),
        ("inf:0x:cycle:4:alternate:m2", "expected two bits, got '0x'"),
        ("inf:00:cycle:4:alternate:mx", "expected m<size>, got 'mx'"),
        ("cycle:x", "expected an integer, got 'x'"),
        ("cycle:", "expected an integer, got ''"),
        ("circulant:x:1", "expected an integer, got 'x'"),
        ("circulant:3:1.5", "expected an integer, got '1.5'"),
    ])
    def test_bad_field_is_named_with_its_rule(self, capsys, token, message):
        code, _, err = run(capsys, "construct", token)
        assert code == EXIT_INVALID
        assert f"graph token {token!r}: {message}" in err
        for internal in ("unpack", "invalid literal", "shift count"):
            assert internal not in err

    def test_circulant_without_order_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "construct", "circulant")
        assert code == EXIT_INVALID
        assert "fields" in err

    def test_circulant_of_order_zero_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "construct", "circulant:0:1")
        assert code == EXIT_INVALID
        assert "at least 1" in err

    def test_lex_without_base_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "construct", "lex:cycle:5")
        assert code == EXIT_INVALID
        assert "fields" in err and "'lex:cycle:5'" in err


class TestMotion:
    def test_token_input(self, capsys):
        code, out, _ = run(capsys, "motion", "cycle:5")
        assert code == EXIT_OK
        assert "motion 4" in out

    def test_lex_token_input(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "motion",
                           "lex:complete:2:cycle:5")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["motion"] == 2

    def test_stdin_multiple_graphs(self, capsys, monkeypatch):
        lines = "\n".join(to_graph6(cycle_graph(n)) for n in (4, 5)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "--format", "structured", "motion", "-")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [r["motion"] for r in doc["results"]] == [2, 4]

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("SMALLMOTION_CAP", "2")
        code, _, err = run(capsys, "motion", "cycle:200")
        assert code == EXIT_CAP
        assert "transporter search" in err and "SMALLMOTION_CAP=2" in err

    def test_rigid_token_is_named(self, capsys):
        code, _, err = run(capsys, "motion", "circulant:1:")
        assert code == EXIT_INVALID
        assert err == "error: graph token 'circulant:1:': trivial " \
            "automorphism group: motion is undefined\n"

    def test_graph_above_64_vertices(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "motion",
                           "circulant:65:1-3")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["motion"] == 64

    def test_token_with_extra_field_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "motion", "circulant:7:1:2")
        assert code == EXIT_INVALID
        assert "fields" in err

    def test_circulant_token_with_empty_set_is_edgeless(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "motion",
                           "circulant:5:")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["motion"] == 2

    def test_circulant_token_of_order_zero_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "motion", "circulant:0:1")
        assert code == EXIT_INVALID
        assert "at least 1" in err

    def test_garbage_graph_is_invalid_input(self, capsys):
        code, _, _ = run(capsys, "motion", "!!not-a-graph!!")
        assert code == EXIT_INVALID

    def test_out_of_range_vertex_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "motion", "n 3\n1 5")
        assert code == EXIT_INVALID
        assert "outside" in err

    def test_negative_vertex_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "motion", "n 3\n0 2")
        assert code == EXIT_INVALID
        assert "outside" in err

    @pytest.mark.parametrize("text, message", [
        ("n 3\n1 4", "line 2: vertex 4 outside 1..3"),
        ("n 3\n1 2 3", "line 2: expected two vertices, got '1 2 3'"),
        ("n 3\n1 x", "line 2: expected two vertices, got '1 x'"),
    ])
    def test_edge_list_errors_use_the_input_numbering(self, capsys, text,
                                                      message):
        code, _, err = run(capsys, "motion", text)
        assert code == EXIT_INVALID
        assert err == f"error: {message}\n"


def random_graph6(seed, n):
    rng = random.Random(seed)
    return to_graph6(Graph.from_edges(n, [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < 0.5]))


@st.composite
def mangled_graph6(draw):
    """A graph6 string of a random graph, truncated or with characters
    replaced."""
    text = random_graph6(draw(st.integers(0, 2**32)), draw(st.integers(0, 10)))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(0, 3))):
        if text:
            i = draw(st.integers(0, len(text) - 1))
            c = draw(st.characters(min_codepoint=32, max_codepoint=126))
            text = text[:i] + c + text[i + 1:]
    return text


@st.composite
def mangled_edge_lists(draw):
    """Edge-list texts with out-of-range, non-numeric, missing and extra
    fields."""
    field = st.one_of(st.integers(-3, 14).map(str),
                      st.sampled_from(["x", "1.5", "", "n", "#"]))
    header = draw(st.one_of(
        st.integers(-2, 12).map(lambda n: f"n {n}"),
        st.lists(field, max_size=3).map(lambda fs: " ".join(["n"] + fs))))
    lines = draw(st.lists(st.lists(field, max_size=3).map(" ".join),
                          max_size=8))
    return "\n".join([header] + lines)


class TestMotionFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.builds(random_graph6, st.integers(0, 2**32), st.integers(0, 10)),
        mangled_graph6(), mangled_edge_lists()))
    def test_motion_never_crashes(self, text):
        # a leading "-" would be read as an option or as stdin
        assume(not text.strip().startswith("-"))
        assert main(["motion", text]) in (EXIT_OK, EXIT_INVALID, EXIT_CAP)


CORPUS_LABELS = [label for label, _ in corpus_generators(CorpusSpec())]


@st.composite
def mangled_tokens(draw):
    """A CorpusSpec() label with a field dropped, repeated, swapped with
    another or replaced by a bad value or a small integer, once or twice.
    Every integer field stays at 12 or below, as no limit bounds the
    graph's order, and at least two fields stay, so the text stays a
    token rather than a graph6 or edge-list literal."""
    fields = draw(st.sampled_from(CORPUS_LABELS)).split(":")
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(fields) - 1))
        change = draw(st.sampled_from(["drop", "repeat", "swap", "replace"]))
        if change == "drop" and len(fields) > 2:
            del fields[i]
        elif change == "repeat":
            fields.insert(i, fields[i])
        elif change == "swap":
            j = draw(st.integers(0, len(fields) - 1))
            fields[i], fields[j] = fields[j], fields[i]
        elif change == "replace":
            fields[i] = draw(st.sampled_from(["", "x", "-1", "1.5"])
                             | st.integers(0, 12).map(str))
    return ":".join(fields)


class TestTokenFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mangled_tokens())
    def test_mangled_tokens_never_crash(self, token):
        # a leading "-" would be read as an option
        assume(not token.startswith("-"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["motion", token])
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_CAP)
        if code == EXIT_INVALID:
            assert repr(token) in err.getvalue()


class TestExitCodes:
    def test_crash_is_internal_error_not_falsification(self, capsys,
                                                       monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("planted failure")

        monkeypatch.setattr(cli, "motion_witness", crash)
        code, _, err = run(capsys, "motion", "cycle:5")
        assert code == EXIT_INTERNAL
        assert "RuntimeError" in err and "planted failure" in err

    def test_internal_key_error_is_not_invalid_input(self, capsys,
                                                     monkeypatch):
        """No input path raises KeyError, so one is a library bug."""
        def crash(*args, **kwargs):
            raise KeyError("planted")

        monkeypatch.setattr(cli, "motion_witness", crash)
        code, _, err = run(capsys, "motion", "cycle:5")
        assert code == EXIT_INTERNAL
        assert "KeyError" in err and "planted" in err

    def test_search_cap_exits_3(self, capsys, monkeypatch):
        # the transporter searches of Aut(K6 x K6) take more than 50 nodes
        rook = cartesian_product(complete_graph(6), complete_graph(6))
        monkeypatch.setenv("SMALLMOTION_CAP", "50")
        code, _, err = run(capsys, "motion", to_graph6(rook))
        assert code == EXIT_CAP
        assert "transporter search" in err and "SMALLMOTION_CAP=50" in err


class TestCapVariable:
    def test_invalid_cap_is_invalid_input(self):
        src = str(Path(smallmotion.__file__).resolve().parents[1])
        env = dict(os.environ, SMALLMOTION_CAP="abc", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "smallmotion.cli", "motion", "cycle:5"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID
        assert "Traceback" not in proc.stderr
        assert "SMALLMOTION_CAP" in proc.stderr and "'abc'" in proc.stderr


class TestClassify:
    def test_motion2(self, capsys):
        code, out, _ = run(capsys, "--format", "structured",
                           "classify", "cycle:4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"][0]["form"] == "lex_mK1"
        assert doc["results"][0]["verified"]

    def test_motion4(self, capsys):
        code, out, _ = run(capsys, "classify", "prism:3")
        assert code == EXIT_OK
        assert "lex_prism" in out

    def test_inf_token(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "classify",
                           "inf:10:cycle:6:alternate:m2")
        assert code == EXIT_OK
        result = json.loads(out)["results"][0]
        assert result["form"] == "inf" and result["verified"]
        assert (result["lambda"], result["kappa"], result["m"]) == (1, 0, 2)

    def test_large_motion_is_informational(self, capsys):
        code, out, _ = run(capsys, "classify", "circulant:7:1-2")
        assert code == EXIT_OK
        assert "motion 6" in out

    def test_non_vertex_transitive_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "classify", to_graph6(path_graph(4)))
        assert code == EXIT_INVALID
        assert "vertex-transitive" in err


class TestVerify:
    def test_jobs_below_one_is_invalid_input(self, capsys):
        for jobs in ("0", "-2"):
            code, _, err = run(capsys, "verify", "tables", "--jobs", jobs)
            assert code == EXIT_INVALID
            assert "--jobs" in err

    def test_circulant_max_below_two_is_invalid_input(self, capsys):
        # below 2 the corpus would hold no circulant at all
        for value in ("0", "-5"):
            code, out, err = run(capsys, "verify", "graphs",
                                 f"--circulant-max={value}")
            assert code == EXIT_INVALID
            assert "--circulant-max" in err
            assert out == ""

    def test_failed_row_check_is_falsified(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_table_row",
                            lambda row, params=(): RowCheck(row, "fail"))
        code, out, _ = run(capsys, "verify", "tables")
        assert code == EXIT_FALSIFIED
        assert "FAIL table1 row1 (Sym(m), Sym(m)) params=[3]" in out
        assert out.splitlines()[-1] == "RESULT FALSIFIED"

    @pytest.mark.parametrize("missed, code", [(3, EXIT_FALSIFIED),
                                              (2, EXIT_OK)])
    def test_row1_must_appear_at_m3(self, capsys, monkeypatch, missed, code):
        """Row 1 of the pair tables is required from m = 3 on: missing it
        at m = 3 is a falsification, at m = 2 it is not."""
        enumerate_pairs = cli.enumerate_small_subgroup_pairs

        def missing_row1(m):
            enum = enumerate_pairs(m)
            return dataclasses.replace(enum, row1_matched=False) \
                if m == missed else enum

        monkeypatch.setattr(cli, "enumerate_small_subgroup_pairs",
                            missing_row1)
        got, out, _ = run(capsys, "verify", "tables")
        assert got == code
        assert f"m={missed}: " in out and "row1=False" in out
        assert out.splitlines()[-1] == "RESULT " + (
            "FALSIFIED" if code == EXIT_FALSIFIED else "ok")

    def test_quick_suite_matches_golden_output(self, capsys):
        # structured output changes only with a reason; refresh the file then
        golden = Path(__file__).parent / "data" / "verify_all_quick.json"
        code, out, _ = run(capsys, "--format", "structured",
                           "verify", "all", "--quick")
        assert code == EXIT_OK
        assert out == golden.read_text()

    def test_quick_graph_suite(self, capsys):
        code, out, _ = run(capsys, "--format", "structured",
                           "verify", "graphs", "--quick")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"]
        assert doc["graphs"]["odd_prime_motions"] == []
        assert doc["graphs"]["falsifications"] == []
