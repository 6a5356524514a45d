"""The three workloads: seeded inputs, the timed call, and its checks.

Each workload holds a fixed pool of family members (``data/<name>.json``).
A round sends every member once, in a seeded order and under a fresh
seeded relabelling of its vertices or points.  Every checked answer is
invariant under relabelling, so one reference per member serves every
seed, and no cache can reuse a result by label or by object identity.

``run`` is the only timed call.  ``check`` returns the problems found in
its output, comparing with the oracle references and re-checking every
witness with the benchmark's own code (``common``), never with smallmotion.
"""

from __future__ import annotations

import contextlib
import io
import json

from common import (cycle_lengths, edge_set, g6_decode, g6_encode,
                    group_elements, is_graph_automorphism, parse_cycles,
                    relabel_edges, support_size)

AUT = "autengine.automorphism_group"


def _images(perm, n) -> tuple[int, ...]:
    return tuple(perm(i) for i in range(n))


def _aut_order_problems(captured, n, eset, ref_order) -> list[str]:
    """Orders of the Aut computations the program made on this input."""
    if ref_order is None:
        return []
    out = []
    for name, _, graph, result in captured:
        if name != AUT or graph.n != n or edge_set(graph.edges()) != eset:
            continue
        if result.order != ref_order:
            out.append(f"|Aut| {result.order}, reference {ref_order}")
    return out


def _witness_problems(images, eset, motion) -> list[str]:
    if not is_graph_automorphism(eset, images):
        return ["motion witness is not an automorphism"]
    if support_size(images) != motion:
        return [f"motion witness moves {support_size(images)} vertices, "
                f"reported motion {motion}"]
    return []


class Item:
    """One member as sent in one round."""

    __slots__ = ("member", "n", "eset", "value")

    def __init__(self, member, n=0, eset=None, value=None):
        self.member, self.n, self.eset, self.value = member, n, eset, value


class Workload:
    warm_up_member = ""

    def __init__(self, data: dict, lib):
        self.members = data["members"]
        self.lib = lib
        self.changed = []        # names whose output differs from baseline

    def make_round(self, rng) -> list[Item]:
        order = list(self.members)
        rng.shuffle(order)
        return [self.make_item(m, rng) for m in order]

    def warm_up(self, rng) -> None:
        member = next(m for m in self.members
                      if m["name"] == self.warm_up_member)
        item = self.make_item(member, rng)
        self.run(item)

    @staticmethod
    def relabelled_graph(member, rng):
        n, edges = g6_decode(member["input"]["graph6"])
        perm = list(range(n))
        rng.shuffle(perm)
        return n, relabel_edges(edges, perm)


class VtCorpus(Workload):
    """classify.verify_graph on the deduplicated CorpusSpec() families."""

    warm_up_member = "circulant:5:1"

    def make_item(self, member, rng):
        n, edges = self.relabelled_graph(member, rng)
        graph = self.lib.graphcore.Graph.from_edges(n, edges)
        return Item(member, n, edge_set(edges), graph)

    def run(self, item):
        return self.lib.classify.verify_graph((item.member["name"],
                                               item.value))

    def check(self, item, rec, captured) -> list[str]:
        ref = item.member["ref"]
        problems = []
        if rec.vertex_transitive != ref["vertex_transitive"]:
            return [f"vertex-transitive {rec.vertex_transitive}, "
                    f"reference {ref['vertex_transitive']}"]
        problems += _aut_order_problems(captured, item.n, item.eset,
                                        ref["aut_order"])
        if not ref["vertex_transitive"]:
            return problems
        if rec.error is not None or rec.motion is None:
            return problems + [f"no motion: {rec.error}"]
        if ref["motion"] is not None and rec.motion != ref["motion"]:
            problems.append(f"motion {rec.motion}, reference {ref['motion']}")
        witnesses = [c[3] for c in captured
                     if c[0] == "autengine.motion_witness"]
        if not witnesses:
            problems.append("no motion witness was computed")
        else:
            mu, perm = witnesses[-1]
            problems += _witness_problems(_images(perm, item.n), item.eset,
                                          rec.motion)
        if rec.motion in (2, 4):
            problems += self._check_decomposition(item, rec, captured)
        return problems

    def _check_decomposition(self, item, rec, captured) -> list[str]:
        if rec.form in (None, "unclassified") or not rec.verified:
            return [f"decomposition form {rec.form}, verified {rec.verified}"]
        if rec.form != item.member["baseline"]["form"]:
            self.changed.append(item.member["name"])
        reports = [c[3] for c in captured if c[0] == "classify.decompose"]
        if not reports or reports[-1].reconstruction is None:
            return ["no reconstruction to check"]
        import networkx as nx
        recon = reports[-1].reconstruction
        g1 = nx.Graph()
        g1.add_nodes_from(range(item.n))
        g1.add_edges_from(item.eset)
        g2 = nx.Graph()
        g2.add_nodes_from(range(recon.n))
        g2.add_edges_from(recon.edges())
        if not nx.vf2pp_is_isomorphic(g1, g2):
            return ["reconstruction is not isomorphic to the input"]
        return []


class MotionLarge(Workload):
    """In-process ``smallmotion --format structured motion <graph6>``."""

    warm_up_member = "Q4"

    def make_item(self, member, rng):
        n, edges = self.relabelled_graph(member, rng)
        return Item(member, n, edge_set(edges), g6_encode(n, edges))

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(["--format", "structured", "motion",
                                      item.value])
        return code, out.getvalue()

    def check(self, item, output, captured) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        ref = item.member["ref"]
        results = json.loads(text)["results"]
        if len(results) != 1 or results[0]["graph6"] != item.value:
            return ["output does not describe the input graph"]
        mu = results[0]["motion"]
        problems = []
        if ref["motion"] is not None and mu != ref["motion"]:
            problems.append(f"motion {mu}, reference {ref['motion']}")
        problems += _witness_problems(
            parse_cycles(results[0]["witness"], item.n), item.eset, mu)
        problems += _aut_order_problems(captured, item.n, item.eset,
                                        ref["aut_order"])
        return problems

    def check_canonical_outputs(self) -> None:
        """Compare the structured output for each member in its stored
        labelling with the baseline, byte for byte."""
        for member in self.members:
            g6 = member["input"]["graph6"]
            _, text = self.run(Item(member, value=g6))
            if text != member["baseline"]["motion_json"]:
                self.changed.append(member["name"])


class GroupTables(Workload):
    """order, minimal_degree, minimal_block_system and the classifier."""

    warm_up_member = "table1 row1[3] X wr S2"

    def make_item(self, member, rng):
        inp = member["input"]
        if "enumerate_m" in inp:
            return Item(member, value=inp["enumerate_m"])
        pc = self.lib.permcore
        n = inp["degree"]
        perm = list(range(n))
        rng.shuffle(perm)
        if inp["generators"] is None:
            inner = pc.PermGroup(n // 2, [pc.Permutation(g)
                                          for g in inp["wreath_s2_of"]])
            return Item(member, n, value=(inner, pc.Permutation(perm)))
        gens = []
        for g in inp["generators"]:
            images = [0] * n
            for i in range(n):
                images[perm[i]] = perm[g[i]]
            gens.append(pc.Permutation(images))
        return Item(member, n, value=pc.PermGroup(n, gens))

    def run(self, item):
        inp = item.member["input"]
        gt = self.lib.grouptables
        if "enumerate_m" in inp:
            return gt.enumerate_small_subgroup_pairs(item.value)
        group = item.value
        if inp["generators"] is None:
            inner, relabel = item.value
            w = self.lib.wreath.wreath_product(inner, gt.sym_group(2))
            group = self.lib.permcore.PermGroup(
                w.degree, [g.conjugate(relabel) for g in w.generators])
        report = None
        if inp["classifier"] == "p_cycle":
            report = gt.classify_p_cycle_group(group, inp.get("table1_p"))
        elif inp["classifier"] == "two_two":
            report = gt.classify_22_group(group)
        return (group, group.order(), group.minimal_degree(),
                group.minimal_block_system(), report)

    def check(self, item, output, captured) -> list[str]:
        ref = item.member["ref"]
        if "enumerate_m" in item.member["input"]:
            return self._check_enumeration(item, output, ref)
        group, order, mindeg, blocks, report = output
        n = item.n
        problems = []
        if order != ref["order"]:
            problems.append(f"order {order}, reference {ref['order']}")
        if mindeg != ref["mindeg"]:
            problems.append(f"minimal degree {mindeg}, "
                            f"reference {ref['mindeg']}")
        gens = [_images(g, n) for g in group.generators]
        problems += self._check_blocks(blocks, gens, n, ref["primitive"])
        if report is not None:
            problems += self._check_report(item, report, gens, ref)
        return problems

    @staticmethod
    def _check_blocks(blocks, gens, n, primitive) -> list[str]:
        if blocks is None:
            return [] if primitive else ["imprimitive group reported primitive"]
        if primitive:
            return ["primitive group given a block system"]
        parts = [tuple(sorted(b)) for b in blocks.blocks]
        sizes = {len(b) for b in parts}
        if sorted(v for b in parts for v in b) != list(range(n)) or \
                len(sizes) != 1 or not 1 < sizes.pop() < n:
            return ["block system is not a partition into proper blocks"]
        partset = set(parts)
        if any(tuple(sorted(g[v] for v in b)) not in partset
               for g in gens for b in parts):
            return ["block system is not invariant"]
        return []

    @staticmethod
    def _check_report(item, report, gens, ref) -> list[str]:
        inp = item.member["input"]
        n = item.n
        if inp["classifier"] == "p_cycle":
            p = inp.get("table1_p") or min(ref["prime_cycle_lengths"])
            witness = _images(report.x_witness, n)
            problems = []
            if report.p != p or cycle_lengths(witness) != (p,):
                problems.append(f"p-cycle witness {cycle_lengths(witness)} "
                                f"for p = {report.p}, expected {p}")
            if inp.get("table1_p") and \
                    (ref["mindeg"] == p) != report.predicted_mindeg_is_p:
                problems.append(
                    f"table 1 predicts mindeg == p is "
                    f"{report.predicted_mindeg_is_p}, reference mindeg "
                    f"{ref['mindeg']}, p = {p}")
        else:
            witness = _images(report.witness, n)
            small = ref["has_transposition_or_3_cycle"]
            want = ((2,), (3,)) if small else ((2, 2),)
            problems = []
            if (report.tag == "small_mindeg") != small:
                problems.append(f"tag {report.tag}, reference has a "
                                f"transposition or 3-cycle: {small}")
            if cycle_lengths(witness) not in want:
                problems.append(f"witness cycle type {cycle_lengths(witness)}")
        if witness not in group_elements(n, gens):
            problems.append("classifier witness is not in the group")
        return problems

    def _check_enumeration(self, item, enum, ref) -> list[str]:
        problems = []
        if enum.total_subgroups != ref["total_subgroups"]:
            problems.append(f"{enum.total_subgroups} subgroups, "
                            f"reference {ref['total_subgroups']}")
        for flag in ("row1_matched", "table4_row2_matched",
                     "table3_row2_matched"):
            if getattr(enum, flag) != ref[flag]:
                problems.append(f"{flag} {getattr(enum, flag)}")
        if len(enum.pairs) != item.member["baseline"]["pairs"]:
            self.changed.append(item.member["name"])
        return problems


WORKLOAD_CLASSES = {"vt-corpus": VtCorpus, "motion-large": MotionLarge,
                    "group-tables": GroupTables}
