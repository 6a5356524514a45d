"""Spans, counters and result capture around smallmotion, from outside.

The program is never edited: ``Recorder.install`` replaces each target
function by a wrapper in its defining module and in every smallmotion
module that imported the name, and replaces target methods on their
class.  A span records its name, start, end, parent span and the item it
belongs to.  A span's self time is its duration minus the time covered by
its child spans.  Spans are held in memory and written out by ``dump``
when the run ends.

Untraced runs install only the capture wrappers: the benchmark needs the
motion witnesses, decompositions and automorphism-group orders that
``classify.verify_graph`` and ``cli.main`` compute but do not return, so
that it can check them.  A capture costs one extra call per capture-target
call, a few per item.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute path)
SPAN_TARGETS = (
    ("autengine.automorphism_group", "autengine", "automorphism_group"),
    ("autengine.motion_witness", "autengine", "motion_witness"),
    ("graphcore.isomorphism_with_colors", "graphcore",
     "isomorphism_with_colors"),
    ("graphcore.are_isomorphic", "graphcore", "are_isomorphic"),
    ("graphcore.from_graph6", "graphcore", "from_graph6"),
    ("permcore.minimal_degree", "permcore", "PermGroup.minimal_degree"),
    ("permcore.StabilizerChain", "permcore", "StabilizerChain.__init__"),
    ("permcore.reduce_generators", "permcore", "reduce_generators"),
    ("permcore.normal_closure", "permcore", "PermGroup.normal_closure"),
    ("permcore.permutation_isomorphic", "permcore", "permutation_isomorphic"),
    ("grouptables.classify_p_cycle_group", "grouptables",
     "classify_p_cycle_group"),
    ("grouptables.classify_22_group", "grouptables", "classify_22_group"),
    ("grouptables.enumerate_small_subgroup_pairs", "grouptables",
     "enumerate_small_subgroup_pairs"),
    ("grouptables.recognize_family", "grouptables", "recognize_family"),
    ("wreath.wreath_product", "wreath", "wreath_product"),
    ("classify.verify_graph", "classify", "verify_graph"),
    ("classify.decompose", "classify", "decompose"),
    ("cli.main", "cli", "main"),
)

# spans whose arguments and results the checks need, in both modes
CAPTURED = {"autengine.automorphism_group", "autengine.motion_witness",
            "classify.decompose"}

ELEMENTS = ("permcore.elements", "permcore", "StabilizerChain.elements")
COUNTED = (("permcore.Permutation.init_calls", "permcore",
            "Permutation.__init__"),
           ("permcore.Permutation.mul_calls", "permcore",
            "Permutation.__mul__"))


class Recorder:
    """Per-process instrumentation state; one per benchmark run."""

    def __init__(self):
        self.traced = False
        self.item = -1
        self.next_id = 0
        self.stack: list[list] = []      # [span id, start, child seconds]
        self.spans: list[tuple] = []     # (item, id, parent, name, start, end)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.captured: list[tuple] = []  # (name, capture index at call, arg0, result)
        self.motion_paths: Counter = Counter()
        self.scan_limit = None
        self._undo: list[tuple] = []     # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self, traced: bool) -> None:
        """Wrap the targets in the smallmotion modules now imported,
        replacing the wrappers of an earlier install."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.traced = traced
        pkg = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("smallmotion.")}
        self.scan_limit = getattr(pkg.get("autengine"), "GROUP_SCAN_LIMIT",
                                  None)
        for name, module, path in SPAN_TARGETS:
            if traced or name in CAPTURED:
                self._replace(pkg, module, path,
                              lambda fn, name=name: self._span(name, fn))
        if traced:
            self._replace(pkg, *ELEMENTS[1:], self._elements)
            for name, module, path in COUNTED:
                self._replace(pkg, module, path,
                              lambda fn, name=name: self._count(name, fn))

    def _replace(self, pkg, module, path, make_wrapper) -> None:
        mod = pkg.get(module)
        if mod is None:
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        owners = [(owner, attr)] if owner_name else [
            (other, key) for other in pkg.values()
            for key, value in vars(other).items() if value is original]
        for target, key in owners:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        captured = name in CAPTURED

        def wrapper(*args, **kwargs):
            mark = len(self.captured)
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if self.traced:
                    dur = end - frame[1]
                    self.self_s[name] += dur - frame[2]
                    self.calls[name] += 1
                    if stack:
                        stack[-1][2] += dur
                    self.spans.append((self.item, span_id, parent, name,
                                       frame[1], end))
            if captured:
                self.captured.append((name, mark, args[0] if args else None,
                                      result))
                if self.traced:
                    self._count_captured(name, mark, result)
            return result
        return wrapper

    def _count_captured(self, name, mark, result) -> None:
        if name == "autengine.automorphism_group":
            stats = getattr(result, "stats", None) or {}
            self.counts["autengine.transporter_searches"] += \
                stats.get("transporter_searches", 0)
        elif name == "autengine.motion_witness":
            self._count_motion_path(mark)

    def _count_motion_path(self, mark) -> None:
        """Which motion path ran, from the Aut computations made inside."""
        inner = [c[3] for c in self.captured[mark:-1]
                 if c[0] == "autengine.automorphism_group"]
        if not inner:
            self.motion_paths["twin"] += 1
        elif self.scan_limit is not None and \
                getattr(inner[-1], "order", 0) > self.scan_limit:
            self.motion_paths["support"] += 1
        else:
            self.motion_paths["scan"] += 1

    def _elements(self, fn):
        """Element enumeration is a generator: time each step it takes."""
        clock = time.perf_counter
        rec = self

        def steps(it):
            while True:
                start = clock()
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    rec._charge_elements(clock() - start)
                rec.counts["permcore.elements.yielded"] += 1
                yield x

        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))
        return wrapper

    def _charge_elements(self, dur) -> None:
        self.self_s["permcore.elements"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------

    def start_item(self, index: int) -> None:
        self.item = index
        self.captured.clear()

    def reset_totals(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.motion_paths.clear()
        self.spans.clear()

    def layer_metrics(self, items: int, overhead_ratio: float) -> dict:
        """Per-layer totals over the traced items, zero for layers the
        workload does not reach."""
        out = {}
        for name, _, _ in SPAN_TARGETS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["permcore.elements.self_s"] = self.self_s["permcore.elements"]
        for name in ("permcore.elements.yielded",
                     "autengine.transporter_searches") + \
                tuple(c[0] for c in COUNTED):
            out[name] = self.counts[name]
        out["autengine.automorphism_group.calls_per_item"] = \
            self.calls["autengine.automorphism_group"] / items
        for path in ("twin", "scan", "support"):
            out["autengine.motion_path." + path] = self.motion_paths[path]
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["item", "span", "parent", "name", "start", "end"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
