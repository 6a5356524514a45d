"""smallmotion benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload vt-corpus --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout: smallmotion is imported from ``src/``
there.  The workloads, metrics and the reasons for them are described in
``perfbench/README.md``; ``BENCHMARK.json`` names the metrics.

One client in one process sends the next input only when the previous
verdict has returned (a closed loop).  A run measures whole rounds of the
workload's pool until at least ``--seconds`` seconds and 100 items have
passed, so that p90 has ten or more samples beyond it.  Latency is the
time of the program call alone, scaled to a reference machine speed
measured by a calibration kernel around each call; the benchmark's own
input generation and checks are outside it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round and then one traced round, and prints the per-layer totals
of the traced round with the ratio of the two rounds' times; the spans go
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A missing program
or data file exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import WORKLOADS, load_data  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOAD_CLASSES  # noqa: E402

MODULES = ("permcore", "graphcore", "autengine", "wreath", "grouptables",
           "classify", "cli")
MIN_ITEMS = 100
SETUP_REPEATS = 5
# no new round starts after this many seconds, so a run ends within 180 s
ROUND_START_LIMIT = 100.0


_CYCLE = tuple(range(1, 48)) + (0,)
# the calibration kernel's time at the reference machine speed
CALIBRATION_REFERENCE_S = 1.0e-3


def calibration_s() -> float:
    """Time of a fixed kernel of the operations the program spends its
    time on: composing permutations stored as tuples, and hashing them.
    The collector is off, so its pauses over the program's heap do not
    count as machine speed."""
    gc.disable()
    try:
        start = time.perf_counter()
        q = _CYCLE
        seen = set()
        for _ in range(300):
            q = tuple(_CYCLE[x] for x in q)
            seen.add(q)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_sample(reps: int = 3) -> float:
    return statistics.median(calibration_s() for _ in range(reps))


def normalized(seconds: float, before: float) -> float:
    """``seconds`` at the reference machine speed.

    The speed is sampled by the calibration kernel just before the timed
    call and right after it, more often after a long call.
    """
    after = speed_sample(min(3 + int(seconds / 0.2), 41))
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked."""


def import_program():
    """Import smallmotion afresh from the checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "smallmotion", "__init__.py")):
        raise BenchmarkError(f"no smallmotion package under {src}")
    for name in [m for m in sys.modules
                 if m == "smallmotion" or m.startswith("smallmotion.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    lib = types.SimpleNamespace(**{
        name: importlib.import_module("smallmotion." + name)
        for name in MODULES})
    origin = os.path.dirname(os.path.abspath(lib.permcore.__file__))
    if origin != os.path.join(src, "smallmotion"):
        raise BenchmarkError(f"smallmotion was imported from {origin}")
    return lib


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def set_up(name: str, data: dict, seed: int):
    """Import, generate the first round, warm up; the median of several
    repetitions is ``setup_s``, and the last one is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed_sample()
        start = time.perf_counter()
        lib = import_program()
        workload = WORKLOAD_CLASSES[name](data, lib)
        first_round = workload.make_round(round_rng(seed, 0))
        workload.warm_up(round_rng(seed, -1))
        times.append(normalized(time.perf_counter() - start, before))
    return workload, first_round, statistics.median(times)


class Measurement:
    """Latencies and failures over the items sent."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[str, list[str]]] = []
        self.rounds = 0

    def run_round(self, workload, items, recorder: Recorder) -> float:
        gc.collect()
        busy = 0.0
        clock = time.perf_counter
        for item in items:
            recorder.start_item(len(self.latencies))
            before = speed_sample()
            start = clock()
            try:
                output = workload.run(item)
                error = None
            except Exception as exc:  # a raise is a failed item
                error = exc
            lat = clock() - start
            self.raw.append(lat)
            self.latencies.append(normalized(lat, before))
            busy += self.latencies[-1]
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    problems = workload.check(item, output,
                                              list(recorder.captured))
                except Exception as exc:  # output the checks cannot read
                    problems = [f"unreadable output: "
                                f"{type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append((item.member["name"], problems))
        self.rounds += 1
        return busy

    def end_to_end(self, setup_s: float) -> dict:
        raw = self.raw
        print(f"unscaled: items_per_s {len(raw) / sum(raw):.6g}, "
              f"latency_p50_ms {statistics.median(raw) * 1e3:.6g}, "
              f"latency_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g}")
        lat = self.latencies
        return {
            "items_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def measure(workload, first_round, seed, seconds, recorder) -> Measurement:
    m = Measurement()
    items = first_round
    start = time.perf_counter()
    while True:
        m.run_round(workload, items, recorder)
        elapsed = time.perf_counter() - start
        if len(m.latencies) >= MIN_ITEMS and elapsed >= seconds:
            break
        if elapsed >= ROUND_START_LIMIT:
            break
        items = workload.make_round(round_rng(seed, m.rounds))
    return m


def measure_traced(workload, first_round, seed, recorder, name):
    """An untraced round, then a traced one; per-layer totals of the
    traced round."""
    if hasattr(workload, "check_canonical_outputs"):
        workload.check_canonical_outputs()
    m = Measurement()
    untraced = m.run_round(workload, first_round, recorder)
    second = workload.make_round(round_rng(seed, 1))
    recorder.install(traced=True)
    recorder.reset_totals()
    traced = m.run_round(workload, second, recorder)
    metrics = recorder.layer_metrics(len(second), traced / untraced)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
    recorder.dump(path)
    print(f"spans: {len(recorder.spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    return m, metrics


def metric_specs(traced: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        specs = metric_specs(bool(args.trace))
        data = load_data(args.workload)
        workload, first_round, setup_s = set_up(args.workload, data,
                                                args.seed)
    except (BenchmarkError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install(traced=False)
    if args.trace:
        m, values = measure_traced(workload, first_round, args.seed,
                                   recorder, args.workload)
    else:
        m = measure(workload, first_round, args.seed, args.seconds, recorder)
        values = m.end_to_end(setup_s)
    attempted = len(m.latencies)
    failed = len(m.failures)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} items "
          f"in {m.rounds} round(s) of {len(workload.members)} members, "
          f"one client, closed loop")
    for member, problems in m.failures[:10]:
        print(f"FAILED {member}: {'; '.join(problems)}", file=sys.stderr)
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value:.6g} {spec['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    changed = sorted(set(workload.changed))
    if changed:
        print(f"output changed from the baseline for {len(changed)} "
              f"members: {', '.join(changed[:10])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
