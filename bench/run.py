#!/usr/bin/env python3
"""Time-to-verdict benchmark for the shellability package.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Runs one workload (``search``, ``survey`` or ``cli``, see ``workloads.py``) as
a closed loop: one process, one query at a time, no threads.  Every answer is
checked against the benchmark's own oracle.  The run prints a report, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are those of ``bench/metrics.json``: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  The traced run also writes its spans
to ``.bench_out/trace-<workload>.tsv.gz``.

Times are scaled to a fixed machine speed: a reference computation
(``reference.py``) runs between the queries, and each measured time is
multiplied by the reference's quiet time over its time around the query.
The report lines give the measured figures beside the scaled ones.

The package is imported from the ``src/`` beside ``bench/``; without it the
run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import REFERENCE_S, timed_reference
from spans import LAYERS, Tracer, source_lines
from workloads import WORKLOADS, Query, Raised

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH / "metrics.json").read_text())

SETUP_REPEATS = 9
MIN_PASSES = 5
# a reference runs between two queries once this long has passed since the last
REFERENCE_EVERY_S = 0.02
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# times the import, then (so as not to load json, re or oracle first) the
# median of 7 references in the same child
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import shellability; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "from reference import timed_reference; "
    "print(t, sorted(timed_reference() for _ in range(7))[3])"
)


def load_package():
    if not (SRC / "shellability" / "__init__.py").is_file():
        raise SystemExit(f"error: no shellability package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shellability
    import shellability.cli  # noqa: F401  (queries call shellability.cli.main)

    if Path(shellability.__file__).resolve().parent != (SRC / "shellability").resolve():
        raise SystemExit(f"error: imported shellability from {shellability.__file__}")
    return shellability


def scaled(measured: float, before: float, after: float) -> float:
    """``measured`` at the reference's quiet speed, given the reference's
    times just before and just after it."""
    return measured * 2 * REFERENCE_S / (before + after)


def time_import() -> tuple[float, float]:
    """Median time of ``import shellability`` in a fresh interpreter, scaled
    by the references run in that interpreter, and measured; a first untimed
    child writes the bytecode cache."""
    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            took, reference_s = map(float, done.stdout.split())
            raw.append(took)
            times.append(scaled(took, reference_s, reference_s))
    return statistics.median(times), statistics.median(raw)


def run_pass(queries: list[Query]):
    """Every query once, with references between them.  Returns the measured
    latencies, the scaled ones (by the two references around each query), the
    reference times and the outputs."""
    latencies, slots, outputs = [], [], []
    refs = [timed_reference()]
    clock = time.perf_counter
    due = clock() + REFERENCE_EVERY_S
    for q in queries:
        t = clock()
        try:
            out = q.call()
        except Exception as exc:  # a query that raises fails; the run goes on
            out = Raised(type(exc).__name__, str(exc)[:200])
        done = clock()
        latencies.append(done - t)
        outputs.append(out)
        slots.append(len(refs) - 1)
        if done >= due:
            refs.append(timed_reference())
            due = clock() + REFERENCE_EVERY_S
    refs.append(timed_reference())
    scaled_latencies = [scaled(x, refs[k], refs[k + 1]) for x, k in zip(latencies, slots)]
    return latencies, scaled_latencies, refs, outputs


def check_pass(queries: list[Query], outputs: list) -> list[tuple[str, str, bool]]:
    """(query, reason, wrong) for every failed query.  A raised query fails
    without being wrong; a wrong verdict or a rejected witness is wrong."""
    failures = []
    for q, out in zip(queries, outputs):
        if isinstance(out, Raised):
            failures.append((q.name, f"raised {out.kind}: {out.message}", False))
            continue
        if q.verified is not None and q.verified[0] == out:
            reason = q.verified[1]
        else:
            try:
                reason = q.check(out)
            except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
                reason = f"unreadable answer: {exc!r}"
            q.verified = (out, reason)
        if reason is not None:
            failures.append((q.name, reason, True))
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten queries beyond it, and its
    nearest-rank value."""
    pct = max(p for p in PERCENTILES if len(latencies) * (100 - p) / 100 >= 10)
    ranked = sorted(latencies)
    return pct, ranked[-(-len(ranked) * pct // 100) - 1]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong = False

    def add(self, queries, outputs) -> None:
        self.attempted += len(outputs)
        for name, reason, wrong in check_pass(queries, outputs):
            self.failures[(name, reason)] += 1
            self.wrong |= wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def report(self) -> None:
        for (name, reason), count in sorted(self.failures.items()):
            print(f"failed x{count}: {name}: {reason}")


def measure(args, sh, spec, prepare, build, repeats: bool, tally: Tally) -> dict[str, float]:
    items = prepare(spec, 0)
    import_s, import_raw = time_import()
    builds, builds_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = timed_reference()
        t = time.perf_counter()
        queries = build(sh, items)
        builds_raw.append(time.perf_counter() - t)
        builds.append(scaled(builds_raw[-1], before, timed_reference()))
    build_s = statistics.median(builds)

    # Medians over the run's passes, of scaled times: see reference.py.
    walls, walls_raw, refs, per_query = [], [], [], [[] for _ in queries]
    p = 0
    start = time.perf_counter()
    while p < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if p and not repeats:
            queries = build(sh, prepare(spec, p))
        latencies, latencies_scaled, pass_refs, outputs = run_pass(queries)
        walls.append(sum(latencies_scaled))
        walls_raw.append(sum(latencies))
        refs += pass_refs
        for samples, x in zip(per_query, latencies_scaled):
            samples.append(x)
        tally.add(queries, outputs)
        p += 1
    medians = [statistics.median(samples) for samples in per_query]
    pct, tail_s = tail(medians)
    slowdown = statistics.median(refs) / REFERENCE_S
    print(f"setup: import {import_s:.4f} s + build {build_s:.4f} s scaled, "
          f"{import_raw:.4f} s + {statistics.median(builds_raw):.4f} s measured "
          f"(medians of {SETUP_REPEATS})")
    print(f"passes {p}, queries per pass {len(queries)}, references {len(refs)}: "
          f"median {statistics.median(refs) * 1e3:.4f} ms, {slowdown:.3f}x the quiet time")
    print(f"pass wall medians: {statistics.median(walls):.4f} s scaled, "
          f"{statistics.median(walls_raw):.4f} s measured")
    print(f"query_tail_ms is p{pct} over the {len(medians)} queries of a pass, "
          f"each the median of {p}")
    return {
        "wall_s": statistics.median(walls),
        "query_p50_ms": statistics.median(medians) * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "setup_s": import_s + build_s,
        "answered_ratio": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(args, sh, spec, prepare, build, tally: Tally) -> dict[str, float]:
    """Pairs of passes over the first pass's queries, untraced then traced."""
    queries = build(sh, prepare(spec, 0))
    tracer = Tracer()
    plain, traced, traced_scaled = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        _, latencies_scaled, _, outputs = run_pass(queries)
        plain.append(sum(latencies_scaled))
        tally.add(queries, outputs)
        tracer.install()
        try:
            latencies, latencies_scaled, _, traced_outputs = run_pass(queries)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        traced_scaled.append(sum(latencies_scaled))
        tally.add(queries, traced_outputs)
        if traced_outputs != outputs:
            tally.wrong = True
            print("error: traced answers differ from untraced ones")
    passes = len(traced)
    metrics = tracer.summary(passes)
    inside = tracer.root_ns() / 1e9
    metrics["trace.overhead_ratio"] = sum(traced_scaled) / sum(plain) - 1
    metrics["trace.bench_self_s"] = (sum(traced) - inside) / passes
    for layer in LAYERS:
        metrics[f"{layer}.loc"] = source_lines(SRC / "shellability" / f"{layer}.py")
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2)
    print(f"traced passes {passes}: wall {sum(traced) / passes:.4f} s = "
          f"self times {self_total:.4f} s + benchmark {metrics['trace.bench_self_s']:.4f} s")
    tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.tsv.gz")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sh = load_package()
    make, prepare, build, repeats = WORKLOADS[args.workload]
    spec = make(args.seed)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args, sh, spec, prepare, build, tally)
        wanted = SPEC["per_layer"]
    else:
        metrics = measure(args, sh, spec, prepare, build, repeats, tally)
        wanted = SPEC["end_to_end"]
    tally.report()
    result = {
        name: {"value": metrics.get(name, 0.0), "unit": meta["unit"]}
        for name, meta in wanted.items()
    }
    for name in wanted:
        print(f"{name} = {result[name]['value']} {result[name]['unit']}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
