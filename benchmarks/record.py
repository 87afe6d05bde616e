"""Record the hot-path performance baseline (``BENCH_hotpath.json``).

Measures the four numbers that matter for campaign wall-clock and writes
them as a JSON artifact:

* interpreter steps/sec on a host-compute-heavy microprogram, for the
  production interpreter and for the reference tree walker
  (``tests/treewalk.py``), and the closures-over-tree speedup;
* engine iterations/sec — full validation pipeline over a feature subset,
  M iterations per template, with the number of programs actually executed;
* template generation throughput over the whole shipped corpus;
* corpus lint throughput — every pass over every template, as each
  ``repro lint`` run does;
* a Fig. 8(a)-style vendor sweep wall-clock point (the end-to-end number a
  researcher actually waits on).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.record --output benchmarks/BENCH_hotpath.json

CI regression gate (compares against the committed baseline)::

    PYTHONPATH=src python -m benchmarks.record --compare benchmarks/BENCH_hotpath.json

The gate fails (exit 1) if closures interpreter steps/sec regresses by more
than ``--fail-threshold`` (default 20%) against the baseline, if cold lint
throughput regresses by more than the same threshold, or if the
closures-over-tree speedup drops below ``--min-speedup`` (default 3.0).
The speedup floor is machine-independent — both interpreters run on the
same box — so it is the primary signal; the absolute steps/sec comparison
catches environment-level regressions on stable runners.

Perf trajectory (``BENCH_history.jsonl``): pass ``--history`` to append the
run as one JSON line annotated with ``--git-sha`` (required with
``--history``) and, optionally, an explicit ``--timestamp`` so committed
history entries carry the commit's time rather than the recording
machine's clock.  ``repro obs perf benchmarks/BENCH_history.jsonl`` renders
the trajectory as an HTML page::

    PYTHONPATH=src python -m benchmarks.record \\
        --output benchmarks/BENCH_hotpath.json \\
        --history benchmarks/BENCH_history.jsonl \\
        --git-sha "$(git rev-parse --short HEAD)"
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import nullcontext

from repro.analysis import vendor_pass_rates
from repro.compiler import Compiler, ExecutionLimits
from repro.harness import HarnessConfig, ValidationRunner
from repro.suite import openacc10_suite
from repro.suite.registry import _collect_10
from repro.templates import generate_pair, parse_template
from tests.treewalk import oracle

SCHEMA = "bench-hotpath/1"

#: host-compute-heavy microprogram: tight loops, branches, calls, a while
#: spine — the statement mix that dominates interpreter step counts
MICRO_SOURCE = """
int work(int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    int t = i * 3 + 1;
    if (t % 2 == 0) { acc = acc + t; } else { acc = acc - i; }
    while (t > 50) { t = t - 17; }
    acc = acc + t;
  }
  return acc;
}
int main() {
  int total = 0;
  for (int r = 0; r < 40; r = r + 1) {
    total = total + work(400);
  }
  return total % 97;
}
"""


def bench_interpreter(reps: int) -> dict:
    """Steps/sec for the tree walker and the production interpreter;
    asserts identical results."""
    compiled = Compiler().compile(MICRO_SOURCE, "c", "hotpath_micro.c")
    limits = ExecutionLimits(max_steps=50_000_000)
    compiled.lowered()  # lowering cost stays out of the steady-state number

    results = {}
    timings = {}
    for interpreter in ("tree", "closures"):
        best = None
        with oracle() if interpreter == "tree" else nullcontext():
            for _ in range(reps):
                t0 = time.perf_counter()
                result = compiled.run(limits=limits)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
        results[interpreter] = result
        timings[interpreter] = best
    if results["tree"] != results["closures"]:
        raise SystemExit("FATAL: the interpreter diverged from the tree "
                         "walker on the microbenchmark")
    steps = results["tree"].steps
    tree_sps = steps / timings["tree"]
    closures_sps = steps / timings["closures"]
    return {
        "steps": steps,
        "reps": reps,
        "tree_steps_per_sec": round(tree_sps),
        "closures_steps_per_sec": round(closures_sps),
        "speedup": round(closures_sps / tree_sps, 2),
    }


def bench_engine(iterations: int) -> dict:
    """Full-pipeline iterations/sec over a feature subset.

    ``iterations`` counts verdict iterations; ``executed`` counts the
    programs actually run, which is lower by the iterations reused from a
    seed-independent iteration 0.  Lines recorded before that reuse lack
    ``executed`` (every iteration ran).
    """
    config = HarnessConfig(
        iterations=iterations,
        feature_prefixes=["parallel", "loop", "data"],
    )
    runner = ValidationRunner(config=config)
    t0 = time.perf_counter()
    report = runner.run_suite(openacc10_suite())
    wall = time.perf_counter() - t0
    metrics = report.metrics
    return {"closures": {
        "iterations": metrics.iterations_run,
        "executed": metrics.programs_executed,
        "wall_s": round(wall, 3),
        "iterations_per_sec": round(metrics.iterations_run / wall, 1),
    }}


def bench_generation() -> dict:
    """Template parse + generate throughput over the whole corpus."""
    texts = _collect_10()
    t0 = time.perf_counter()
    for text in texts:
        template = parse_template(text)
        generate_pair(template)
    wall = time.perf_counter() - t0
    return {
        "templates": len(texts),
        "wall_s": round(wall, 3),
        "templates_per_sec": round(len(texts) / wall, 1),
    }


def bench_lint() -> dict:
    """Corpus lint throughput: every pass over every template of the 1.0
    suite (``repro lint`` caches no result, so every run is cold)."""
    from repro.staticcheck import lint_suite

    suite = openacc10_suite()
    t0 = time.perf_counter()
    report = lint_suite(suite)
    cold_s = time.perf_counter() - t0
    return {
        "templates": report.checked,
        "cold_wall_s": round(cold_s, 3),
        "cold_templates_per_sec": round(report.checked / cold_s, 1),
    }


def bench_fig8a() -> dict:
    """Wall-clock of a Fig. 8(a) CAPS sweep — the end-to-end user wait."""
    suite = openacc10_suite()
    config = HarnessConfig(iterations=1, run_cross=False)
    t0 = time.perf_counter()
    vendor_pass_rates("caps", suite, config)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 2)}


def record(args) -> dict:
    data = {
        "schema": SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "microbench": bench_interpreter(args.reps),
        "engine": bench_engine(args.iterations),
        "generation": bench_generation(),
        "lint": bench_lint(),
        "fig8a": bench_fig8a(),
    }
    return data


def append_history(data: dict, path: str, git_sha: str,
                   timestamp: str = None) -> dict:
    """Append one annotated history entry to ``path`` (JSONL).

    The entry is the full baseline record plus ``git_sha``; an explicit
    ``timestamp`` overrides ``recorded_at`` so committed entries carry
    commit time, not the recording machine's ambient clock.
    """
    entry = dict(data)
    entry["git_sha"] = git_sha
    if timestamp:
        entry["recorded_at"] = timestamp
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def check(data: dict, args) -> int:
    """Apply the gates; returns a process exit code."""
    failures = []
    speedup = data["microbench"]["speedup"]
    if speedup < args.min_speedup:
        failures.append(
            f"closures speedup {speedup:.2f}x is below the "
            f"{args.min_speedup:.1f}x floor"
        )
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline.get("schema") != SCHEMA:
            failures.append(
                f"baseline {args.compare} has schema "
                f"{baseline.get('schema')!r}, expected {SCHEMA!r}"
            )
        else:
            base_sps = baseline["microbench"]["closures_steps_per_sec"]
            now_sps = data["microbench"]["closures_steps_per_sec"]
            floor = base_sps * (1.0 - args.fail_threshold)
            if now_sps < floor:
                failures.append(
                    f"closures interpreter regressed: {now_sps:,} steps/s "
                    f"vs baseline {base_sps:,} "
                    f"(>{args.fail_threshold:.0%} regression)"
                )
            # baselines recorded before the lint benchmark lack the key
            base_lint = baseline.get("lint")
            if base_lint:
                base_tps = base_lint["cold_templates_per_sec"]
                now_tps = data["lint"]["cold_templates_per_sec"]
                if now_tps < base_tps * (1.0 - args.fail_threshold):
                    failures.append(
                        f"cold lint throughput regressed: {now_tps:,.1f} "
                        f"templates/s vs baseline {base_tps:,.1f} "
                        f"(>{args.fail_threshold:.0%} regression)"
                    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.record", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--output", default=None,
                        help="write the recorded baseline JSON here")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="gate against a previously recorded baseline")
    parser.add_argument("--fail-threshold", type=float, default=0.20,
                        help="max tolerated steps/sec regression vs the "
                             "baseline (default 0.20 = 20%%)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required closures-over-tree speedup floor")
    parser.add_argument("--reps", type=int, default=3,
                        help="microbenchmark repetitions (best-of)")
    parser.add_argument("--iterations", type=int, default=2,
                        help="engine benchmark iterations per template (M)")
    parser.add_argument("--history", default=None, metavar="JSONL",
                        help="append this run to a perf-trajectory history "
                             "file (one JSON line per run)")
    parser.add_argument("--git-sha", default=None,
                        help="git SHA to annotate the history entry with "
                             "(required with --history)")
    parser.add_argument("--timestamp", default=None,
                        help="explicit recorded_at for the history entry "
                             "(defaults to the recording time)")
    args = parser.parse_args(argv)
    if args.history and not args.git_sha:
        parser.error("--history requires --git-sha")

    data = record(args)

    micro = data["microbench"]
    engine = data["engine"]
    print(f"interpreter  tree    : {micro['tree_steps_per_sec']:>12,} steps/s")
    print(f"interpreter  closures: {micro['closures_steps_per_sec']:>12,} steps/s"
          f"  ({micro['speedup']:.2f}x)")
    print(f"engine       closures: {engine['closures']['iterations_per_sec']:>12,.1f} iter/s"
          f"  ({engine['closures']['executed']} of "
          f"{engine['closures']['iterations']} executed)")
    print(f"generation           : {data['generation']['templates_per_sec']:>12,.1f} templates/s")
    lint = data["lint"]
    print(f"lint         cold    : {lint['cold_templates_per_sec']:>12,.1f} templates/s")
    print(f"fig8a sweep          : {data['fig8a']['wall_s']:>12,.2f} s wall")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.history:
        append_history(data, args.history, args.git_sha, args.timestamp)
        print(f"appended to {args.history}")

    return check(data, args)


if __name__ == "__main__":
    raise SystemExit(main())
