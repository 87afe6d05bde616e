"""Execution-engine benchmark: parallel speedup and compile-cache wins.

The paper's harness "compiles, runs, checks, repeats statistically" over
160+ templates per compiler — embarrassingly parallel work.  This bench
measures the two perf levers the engine adds on a full-suite run (both
languages, the Fig. 8 sweep workload):

* ``process`` policy with 4 workers vs ``serial`` — asserted ≥ 2× on hosts
  with ≥ 4 usable cores (the speedup is physically impossible on fewer, so
  the assertion scales down honestly with the core count);
* a warm compile cache vs a cold one on repeated runs of the same
  configuration — the Fig. 8 version-sweep/benchmark-round shape.

Determinism is asserted unconditionally: the parallel report must render
byte-identically to the serial one.
"""

import os
import time

import pytest

from benchmarks.conftest import print_series
from repro.compiler.vendors import vendor_version
from repro.harness import HarnessConfig, ValidationRunner, render_csv
from repro.templates import generate_cross, generate_functional


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover (non-Linux)
        return os.cpu_count() or 1


def _suite_run(suite, policy: str, workers: int):
    behavior = vendor_version("pgi", "13.2").behavior("c")
    config = HarnessConfig(iterations=3, languages=("c",),
                           policy=policy, workers=workers)
    runner = ValidationRunner(behavior, config)
    start = time.perf_counter()
    report = runner.run_suite(suite)
    return report, time.perf_counter() - start


def test_bench_parallel_engine_speedup(benchmark, suite10):
    serial_report, serial_s = _suite_run(suite10, "serial", 1)

    def parallel_run():
        return _suite_run(suite10, "process", 4)

    parallel_report, parallel_s = benchmark.pedantic(
        parallel_run, rounds=1, iterations=1
    )
    speedup = serial_s / parallel_s
    m = parallel_report.metrics

    print_series("Engine — serial vs process(workers=4), full C suite", [
        f"serial   {serial_s:7.2f} s",
        f"process  {parallel_s:7.2f} s   speedup {speedup:4.2f}x   "
        f"utilization {m.worker_utilization:5.1%} over "
        f"{len(m.worker_busy_s)} worker(s)",
    ])

    # determinism: byte-identical reports regardless of policy
    assert render_csv(parallel_report) == render_csv(serial_report)
    assert parallel_report.pass_rate() == serial_report.pass_rate()
    assert parallel_report.by_failure_kind() == serial_report.by_failure_kind()

    cores = _usable_cores()
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x with 4 process workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    elif cores >= 2:
        assert speedup >= 1.2, (
            f"expected >= 1.2x with process workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        pytest.xfail("single-core host: parallel speedup is not measurable")


def test_bench_compile_cache_warm_rerun(benchmark, suite10):
    """Second run of the same config through one runner: compiles all hit."""
    behavior = vendor_version("caps", "3.2.3").behavior("c")
    config = HarnessConfig(iterations=1, languages=("c",), run_cross=False)
    runner = ValidationRunner(behavior, config)

    cold_start = time.perf_counter()
    cold = runner.run_suite(suite10)
    cold_s = time.perf_counter() - cold_start

    def warm_run():
        return runner.run_suite(suite10)

    warm_start = time.perf_counter()
    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_s = time.perf_counter() - warm_start

    print_series("Engine — compile cache, repeated full-suite run", [
        f"cold {cold_s:6.2f} s   hit rate {cold.metrics.cache_hit_rate:6.1%}",
        f"warm {warm_s:6.2f} s   hit rate {warm.metrics.cache_hit_rate:6.1%}"
        f"   ({cold_s / warm_s:4.2f}x)",
    ])

    assert cold.metrics.cache_hits == 0
    assert warm.metrics.cache_hit_rate == 1.0
    # identical verdicts either way
    assert render_csv(warm) == render_csv(cold)
    # the warm run skips every parse and every run; demand a real saving
    assert warm_s < cold_s
    assert warm.metrics.compile_s < cold.metrics.compile_s


def test_bench_cache_key_isolation(suite10):
    """Sanity: two behaviours sharing a cache share the parse, never the
    verdict: each compile validates under its own behaviour."""
    from repro.compiler import CompileCache, Compiler

    cache = CompileCache()
    template = suite10.get("declare", "c") or next(iter(suite10))
    generated = generate_functional(template)
    ok = cache.get_or_compile(
        Compiler(frontend=cache), generated.source, template.language,
        template.name
    )
    behavior = vendor_version("caps", "3.1.0").behavior("c")
    second = cache.get_or_compile(
        Compiler(behavior, frontend=cache), generated.source,
        template.language, template.name
    )
    assert ok.error is None
    assert second.hit  # the parse is shared...
    assert second.program is not ok.program  # ...the compile is not
    assert second.program is None or second.program.behavior is behavior
