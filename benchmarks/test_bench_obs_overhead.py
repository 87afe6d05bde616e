"""Observability-overhead benchmark: traced vs untraced suite runs.

The tracing subsystem (repro.obs) is on the hot path of every phase —
``_run_phase`` opens three spans per phase and the spans double as the
runner's timers.  Two guarantees are measured here:

* the *disabled* path (the default ``NULL_TRACER``) stays the baseline —
  ``test_bench_parallel_engine`` keeps asserting the untraced speedups, and
  this bench pins the untraced run as the denominator;
* a fully *enabled* tracer with profiling collects thousands of spans
  (each ``execute`` span carrying its phase's profile) and events for
  bounded cost (asserted ≤ 1.6× the
  untraced run — generous; typical overhead is a few percent).
"""

import gc
import statistics
import time

from benchmarks.conftest import print_series
from repro.compiler.vendors import vendor_version
from repro.harness import HarnessConfig, ValidationRunner, render_csv
from repro.obs import Tracer


def _run(suite, tracer=None, **config_kw):
    behavior = vendor_version("pgi", "13.2").behavior("c")
    config = HarnessConfig(iterations=3, languages=("c",), **config_kw)
    runner = ValidationRunner(behavior, config, tracer=tracer)
    gc.collect()  # no run pays for its predecessor's garbage
    start = time.perf_counter()
    report = runner.run_suite(suite)
    return report, time.perf_counter() - start


def test_bench_tracing_overhead(benchmark, suite10):
    untraced_report, untraced_s = _run(suite10)

    tracer = Tracer(profile=True)

    def traced_run():
        return _run(suite10, tracer=tracer)

    traced_report, traced_s = benchmark.pedantic(
        traced_run, rounds=1, iterations=1
    )
    overhead = traced_s / untraced_s

    templates = [s for s in tracer.spans if s.name == "template"]
    executes = [s for s in tracer.spans if s.name == "execute"]
    print_series("Observability — traced vs untraced, full C suite", [
        f"untraced {untraced_s:7.2f} s",
        f"traced   {traced_s:7.2f} s   overhead {overhead:5.2f}x   "
        f"{len(tracer.spans)} spans, {len(tracer.events)} events, "
        f"{len(executes)} profiled phases",
    ])

    # tracing observes the run, it must never change it
    assert render_csv(traced_report) == render_csv(untraced_report)

    # the trace actually captured the run (3+ spans per template phase)
    assert len(tracer.spans) > 3 * len(traced_report.results)
    assert len(templates) == len(traced_report.results)
    assert executes and all("bytes_to_device" in s.attrs for s in executes)

    # bounded cost: well under 1.6x even on noisy CI hosts
    assert overhead <= 1.6, (
        f"tracing overhead {overhead:.2f}x exceeds the 1.6x budget "
        f"({untraced_s:.2f}s -> {traced_s:.2f}s)"
    )


#: alternating live/plain pairs behind the live-telemetry gate: one ratio
#: of two ~1 s runs read 0.79-1.48x over 60 pairs of unchanged code (2-core
#: host, median 1.05x), so the gate reads the median of many pairs
LIVE_PAIRS = 15


def test_bench_live_telemetry_overhead(benchmark, suite10, tmp_path):
    """Live telemetry (NDJSON stream + prom textfile) must stay cheap.

    Every unit completion writes and flushes one stream line; snapshots
    (and the fsync'd atomic prom rewrite they trigger) are throttled to
    one per 0.2s.  The gate: over :data:`LIVE_PAIRS` alternating pairs of
    a fully telemetered and an untelemetered run, the median ratio is at
    most 1.15x.
    """
    from repro.obs.live import lint_prometheus, read_live

    def pair(k):
        stream = tmp_path / f"bench{k}.ndjson"
        prom = tmp_path / f"bench{k}.prom"

        def live():
            return _run(suite10, live_stream=str(stream), prom=str(prom))

        # alternate which run goes first, so drift charges neither side
        if k % 2:
            live_run = live()
            plain_run = _run(suite10)
        else:
            plain_run = _run(suite10)
            live_run = live()
        return plain_run, live_run, stream, prom

    runs = benchmark.pedantic(
        lambda: [pair(k) for k in range(LIVE_PAIRS)], rounds=1, iterations=1)
    ratios = sorted(live_s / plain_s
                    for (_, plain_s), (_, live_s), _, _ in runs)
    overhead = statistics.median(ratios)

    rows = []
    for k, ((plain_report, plain_s), (live_report, live_s), stream,
            prom) in enumerate(runs):
        parsed = read_live(str(stream))
        rows.append(
            f"pair {k}   plain {plain_s:6.2f} s   live {live_s:6.2f} s   "
            f"ratio {live_s / plain_s:5.2f}x   "
            f"{len(parsed.records)} stream records, "
            f"{len(parsed.snapshots())} snapshots")
        # telemetry observes the run, it must never change it
        assert render_csv(live_report) == render_csv(plain_report)
        # the stream captured every unit and a lint-clean prom export
        assert len(parsed.events("unit.finished")) == \
            len(live_report.results)
        assert parsed.final_snapshot is not None
        assert lint_prometheus(prom.read_text()) == []
    rows.append(f"median overhead {overhead:5.2f}x "
                f"(range {ratios[0]:.2f}-{ratios[-1]:.2f}x)")
    print_series("Live telemetry — streamed vs untelemetered, full C suite",
                 rows)

    # bounded cost, on the median pair
    assert overhead <= 1.15, (
        f"live-telemetry overhead {overhead:.2f}x (median of "
        f"{LIVE_PAIRS} pairs: {', '.join(f'{r:.2f}' for r in ratios)}) "
        f"exceeds the 1.15x budget"
    )
