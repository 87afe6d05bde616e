"""Tests for live campaign telemetry (repro.obs.live).

Covers the PR's acceptance criteria:

* the pipeline: sequence stamping and sink fan-out; it subscribes to
  the run's tracer, so the stream's event counts equal the trace's under
  every execution policy and inside Titan checks;
* ``unit_fields``/``ProgressTally`` mirror the ``build_metrics`` skip
  rule, so a tally folded from the stream reconciles *exactly* with the
  report's :class:`~repro.harness.engine.RunMetrics` integers;
* snapshots are monotone (units_done, wall clock) under an injected
  clock and in real streams;
* reports are byte-identical with telemetry on or off, across all three
  execution policies;
* journal resume: replayed units count toward progress and are marked
  ``replayed``; the resumed report matches an uninterrupted run;
* the tolerant reader: a torn tail is skipped and counted, a wrong
  format tag raises either way; ``repro obs tail`` survives both;
* Prometheus rendering passes its own linter, and the linter catches
  broken exposition text;
* the CLI surface: ``validate --live-stream/--status/--prom``,
  ``repro obs tail``/``repro obs perf``, and ``benchmarks.record``'s
  perf-history appending.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import main
from repro.compiler.vendors import vendor_version
from repro.faults import FaultPlan, InjectedJournalTear
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_text,
)
from repro.harness.runner import IterationOutcome, PhaseResult
from repro.harness.runner import TestResult as _TestResult
from repro.obs import Tracer
from repro.obs.live import (
    LIVE_FORMAT,
    LiveTelemetry,
    NDJSONStreamSink,
    ProgressTally,
    SnapshotReporter,
    StatusLineSink,
    lint_prometheus,
    parse_live,
    read_live,
    render_prometheus,
    render_status_line,
    render_tally_text,
    unit_fields,
)

_PGI = vendor_version("pgi", "13.2").behavior("c")


def _quick_config(**kw) -> HarnessConfig:
    base = dict(iterations=1, run_cross=False, languages=("c",),
                feature_prefixes=["parallel"])
    base.update(kw)
    return HarnessConfig(**base)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class _ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_pipeline_fans_out_to_sinks():
    sink = _ListSink()
    telemetry = LiveTelemetry([sink])
    telemetry.begin(total_units=1, command="test")
    tracer = Tracer()
    telemetry.attach(tracer)
    tracer.event("engine.retry", template="a:c", attempt=0)
    telemetry.end()
    tracer.event("engine.retry", template="late:c", attempt=0)  # detached
    assert [r.get("kind", r["type"]) for r in sink.records] == \
        ["meta", "campaign.start", "engine.retry", "snapshot"]
    assert [r["seq"] for r in sink.records] == [0, 1, 2, 3]
    assert sink.records[2]["fields"] == {"template": "a:c", "attempt": 0}
    assert sink.records[3]["retries"] == 1
    assert tracer.subscribers == ()


def test_pipeline_keeps_every_event_reported_from_many_threads():
    # threads reporting into one tracer must each reach the stream once,
    # with a gap-free sequence: a lost update would break either count
    import sys
    import threading

    sink = _ListSink()
    telemetry = LiveTelemetry([sink])
    telemetry.begin(total_units=0, command="stress")
    tracer = Tracer()
    telemetry.attach(tracer)
    threads_n, per_thread = 8, 200

    def report():
        for attempt in range(per_thread):
            tracer.event("engine.retry", attempt=attempt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=report) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    telemetry.end()
    total = threads_n * per_thread
    assert len(tracer.events) == total
    assert sum(1 for r in sink.records if r.get("kind") == "engine.retry") \
        == total
    assert [r["seq"] for r in sink.records] == list(range(len(sink.records)))
    assert telemetry.tally.retries == total


# ---------------------------------------------------------------------------
# unit fields mirror the build_metrics skip rule
# ---------------------------------------------------------------------------


def _result(template, functional, cross=None, elapsed=0.5):
    return _TestResult(template=template, functional=functional,
                       cross=cross, elapsed_s=elapsed)


def test_unit_fields_skip_harness_error_phases(suite10):
    template = suite10.get("parallel", "c")
    broken = PhaseResult(mode="functional", source="",
                         harness_error="worker died",
                         iterations=[IterationOutcome(ok=True, value=0)],
                         compile_s=9.0, run_s=9.0, cache_hit=True)
    ok = PhaseResult(mode="cross", source="", cache_hit=True,
                     iterations=[IterationOutcome(ok=True, value=0)],
                     compile_s=0.1, run_s=0.2)
    fields = unit_fields(0, "parallel:c", _result(template, broken, ok))
    # the harness-errored phase contributes nothing to the totals...
    assert fields["iterations"] == 1
    assert fields["compile_cache_hits"] == 1
    assert fields["compile_cache_misses"] == 0
    assert fields["compile_s"] == pytest.approx(0.1)
    assert fields["run_s"] == pytest.approx(0.2)
    # ...but is still visible in the per-phase verdicts
    assert fields["phases"]["functional"]["harness_error"] is True
    assert fields["phases"]["cross"]["ok"] is True
    assert fields["passed"] is False
    assert fields["failure_kind"] == "harness_error"


def test_unit_fields_lowering_cache(suite10):
    template = suite10.get("parallel", "c")
    hit = PhaseResult(mode="functional", source="", lower_hit=True,
                      iterations=[IterationOutcome(ok=True, value=0)])
    fields = unit_fields(0, "u", _result(template, hit))
    assert fields["lower_cache_hits"] == 1
    assert fields["lower_cache_misses"] == 0
    # lower_hit is None (the phase never ran) -> neither counter moves
    unrun = PhaseResult(mode="functional", source="",
                        iterations=[IterationOutcome(ok=True, value=0)])
    fields = unit_fields(0, "u", _result(template, unrun))
    assert fields["lower_cache_hits"] == 0
    assert fields["lower_cache_misses"] == 0


# ---------------------------------------------------------------------------
# tally + snapshots
# ---------------------------------------------------------------------------


def _unit_event(**fields):
    base = {"unit": "u", "index": 0, "replayed": False,
            "passed": True, "failure_kind": None, "elapsed_s": 0.25,
            "iterations": 2, "compile_cache_hits": 1,
            "compile_cache_misses": 0, "lower_cache_hits": 0,
            "lower_cache_misses": 0, "compile_s": 0.1, "run_s": 0.1,
            "phases": {"functional": {"ok": True, "harness_error": False,
                                      "static_error": False}}}
    base.update(fields)
    return {"type": "event", "kind": "unit.finished", "fields": base}


def test_tally_folds_campaign_events():
    tally = ProgressTally()
    tally.fold({"type": "event", "kind": "campaign.start",
                "fields": {"total_units": 3}})
    tally.fold({"type": "event", "kind": "campaign.extend",
                "fields": {"units": 2}})
    tally.fold(_unit_event(replayed=True))
    tally.fold(_unit_event(passed=False, failure_kind="wrong_value",
                           phases={"functional": {
                               "ok": False, "harness_error": False,
                               "static_error": False}}))
    tally.fold({"type": "event", "kind": "engine.retry", "fields": {}})
    tally.fold({"type": "event", "kind": "titan.quarantined", "fields": {}})
    # snapshots are ignored by the fold (they are derived, not source)
    tally.fold({"type": "snapshot", "units_done": 99})
    assert tally.total_units == 5
    assert tally.units_done == 2
    assert tally.replayed == 1
    assert tally.passed == 1 and tally.failed == 1
    assert tally.failure_kinds == {"wrong_value": 1}
    assert tally.retries == 1 and tally.quarantined == 1
    assert tally.phase_counts["functional"] == {
        "pass": 1, "fail": 1, "harness_error": 0, "static_error": 0}
    assert tally.unit_timing == [2, 0.5, 0.25, 0.25]


def test_snapshots_are_monotone_under_injected_clock():
    now = [100.0]
    reporter = SnapshotReporter(every_units=1, min_interval_s=1.0,
                                clock=lambda: now[0])
    reporter.begin()
    snaps = []
    for i in range(6):
        reporter.tally.fold({"type": "event", "kind": "campaign.start",
                             "fields": {"total_units": 6}})
        reporter.tally.fold(_unit_event(index=i))
        # only every other fold advances past the interval throttle
        if i % 2:
            now[0] += 1.5
        if reporter.due():
            snaps.append(reporter.snapshot())
    snaps.append(reporter.snapshot(final=True))
    assert snaps[-1]["final"] is True
    done = [s["units_done"] for s in snaps]
    walls = [s["wall_s"] for s in snaps]
    assert done == sorted(done)
    assert walls == sorted(walls)
    assert all(0.0 <= s["progress"] <= 1.0 for s in snaps)
    # the interval throttle actually suppressed some snapshots
    assert len(snaps) < 7


def test_snapshot_units_per_sec_counts_fresh_units_only():
    now = [0.0]
    reporter = SnapshotReporter(clock=lambda: now[0])
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 4}})
    reporter.tally.fold(_unit_event(replayed=True))
    reporter.tally.fold(_unit_event())
    now[0] = 2.0
    snap = reporter.snapshot()
    # 1 fresh unit in 2s; the replayed unit cost no wall time
    assert snap["units_per_sec"] == pytest.approx(0.5)
    assert snap["units_done"] == 2 and snap["replayed"] == 1
    assert snap["eta_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# byte-identical reports, on or off
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy,workers", [
    ("serial", 1), ("thread", 2), ("process", 2),
])
def test_reports_identical_with_and_without_telemetry(
        tmp_path, suite10, policy, workers):
    plain = ValidationRunner(_PGI, _quick_config(
        policy=policy, workers=workers))
    baseline = plain.run_suite(suite10)

    stream = tmp_path / "run.ndjson"
    prom = tmp_path / "run.prom"
    live = ValidationRunner(_PGI, _quick_config(
        policy=policy, workers=workers,
        live_stream=str(stream), prom=str(prom)))
    observed = live.run_suite(suite10)

    assert render_csv(observed) == render_csv(baseline)
    assert render_text(observed) == render_text(baseline)

    parsed = read_live(str(stream))
    assert parsed.meta["format"] == LIVE_FORMAT
    assert parsed.meta["policy"] == policy
    final = parsed.final_snapshot
    assert final is not None
    assert final["units_done"] == final["total_units"] == \
        len(baseline.results)
    assert lint_prometheus(prom.read_text()) == []


def test_stream_reconciles_exactly_with_run_metrics(tmp_path, suite10):
    stream = tmp_path / "run.ndjson"
    runner = ValidationRunner(_PGI, HarnessConfig(
        iterations=2, languages=("c",), feature_prefixes=["parallel", "loop"],
        live_stream=str(stream)))
    report = runner.run_suite(suite10)
    metrics = report.metrics

    parsed = read_live(str(stream))
    tally = parsed.tally()
    # integer totals folded from per-unit events match the report exactly
    assert tally.units_done == metrics.templates == len(report.results)
    assert tally.iterations_run == metrics.iterations_run
    assert tally.programs_executed == metrics.programs_executed
    assert tally.compile_cache_hits == metrics.cache_hits
    assert tally.compile_cache_misses == metrics.cache_misses
    assert tally.failure_kinds == metrics.failure_kinds
    assert tally.failed == len(report.failures())
    assert tally.passed == len(report.results) - tally.failed
    # floats come from the authoritative run_metrics block of the final
    # snapshot (summation order differs across policies)
    final = parsed.final_snapshot
    assert final["run_metrics"]["wall_s"] == metrics.wall_s
    assert final["run_metrics"]["compile_s"] == metrics.compile_s
    assert final["run_metrics"]["iterations_run"] == metrics.iterations_run
    # the in-stream snapshots agree with the report too
    assert final["passed"] == tally.passed
    assert final["iterations_run"] == metrics.iterations_run
    # monotone in the real stream as well
    done = [s["units_done"] for s in parsed.snapshots()]
    assert done == sorted(done)


def test_live_telemetry_survives_engine_exception(tmp_path, suite10):
    stream = tmp_path / "run.ndjson"
    config = _quick_config(
        live_stream=str(stream),
        fault_plan=FaultPlan.parse("stall=1.0,seed=1"),
        template_timeout_s=0.0001,
    )
    # a 100% stall plan with a tiny budget: every unit times out but the
    # run completes; the point is the sink is closed with a final snapshot
    runner = ValidationRunner(_PGI, config)
    report = runner.run_suite(suite10)
    parsed = read_live(str(stream))
    assert parsed.final_snapshot is not None
    assert parsed.final_snapshot["units_done"] == len(report.results)


# ---------------------------------------------------------------------------
# journal resume: replayed units count toward progress
# ---------------------------------------------------------------------------


def test_resume_marks_replayed_units(tmp_path, suite10):
    from repro.journal import JournalWriter, validate_campaign_key

    plan = FaultPlan.parse("journal=0.3,seed=7,max-fires=1")
    config = _quick_config(fault_plan=plan)
    campaign = validate_campaign_key("1.0", _PGI, config)

    journal_path = tmp_path / "c.journal"
    torn_runner = ValidationRunner(_PGI, config)
    journal = JournalWriter.create(str(journal_path), campaign,
                                   faults=torn_runner.faults)
    with pytest.raises(InjectedJournalTear):
        torn_runner.run_suite(suite10, journal=journal)
    journal.close()
    assert journal.records, "the tear should land after >= 1 append"

    stream = tmp_path / "resume.ndjson"
    resumed_config = _quick_config(fault_plan=plan,
                                   live_stream=str(stream))
    resumed_runner = ValidationRunner(_PGI, resumed_config)
    journal = JournalWriter.resume(str(journal_path), campaign,
                                   faults=resumed_runner.faults)
    report = resumed_runner.run_suite(suite10, journal=journal)
    journal.close()

    baseline = ValidationRunner(_PGI, _quick_config()).run_suite(suite10)
    assert render_csv(report) == render_csv(baseline)

    parsed = read_live(str(stream))
    tally = parsed.tally()
    assert tally.replayed >= 1
    assert tally.units_done == len(report.results)
    replayed_events = [r for r in parsed.events("unit.finished")
                       if r["fields"]["replayed"]]
    assert len(replayed_events) == tally.replayed
    final = parsed.final_snapshot
    assert final["replayed"] == tally.replayed
    assert final["progress"] == 1.0


# ---------------------------------------------------------------------------
# the tolerant reader
# ---------------------------------------------------------------------------


def _write_stream(path, torn=False):
    telemetry = LiveTelemetry([NDJSONStreamSink(str(path))])
    telemetry.begin(total_units=2, command="test")
    telemetry.publish("unit.finished", _unit_event()["fields"])
    telemetry.end()
    if torn:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "kind": "unit.fin')  # killed mid-write


def test_parse_live_strict_vs_tolerant(tmp_path):
    path = tmp_path / "t.ndjson"
    _write_stream(path, torn=True)
    with pytest.raises(ValueError, match="invalid JSON"):
        read_live(str(path))
    stream = read_live(str(path), strict=False)
    assert stream.malformed == 1
    assert stream.final_snapshot is not None
    assert stream.tally().units_done == 1


def test_parse_live_rejects_wrong_format_even_tolerant():
    text = json.dumps({"type": "meta", "format": "something/else"})
    with pytest.raises(ValueError, match="unsupported format"):
        parse_live(text, strict=False)


def test_render_tally_text_reconciles(tmp_path):
    path = tmp_path / "t.ndjson"
    _write_stream(path)
    stream = read_live(str(path))
    text = render_tally_text(stream.tally(), final=stream.final_snapshot)
    assert "units done         : 1/2" in text
    assert "compile cache      : 1 hits / 0 misses" in text


# ---------------------------------------------------------------------------
# status line + prometheus
# ---------------------------------------------------------------------------


def test_status_line_sink_repaints_and_finishes_clean():
    out = io.StringIO()
    sink = StatusLineSink(out)
    reporter = SnapshotReporter(clock=lambda: 0.0)
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 2}})
    reporter.tally.fold(_unit_event())
    sink.emit({"type": "event", "kind": "noise"})  # events don't repaint
    sink.emit(reporter.snapshot())
    sink.close(reporter.snapshot(final=True))
    text = out.getvalue()
    assert text.startswith("\r")
    assert text.endswith("\n")
    assert "1/2" in text


def test_render_status_line_contents():
    line = render_status_line({
        "units_done": 3, "total_units": 10, "progress": 0.3,
        "passed": 2, "failed": 1, "units_per_sec": 1.5, "eta_s": 4.7,
        "compile_cache": {"hit_rate": 0.5},
    })
    assert "3/10" in line
    assert "pass 2" in line and "fail 1" in line
    assert "eta" in line


def test_prometheus_render_passes_own_linter():
    reporter = SnapshotReporter(clock=lambda: 0.0)
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 2}})
    reporter.tally.fold(_unit_event(passed=False,
                                    failure_kind="wrong_value"))
    reporter.tally.fold(_unit_event(lower_cache_hits=1))
    text = render_prometheus(reporter.snapshot(final=True))
    assert lint_prometheus(text) == []
    assert "repro_campaign_units_done_total 2" in text
    # one unit timing, no label
    assert "repro_campaign_unit_seconds_count 2" in text
    assert "repro_campaign_unit_seconds_sum 0.5" in text
    assert 'failure_kinds{kind="wrong_value"}' not in text  # spec'd name
    assert 'repro_campaign_failures_total{kind="wrong_value"} 1' in text


def test_prometheus_linter_catches_breakage():
    assert lint_prometheus("repro_x 1\n") != []  # sample without HELP/TYPE
    dup = ("# HELP repro_x h\n# TYPE repro_x gauge\n"
           "repro_x 1\nrepro_x 2\n")
    assert any("duplicate" in p for p in lint_prometheus(dup))
    bad = "# HELP repro_y h\n# TYPE repro_y gauge\nrepro_y oops\n"
    assert any("number" in p for p in lint_prometheus(bad))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_from_config_returns_none_without_sinks():
    assert LiveTelemetry.from_config(HarnessConfig()) is None


def test_config_rejects_empty_sink_paths():
    with pytest.raises(ValueError):
        HarnessConfig(live_stream="")
    with pytest.raises(ValueError):
        HarnessConfig(prom="   ")


def test_live_knobs_do_not_change_campaign_identity(tmp_path):
    from repro.journal import validate_campaign_key

    quiet = validate_campaign_key("1.0", _PGI, _quick_config())
    loud = validate_campaign_key("1.0", _PGI, _quick_config(
        live_stream=str(tmp_path / "s.ndjson"), status=True,
        prom=str(tmp_path / "s.prom")))
    assert quiet == loud


# ---------------------------------------------------------------------------
# lowering-cache instrumentation (satellite)
# ---------------------------------------------------------------------------


def test_lowering_cache_counters_hit_and_miss():
    from repro.compiler import Compiler
    from repro.obs import render_summary_text, summarize_trace
    from repro.obs.sink import parse_trace, trace_to_jsonl

    tracer = Tracer()
    compiled = Compiler().compile("int main() { return 0; }", "c")
    with tracer.span("suite-run"):
        first = compiled.runner(tracer=tracer, name="t")
        second = compiled.runner(tracer=tracer, name="t")
    assert first.lower_hit is False
    assert second.lower_hit is True
    assert [e.name for e in tracer.events] == \
        ["lower.cache_miss", "lower.cache_hit"]

    trace = parse_trace(trace_to_jsonl(tracer, meta={"command": "t"}))
    summary = summarize_trace(trace)
    assert summary.lower_hits == 1 and summary.lower_misses == 1
    assert "lowering cache     : 1 hits / 1 misses" in \
        render_summary_text(summary)


def test_journal_round_trips_lower_hit(tmp_path, suite10):
    from repro.journal import JournalWriter, read_journal, \
        validate_campaign_key
    from repro.journal.codec import decode_result

    config = _quick_config(feature_prefixes=["parallel.if"])
    campaign = validate_campaign_key("1.0", _PGI, config)
    path = tmp_path / "j.journal"
    runner = ValidationRunner(_PGI, config)
    journal = JournalWriter.create(str(path), campaign)
    report = runner.run_suite(suite10, journal=journal)
    journal.close()

    assert len(report.results) == 1
    original = report.results[0]
    assert original.functional.lower_hit is not None

    loaded = read_journal(str(path))
    assert len(loaded.records) == 1
    (payload,) = loaded.records.values()
    decoded = decode_result(payload, original.template)
    assert decoded.functional.lower_hit == original.functional.lower_hit


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


def test_cli_validate_live_stream_prom_status(tmp_path, capsys):
    stream = tmp_path / "run.ndjson"
    prom = tmp_path / "run.prom"
    out = tmp_path / "report.csv"
    rc = main(["validate", "--features", "parallel.if", "--iterations", "1",
               "--no-cross", "--language", "c",
               "--live-stream", str(stream), "--prom", str(prom),
               "--status", "--format", "csv", "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "\r" in err and "100.0%" in err

    parsed = read_live(str(stream))
    assert parsed.meta["format"] == LIVE_FORMAT
    assert parsed.final_snapshot["final"] is True
    assert lint_prometheus(prom.read_text()) == []
    sidecar = json.loads((tmp_path / "run.ndjson.snapshot.json").read_text())
    assert sidecar == parsed.final_snapshot


def test_cli_obs_tail_and_summarize(tmp_path, capsys):
    stream = tmp_path / "run.ndjson"
    assert main(["validate", "--features", "parallel.if",
                 "--iterations", "1", "--no-cross", "--language", "c",
                 "--live-stream", str(stream), "--format", "csv",
                 "--output", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()

    assert main(["obs", "tail", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "campaign.start" in out
    assert "unit.finished" in out
    assert "FINAL" in out

    assert main(["obs", "tail", str(stream), "--summarize"]) == 0
    out = capsys.readouterr().out
    assert "units done" in out
    assert "run metrics" in out


def test_cli_obs_tail_tolerates_torn_tail(tmp_path, capsys):
    stream = tmp_path / "t.ndjson"
    _write_stream(stream, torn=True)
    assert main(["obs", "tail", str(stream), "--summarize"]) == 0
    captured = capsys.readouterr()
    assert "malformed" in captured.err
    assert "units done" in captured.out


def test_cli_obs_tail_follow_reads_to_final(tmp_path, capsys):
    stream = tmp_path / "f.ndjson"
    _write_stream(stream)
    assert main(["obs", "tail", str(stream), "--follow",
                 "--poll-s", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "unit.finished" in out
    assert "FINAL" in out


#: a stream written while the interpreter was still a choice: every unit
#: carries ``backend`` and snapshots carry ``backend_timing``
_BACKEND_STREAM = os.path.join(os.path.dirname(__file__), "data",
                               "live_v1_backend_fields.ndjson")


def test_stream_with_backend_fields_folds_and_summarizes(capsys):
    tally = read_live(_BACKEND_STREAM).tally()
    assert (tally.units_done, tally.passed) == (2, 2)
    # both units land in the one unit timing
    count, total_s, lo, hi = tally.unit_timing
    assert count == 2 and lo <= hi
    assert total_s == pytest.approx(0.097765, abs=1e-5)
    # written before iterations were replicated: every iteration executed
    assert (tally.iterations_run, tally.programs_executed) == (4, 4)

    assert main(["obs", "tail", _BACKEND_STREAM]) == 0
    assert "FINAL" in capsys.readouterr().out
    assert main(["obs", "tail", _BACKEND_STREAM, "--summarize"]) == 0
    out = capsys.readouterr().out
    assert "units done         : 2/2" in out
    assert "unit time          : 2 units, mean 0.0489s" in out
    assert "iterations         : 4 (4 executed)" in out
    assert "backend" not in out
    assert "run metrics" in out


def test_cli_obs_tail_missing_file(tmp_path, capsys):
    assert main(["obs", "tail", str(tmp_path / "nope.ndjson")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_obs_perf_renders_history(tmp_path, capsys):
    entry = {
        "schema": "bench-hotpath/1", "git_sha": "abc1234",
        "recorded_at": "2026-08-08T00:00:00Z",
        "python": "3.11.7", "machine": "x86_64",
        "microbench": {"tree_steps_per_sec": 900000,
                       "closures_steps_per_sec": 5000000,
                       "speedup": 5.56, "steps": 1, "reps": 3},
        "engine": {"tree": {"iterations_per_sec": 250.0},
                   "closures": {"iterations_per_sec": 240.0}},
        "generation": {"templates_per_sec": 20000.0},
        "fig8a": {"wall_s": 8.0},
    }
    second = dict(entry, git_sha="def5678",
                  microbench=dict(entry["microbench"],
                                  closures_steps_per_sec=5400000))
    history = tmp_path / "h.jsonl"
    history.write_text(json.dumps(entry) + "\n" + json.dumps(second) + "\n")
    out = tmp_path / "perf.html"
    assert main(["obs", "perf", str(history), "--output", str(out)]) == 0
    page = out.read_text()
    assert "abc1234" in page and "def5678" in page
    assert "5,400,000" in page  # hero number = latest run
    assert "<svg" in page and "<table>" in page
    # escaping: poisoned sha must not land raw in the page
    entry["git_sha"] = "<script>alert(1)</script>"
    history.write_text(json.dumps(entry) + "\n")
    capsys.readouterr()
    assert main(["obs", "perf", str(history)]) == 0
    page = capsys.readouterr().out
    assert "<script>alert(1)" not in page


def test_cli_obs_perf_renders_engine_with_and_without_tree(tmp_path,
                                                          capsys):
    # history lines recorded while the engine benchmark also ran the tree
    # walker carry engine.tree; later lines measure the interpreter only
    old = {
        "schema": "bench-hotpath/1", "git_sha": "old1234",
        "microbench": {"tree_steps_per_sec": 900000,
                       "closures_steps_per_sec": 5000000,
                       "speedup": 5.56, "steps": 1, "reps": 3},
        "engine": {"closures": {"iterations_per_sec": 240.0},
                   "speedup": 1.04,
                   "tree": {"iterations_per_sec": 231.5}},
    }
    new = dict(old, git_sha="new5678",
               engine={"closures": {"iterations_per_sec": 260.0}})
    history = tmp_path / "h.jsonl"
    history.write_text(json.dumps(old) + "\n" + json.dumps(new) + "\n")
    assert main(["obs", "perf", str(history)]) == 0
    page = capsys.readouterr().out
    rows = [row for row in page.split("<tr>") if "<td>" in row]
    assert len(rows) == 2
    assert "<td class='n'>231.5</td>" in rows[0]
    assert "<td class='n'>—</td><td class='n'>260.0</td>" in rows[1]


def test_cli_obs_perf_renders_engine_executed_where_recorded(tmp_path,
                                                             capsys):
    # lines recorded before iterations were replicated have no
    # engine.closures.executed: every iteration ran
    old = {
        "schema": "bench-hotpath/1", "git_sha": "old1234",
        "microbench": {"tree_steps_per_sec": 900000,
                       "closures_steps_per_sec": 5000000,
                       "speedup": 5.56, "steps": 1, "reps": 3},
        "engine": {"closures": {"iterations": 456,
                                "iterations_per_sec": 240.0}},
    }
    new = dict(old, git_sha="new5678",
               engine={"closures": {"iterations": 456, "executed": 228,
                                    "iterations_per_sec": 480.0}})
    history = tmp_path / "h.jsonl"
    history.write_text(json.dumps(old) + "\n" + json.dumps(new) + "\n")
    assert main(["obs", "perf", str(history)]) == 0
    page = capsys.readouterr().out
    assert "<th>engine executed</th>" in page
    rows = [row for row in page.split("<tr>") if "<td>" in row]
    assert "<td class='n'>240.0</td><td class='n'>—</td>" in rows[0]
    assert "<td class='n'>480.0</td><td class='n'>228 / 456</td>" in rows[1]


def test_cli_obs_perf_empty_input(tmp_path, capsys):
    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    assert main(["obs", "perf", str(empty)]) == 1
    assert "no bench history" in capsys.readouterr().err


def test_cli_titan_live_stream(tmp_path, capsys):
    stream = tmp_path / "titan.ndjson"
    rc = main(["titan", "--nodes", "4", "--sample", "2",
               "--live-stream", str(stream)])
    assert rc == 0
    capsys.readouterr()
    parsed = read_live(str(stream))
    tally = parsed.tally()
    assert tally.units_done >= 4  # sample*stacks + any triage rechecks
    assert parsed.final_snapshot is not None
    assert parsed.final_snapshot["units_done"] == tally.units_done


# ---------------------------------------------------------------------------
# bench history (satellite)
# ---------------------------------------------------------------------------


def test_record_appends_history_with_sha_and_timestamp(tmp_path):
    from benchmarks.record import append_history

    data = {"schema": "bench-hotpath/1", "recorded_at": "ambient",
            "microbench": {"closures_steps_per_sec": 1}}
    path = tmp_path / "h.jsonl"
    append_history(data, str(path), "cafe123", "2026-08-08T12:00:00Z")
    append_history(data, str(path), "beef456")
    lines = [json.loads(line) for line in
             path.read_text().splitlines()]
    assert lines[0]["git_sha"] == "cafe123"
    assert lines[0]["recorded_at"] == "2026-08-08T12:00:00Z"
    assert lines[1]["git_sha"] == "beef456"
    assert lines[1]["recorded_at"] == "ambient"  # no override: keep as-is
    # the input dict is not mutated
    assert "git_sha" not in data


def test_record_history_requires_git_sha(capsys):
    from benchmarks.record import main as record_main

    with pytest.raises(SystemExit) as exc:
        record_main(["--history", "h.jsonl"])
    assert exc.value.code == 2
    assert "--git-sha" in capsys.readouterr().err


def test_committed_history_parses_and_renders():
    from repro.obs import render_perf_html

    with open("benchmarks/BENCH_history.jsonl", encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    assert entries, "BENCH_history.jsonl must have at least the seed entry"
    for entry in entries:
        assert entry["schema"] == "bench-hotpath/1"
        assert entry["git_sha"]
    page = render_perf_html(entries)
    assert entries[-1]["git_sha"] in page


def test_cli_obs_tail_follow_idle_timeout_exits_1(tmp_path, capsys):
    # a follower of a dead campaign must not hang forever: without new
    # data for --idle-timeout-s it gives up with exit 1
    stream = tmp_path / "dead.ndjson"
    telemetry = LiveTelemetry([NDJSONStreamSink(str(stream))])
    telemetry.begin(total_units=2, command="test")
    telemetry.publish("unit.finished", _unit_event()["fields"])
    # no .end(): the writer died — the stream has no final snapshot
    assert main(["obs", "tail", str(stream), "--follow",
                 "--poll-s", "0.01", "--idle-timeout-s", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "unit.finished" in captured.out
    assert "no new stream data" in captured.err


def test_cli_obs_tail_follow_idle_timeout_covers_missing_file(
        tmp_path, capsys):
    # a path that never appears also trips the idle budget
    assert main(["obs", "tail", str(tmp_path / "never.ndjson"), "--follow",
                 "--poll-s", "0.01", "--idle-timeout-s", "0.1"]) == 1
    assert "no new stream data" in capsys.readouterr().err


def test_cli_obs_tail_follow_detects_shrinking_file(tmp_path, capsys):
    # rotation/truncation: the writer replaced the stream with a shorter
    # file; the follower must restart from offset 0 instead of silently
    # waiting at a stale offset forever
    import threading
    import time as _time

    stream = tmp_path / "rotated.ndjson"
    telemetry = LiveTelemetry([NDJSONStreamSink(str(stream))])
    telemetry.begin(total_units=100, command="test")
    for _ in range(60):  # long enough that the rewrite below shrinks it
        telemetry.publish("unit.finished", _unit_event()["fields"])
    # no final snapshot yet — the follower keeps following

    def rotate():
        _time.sleep(0.3)
        _write_stream(stream)  # a fresh, shorter stream ending in FINAL

    rotator = threading.Thread(target=rotate)
    rotator.start()
    try:
        assert main(["obs", "tail", str(stream), "--follow",
                     "--poll-s", "0.01", "--idle-timeout-s", "30"]) == 0
    finally:
        rotator.join()
    captured = capsys.readouterr()
    assert "shrank" in captured.err
    assert "FINAL" in captured.out


# ---------------------------------------------------------------------------
# one event stream: the live stream carries exactly the trace's events
# ---------------------------------------------------------------------------

#: records only the pipeline's owner publishes (never tracer events)
_OWNER_KINDS = {"unit.finished", "campaign.start", "campaign.extend"}

#: 50% of compiles crash once (seed 3) under a retry budget of 2
_RETRY_PLAN = "compile=0.5,seed=3"


def _event_counts(trace_events, stream):
    from collections import Counter

    traced = Counter(e.name for e in trace_events)
    streamed = Counter(r["kind"] for r in stream.events()
                       if r["kind"] not in _OWNER_KINDS)
    return traced, streamed


@pytest.mark.parametrize("policy,workers", [
    ("serial", 1), ("thread", 2), ("process", 2),
])
def test_live_stream_events_match_trace_under_every_policy(
        tmp_path, suite10, policy, workers):
    stream = tmp_path / "run.ndjson"
    tracer = Tracer()
    config = HarnessConfig(
        iterations=1, languages=("c",), feature_prefixes=["parallel"],
        policy=policy, workers=workers, retries=2, retry_backoff_s=0.0,
        fault_plan=FaultPlan.parse(_RETRY_PLAN), live_stream=str(stream))
    ValidationRunner(_PGI, config, tracer=tracer).run_suite(suite10)
    parsed = read_live(str(stream))
    traced, streamed = _event_counts(tracer.events, parsed)
    assert traced["engine.retry"] == 11
    assert streamed["engine.retry"] == 11
    assert parsed.tally().retries == 11
    assert parsed.final_snapshot["retries"] == 11
    # every event the run reported reached the stream exactly once
    assert streamed == traced


def test_live_stream_events_match_trace_inside_titan(tmp_path, capsys):
    from repro.obs import read_trace

    stream = tmp_path / "titan.ndjson"
    trace = tmp_path / "titan.jsonl"
    assert main(["titan", "--nodes", "4", "--sample", "1", "--retries", "2",
                 "--inject-faults", _RETRY_PLAN, "--trace", str(trace),
                 "--live-stream", str(stream)]) == 0
    capsys.readouterr()
    parsed = read_live(str(stream))
    traced, streamed = _event_counts(read_trace(str(trace)).events, parsed)
    assert traced["engine.retry"] == 24
    assert streamed["engine.retry"] == 24
    assert parsed.tally().retries == 24
    assert streamed == traced
