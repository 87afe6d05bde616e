"""Tests for the observability subsystem (repro.obs).

Covers the PR's acceptance criteria:

* tracer unit behaviour: nesting, deterministic IDs, drain/adopt, null path;
* with tracing enabled, serial and process-pool runs still render
  byte-identical reports, and the process trace contains spans from every
  worker re-parented under the suite-run root;
* ``repro trace summarize`` totals reconcile with ``RunMetrics``;
* HTML-escaping regressions for ``render_html`` and the trace dashboard;
* the CLI surface: ``--trace``, the metrics sidecar, the
  ``trace`` subcommand and argparse-level validation.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.cli import main
from repro.compiler import CompilerBehavior
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_html,
    render_text,
)
from repro.harness.runner import (
    FailureKind,
    IterationOutcome,
    PhaseResult,
    SuiteRunReport,
)
# aliased so pytest does not try to collect the Test* dataclasses
from repro.harness.runner import TestResult as _TestResult
from repro.templates import TestTemplate as _TestTemplate
from repro.obs import (
    EventTracer,
    NULL_TRACER,
    Tracer,
    parse_trace,
    read_trace,
    render_summary_text,
    render_trace_html,
    summarize_trace,
    trace_to_jsonl,
    write_trace,
)

_BUGGY = CompilerBehavior(
    name="buggy", version="x",
    broken_reductions=frozenset({"+"}),
    unsupported_directives=frozenset({"declare"}),
)


# ---------------------------------------------------------------------------
# tracer unit behaviour
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer", key="a") as outer:
            with tracer.span("inner", key="b") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration >= inner.duration >= 0.0

    def test_ids_are_deterministic_and_collision_suffixed(self):
        tracer = Tracer()
        with tracer.span("template", key="loop:c"):
            pass
        with tracer.span("template", key="loop:c"):
            pass
        with tracer.span("template", key="loop:c"):
            pass
        ids = [s.span_id for s in tracer.spans]
        assert ids == ["template[loop:c]", "template[loop:c]~2",
                       "template[loop:c]~3"]

    def test_events_are_sequenced_and_span_attributed(self):
        tracer = Tracer()
        with tracer.span("run", key="r") as root:
            tracer.event("first", value=1)
            tracer.event("second", value=2)
        tracer.event("outside")
        seqs = [e.seq for e in tracer.events]
        assert seqs == [0, 1, 2]
        assert tracer.events[0].span_id == root.span_id
        assert tracer.events[2].span_id is None

    def test_drain_and_adopt_round_trip(self):
        worker = Tracer()
        with worker.span("template", key="t:c") as span:
            worker.event("iteration.failed", kind="wrong_value")
            span.set(passed=False)
        payload = worker.drain()
        # drain resets the worker completely
        assert worker.spans == [] and worker.events == []

        parent = Tracer()
        parent.event("already.here")
        parent.adopt(payload, worker="pid-42")
        assert [s.worker for s in parent.spans] == ["pid-42"]
        assert [s.span_id for s in parent.spans] == ["template[t:c]"]
        assert parent.spans[0].attrs["passed"] is False
        # adopted event renumbered after the parent's own
        assert [(e.seq, e.name) for e in parent.events] == [
            (0, "already.here"), (1, "iteration.failed")]
        # the adopted event keeps its link to the adopted span
        assert parent.events[1].span_id == "template[t:c]"

    def test_adopt_rederives_colliding_span_ids(self):
        # workers reset their ID set after every unit: a second unit with
        # the same keys must not duplicate IDs already in the parent
        parent = Tracer()
        with parent.span("template", key="t:c"):
            pass
        worker = Tracer()
        with worker.span("template", key="t:c") as outer:
            with worker.span("phase", key="t:c:functional"):
                worker.event("iteration.failed", kind="timeout")
        assert outer.span_id == "template[t:c]"
        parent.adopt(worker.drain(), worker="pid-1")
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        adopted = {s.name: s for s in parent.spans[1:]}
        assert adopted["template"].span_id == "template[t:c]~2"
        assert adopted["phase"].parent_id == "template[t:c]~2"
        assert parent.events[0].span_id == adopted["phase"].span_id

    def test_subscribers_see_events_and_relayed_payloads(self):
        seen = []
        tracer = Tracer()
        tracer.subscribe(lambda name, fields: seen.append((name, fields)))
        tracer.event("compile.cache_miss", template="a.c")
        worker = Tracer()
        worker.event("engine.retry", attempt=0)
        payload = worker.drain()
        tracer.relay(payload)
        # relay notifies without recording; adopt records without notifying
        assert [e.name for e in tracer.events] == ["compile.cache_miss"]
        tracer.adopt(payload)
        assert [e.name for e in tracer.events] == \
            ["compile.cache_miss", "engine.retry"]
        assert seen == [("compile.cache_miss", {"template": "a.c"}),
                        ("engine.retry", {"attempt": 0})]

    def test_event_tracer_forwards_events_and_records_no_spans(self):
        tracer = EventTracer()
        with tracer.span("template", key="t:c") as span:
            span.set(passed=True)
            # no subscriber yet (a pool worker): kept for drain()
            tracer.event("iteration.failed", kind="timeout")
        assert tracer.enabled and tracer.spans == []
        payload = tracer.drain()
        assert payload["spans"] == []
        assert [(e["name"], e["span"]) for e in payload["events"]] == \
            [("iteration.failed", None)]
        # with a subscriber (the coordinating process) nothing is kept
        seen = []
        tracer.subscribe(lambda name, fields: seen.append(name))
        tracer.event("compile.cache_miss", template="a.c")
        tracer.adopt(payload)
        assert seen == ["compile.cache_miss"]
        assert tracer.events == []

    def test_reparent_orphans(self):
        tracer = Tracer()
        with tracer.span("run", key="r") as root:
            pass
        orphan = {"spans": [{"id": "template[x:c]", "name": "template",
                             "key": "x:c", "parent": None, "worker": "w",
                             "t0": 0.0, "dur_s": 0.5, "attrs": {}}],
                  "events": []}
        tracer.adopt(orphan, worker="pid-7")
        tracer.reparent_orphans(root)
        adopted = [s for s in tracer.spans if s.name == "template"][0]
        assert adopted.parent_id == root.span_id
        assert root.parent_id is None  # the root itself is left alone

    def test_null_tracer_records_nothing_but_still_times(self):
        import time

        with NULL_TRACER.span("anything", key="k") as span:
            span.set(ignored=True)
            NULL_TRACER.event("ignored")
            NULL_TRACER.subscribe(lambda name, fields: None)
            time.sleep(0.001)
        assert span.duration > 0.0  # the runner's timers still work
        assert NULL_TRACER.spans == [] and NULL_TRACER.events == []
        assert NULL_TRACER.subscribers == ()  # the shared instance stays bare
        assert not NULL_TRACER.enabled


class TestSink:
    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("run", key="r", policy="serial") as root:
            with tracer.span("template", key="t:c"):
                tracer.event("iteration.failed", kind="timeout", seed=3)
        text = trace_to_jsonl(tracer, meta={"command": "test"})
        trace = parse_trace(text)
        assert trace.meta["command"] == "test"
        assert {s.span_id for s in trace.spans} == \
            {root.span_id, "template[t:c]"}
        [restored] = [s for s in trace.spans if s.span_id == "template[t:c]"]
        assert restored.parent_id == root.span_id
        original = [s for s in tracer.spans if s.name == "template"][0]
        assert restored.duration == original.duration  # floats exact via json
        assert [(e.name, e.fields) for e in trace.events] == \
            [("iteration.failed", {"kind": "timeout", "seed": 3})]
        # spans and events are the only records a trace carries
        assert {json.loads(line)["type"] for line in text.splitlines()} == \
            {"meta", "span", "event"}

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unsupported format"):
            parse_trace('{"type": "meta", "format": "other/v9"}\n')
        with pytest.raises(ValueError, match="line 1"):
            parse_trace("not json\n")
        with pytest.raises(ValueError, match="unknown record type"):
            parse_trace('{"type": "mystery"}\n')


class TestTornTraces:
    """A SIGKILLed run leaves a trace with a truncated last line; the
    tolerant reader must count and skip the damage, not crash."""

    def _trace_text(self) -> str:
        tracer = Tracer()
        with tracer.span("run", key="r"):
            with tracer.span("template", key="t:c"):
                pass
        tracer.event("done", ok=True)
        return trace_to_jsonl(tracer, meta={"command": "validate"})

    def test_tolerant_parse_counts_torn_tail(self):
        text = self._trace_text()
        torn = text[:-25]  # cut mid-way through the last record
        trace = parse_trace(torn, strict=False)
        assert trace.malformed == 1
        assert len(trace.spans) == 2  # intact records all survive
        with pytest.raises(ValueError):
            parse_trace(torn)  # strict mode still refuses

    def test_tolerant_parse_skips_mid_file_garbage(self):
        lines = self._trace_text().splitlines()
        lines.insert(2, "garbage not json")
        lines.insert(3, '{"type": "mystery"}')
        trace = parse_trace("\n".join(lines) + "\n", strict=False)
        assert trace.malformed == 2
        assert len(trace.spans) == 2

    def test_tolerant_parse_still_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="unsupported format"):
            parse_trace('{"type": "meta", "format": "other/v9"}\n',
                        strict=False)

    def test_cli_summarize_warns_on_torn_trace(self, tmp_path, capsys):
        torn = self._trace_text()[:-25]
        path = tmp_path / "torn.jsonl"
        path.write_text(torn)
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed trace line" in captured.err
        assert "trace summary" in captured.out

    def test_cli_html_renders_torn_trace(self, tmp_path, capsys):
        torn = self._trace_text()[:-25]
        path = tmp_path / "torn.jsonl"
        path.write_text(torn)
        out = tmp_path / "torn.html"
        assert main(["trace", "html", str(path),
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert "skipped 1 malformed trace line" in capsys.readouterr().err


class TestOlderTraces:
    """A trace written before counts became event counts carries
    counter/gauge/histogram records; it must still read and summarize
    exactly as it did when it was written."""

    _DATA = os.path.join(os.path.dirname(__file__), "data")
    _TRACE = os.path.join(_DATA, "trace_v1_metric_records.jsonl")

    def test_strict_parse_accepts_metric_records(self):
        with open(self._TRACE) as handle:
            text = handle.read()
        assert '"type": "counter"' in text and '"type": "histogram"' in text
        trace = parse_trace(text, strict=True)
        assert trace.malformed == 0
        assert trace.spans_named("run") and trace.events

    def test_summarize_is_byte_identical_to_its_writer(self, capsys):
        assert main(["trace", "summarize", self._TRACE]) == 0
        captured = capsys.readouterr()
        with open(os.path.join(
                self._DATA, "trace_v1_metric_records.summary.txt")) as handle:
            assert captured.out == handle.read()
        assert "malformed" not in captured.err


# ---------------------------------------------------------------------------
# traced suite runs: determinism, worker marshalling, reconciliation
# ---------------------------------------------------------------------------


def _traced_run(suite, policy: str, workers: int):
    config = HarnessConfig(
        iterations=2, languages=("c",), policy=policy, workers=workers,
        feature_prefixes=["loop", "declare", "parallel"],
    )
    tracer = Tracer()
    runner = ValidationRunner(_BUGGY, config, tracer=tracer)
    report = runner.run_suite(suite)
    return report, tracer


@pytest.fixture(scope="module")
def traced_runs(suite10):
    serial = _traced_run(suite10, "serial", 1)
    process = _traced_run(suite10, "process", 4)
    return {"serial": serial, "process": process}


class TestTracedSuiteRun:
    def test_reports_stay_byte_identical_with_tracing(self, traced_runs):
        serial_report, _ = traced_runs["serial"]
        process_report, _ = traced_runs["process"]
        assert render_text(process_report) == render_text(serial_report)
        assert render_csv(process_report) == render_csv(serial_report)
        assert render_html(process_report) == render_html(serial_report)

    def test_span_ids_identical_across_policies(self, traced_runs, suite10):
        _, serial_tracer = traced_runs["serial"]
        _, process_tracer = traced_runs["process"]
        serial_ids = sorted(s.span_id for s in serial_tracer.spans)
        process_ids = sorted(s.span_id for s in process_tracer.spans)
        assert serial_ids == process_ids

        # one tracer shared by two runs (a vendor sweep, a Titan harness):
        # adopted worker spans must not collide with the first run's IDs
        def twice(policy, workers):
            tracer = Tracer()
            config = HarnessConfig(
                iterations=1, languages=("c",), policy=policy,
                workers=workers, feature_prefixes=["loop"])
            for _ in range(2):
                ValidationRunner(_BUGGY, config,
                                 tracer=tracer).run_suite(suite10)
            return [s.span_id for s in tracer.spans]

        serial_ids = twice("serial", 1)
        process_ids = twice("process", 2)
        assert len(set(serial_ids)) == len(serial_ids)
        assert len(set(process_ids)) == len(process_ids)
        assert sorted(serial_ids) == sorted(process_ids)

    def test_worker_spans_reparented_under_suite_root(self, traced_runs):
        process_report, tracer = traced_runs["process"]
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "run"
        templates = [s for s in tracer.spans if s.name == "template"]
        assert templates
        assert all(s.parent_id == roots[0].span_id for s in templates)
        # spans from *every* worker of the pool made it back
        span_workers = {s.worker for s in templates}
        assert span_workers == set(process_report.metrics.worker_busy_s)
        assert all(w.startswith("pid-") for w in span_workers)

    def test_template_span_count_matches_report(self, traced_runs):
        report, tracer = traced_runs["process"]
        templates = [s for s in tracer.spans if s.name == "template"]
        assert len(templates) == len(report.results)

    def test_summarize_reconciles_with_run_metrics(self, traced_runs, tmp_path):
        report, tracer = traced_runs["serial"]
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer, meta={"command": "test"})
        summary = summarize_trace(read_trace(path))
        metrics = report.metrics
        assert summary.compile_s == pytest.approx(metrics.compile_s)
        assert summary.execute_s == pytest.approx(metrics.execute_s)
        assert summary.cache_hits == metrics.cache_hits
        assert summary.cache_misses == metrics.cache_misses
        assert summary.wall_s == pytest.approx(
            metrics.wall_s, rel=0.2, abs=0.2)
        text = render_summary_text(summary)
        assert "trace summary" in text and "slowest templates" in text

    def test_failure_events_and_counters(self, traced_runs):
        report, tracer = traced_runs["serial"]
        # counts are counts of spans and events
        templates = [s for s in tracer.spans if s.name == "template"]
        assert len(templates) == len(report.results)
        failed_kinds = Counter(s.attrs["failure_kind"] for s in templates
                               if s.attrs["failure_kind"] is not None)
        assert dict(failed_kinds) == report.metrics.failure_kinds
        executes = [s for s in tracer.spans if s.name == "execute"]
        assert sum(s.attrs["iterations"] for s in executes) == \
            report.metrics.iterations_run
        failed = [e for e in tracer.events if e.name == "iteration.failed"]
        assert failed, "buggy behaviour must produce failure events"
        kinds = {e.fields["kind"] for e in failed}
        assert "wrong_value" in kinds
        assert len(failed) == sum(s.attrs["incorrect"] for s in executes)
        # compile errors surface as errored compile spans, not iterations
        errors = [s for s in tracer.spans if s.name == "compile"
                  and s.attrs["error"] is not None
                  and not s.attrs["cache_hit"]]
        assert len(errors) >= 1
        # the run-level figures are attributes of the run root span
        root = [s for s in tracer.spans if s.name == "run"][0]
        assert root.attrs["wall_s"] == report.metrics.wall_s
        assert root.attrs["cache_hit_rate"] == report.metrics.cache_hit_rate
        assert root.attrs["worker_utilization"] == \
            report.metrics.worker_utilization

    def test_profile_histograms_present(self, traced_runs):
        # the per-phase execution profile: sum and max on execute spans
        _, tracer = traced_runs["serial"]
        executes = [s for s in tracer.spans if s.name == "execute"]
        assert sum(s.attrs["bytes_to_device"] for s in executes) > 0
        assert sum(s.attrs["steps"] for s in executes) > 0
        for span in executes:
            attrs = span.attrs
            assert attrs["steps_max"] <= attrs["steps"]
            assert attrs["bytes_to_device_max"] <= attrs["bytes_to_device"]
            assert attrs["bytes_to_host_max"] <= attrs["bytes_to_host"]
            assert attrs["queue_waits_max"] <= attrs["queue_waits"]
            assert attrs["queue_max_pending"] >= 0


class TestTitanTracing:
    def test_sweep_produces_spans_and_flag_events(self):
        from repro.harness.titan import TitanCluster, TitanHarness
        from repro.suite import openacc10_suite

        tracer = Tracer()
        cluster = TitanCluster(num_nodes=4, degraded_fraction=0.5, seed=1)
        harness = TitanHarness(
            cluster, openacc10_suite(),
            config=HarnessConfig(iterations=1, run_cross=False,
                                 languages=("c",),
                                 feature_prefixes=["update"]),
            tracer=tracer,
        )
        checks = harness.sweep(sample_size=2, seed=0)
        sweeps = [s for s in tracer.spans if s.name == "titan.sweep"]
        assert len(sweeps) == 1
        node_checks = [s for s in tracer.spans if s.name == "titan.check"]
        assert len(node_checks) == len(checks)
        assert all(s.parent_id == sweeps[0].span_id for s in node_checks)
        # each check's suite-run root hangs under its titan.check span
        run_roots = [s for s in tracer.spans if s.name == "run"]
        assert {s.parent_id for s in run_roots} == \
            {s.span_id for s in node_checks}
        counts = Counter(e.name for e in tracer.events)
        assert counts["titan.checked"] == len(checks)
        flagged = [c for c in checks if c.flagged]
        events = [e for e in tracer.events if e.name == "titan.node_flagged"]
        assert len(events) == len(flagged)
        if flagged:
            assert {e.fields["node"] for e in events} == \
                {c.node_id for c in flagged}


# ---------------------------------------------------------------------------
# HTML escaping regressions
# ---------------------------------------------------------------------------


_POISON_FEATURE = "<script>alert('f')</script>&feature"
_POISON_DETAIL = "<script>alert('d')</script> & <b>detail</b>"


def _poisoned_report() -> SuiteRunReport:
    template = _TestTemplate(name="evil", feature=_POISON_FEATURE,
                             language="c", code="")
    functional = PhaseResult(
        mode="functional", source="int main(){}",
        iterations=[IterationOutcome(ok=False, error=_POISON_DETAIL,
                                     kind=FailureKind.WRONG_VALUE)],
    )
    return SuiteRunReport(
        compiler_label="evil <vendor> & co",
        config=HarnessConfig(iterations=1),
        results=[_TestResult(template=template, functional=functional)],
    )


class TestHtmlEscaping:
    def test_render_html_escapes_feature_and_detail(self):
        page = render_html(_poisoned_report())
        assert "<script" not in page
        assert "&lt;script&gt;alert(&#x27;f&#x27;)&lt;/script&gt;" in page
        assert "&amp;feature" in page
        assert "&lt;b&gt;detail&lt;/b&gt;" in page
        assert "evil &lt;vendor&gt; &amp; co" in page

    def test_render_html_escapes_language_field(self):
        """Regression: ``r.language`` was interpolated raw — a template
        with a poisoned language broke out of its table cell."""
        template = _TestTemplate(name="evil", feature="parallel.if",
                                 language="<script>alert('l')</script>",
                                 code="")
        functional = PhaseResult(
            mode="functional", source="int main(){}",
            iterations=[IterationOutcome(ok=True)],
        )
        report = SuiteRunReport(
            compiler_label="demo", config=HarnessConfig(iterations=1),
            results=[_TestResult(template=template, functional=functional)],
        )
        page = render_html(report)
        assert "<script" not in page
        assert "&lt;script&gt;alert(&#x27;l&#x27;)&lt;/script&gt;" in page

    def test_dashboard_escapes_keys_events_metrics_and_meta(self):
        tracer = Tracer()
        with tracer.span("run", key="<vendor>&run") as root:
            with tracer.span("template",
                             key=f"{_POISON_FEATURE}:c") as span:
                span.set(passed=False)
                tracer.event("iteration.failed",
                             template=_POISON_FEATURE, kind="<&>")
        tracer.reparent_orphans(root)
        tracer.event("evil<metric>&count")
        trace = parse_trace(trace_to_jsonl(
            tracer, meta={"command": "<script>cmd</script>"}))
        page = render_trace_html(trace)
        assert "<script" not in page
        assert "&lt;script&gt;" in page
        assert "evil&lt;metric&gt;&amp;count" in page
        assert "&lt;script&gt;cmd&lt;/script&gt;" in page


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


_QUICK = ["--language", "c", "--features", "wait", "--iterations", "1",
          "--no-cross"]


class TestCliTrace:
    def test_validate_writes_trace_and_summarize_reads_it(
            self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(["validate", *_QUICK,
                     "--trace", trace_path]) == 0
        assert f"wrote {trace_path}" in capsys.readouterr().out
        trace = read_trace(trace_path)
        assert trace.meta["command"] == "validate"
        assert trace.spans_named("run")

        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out and "per-phase time breakdown" in out

    def test_trace_html_writes_dashboard(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        main(["validate", *_QUICK, "--trace", trace_path])
        capsys.readouterr()
        out_path = str(tmp_path / "dash.html")
        assert main(["trace", "html", trace_path,
                     "--output", out_path]) == 0
        capsys.readouterr()
        with open(out_path) as handle:
            page = handle.read()
        assert page.startswith("<!DOCTYPE html>")
        assert "repro trace dashboard" in page

    def test_trace_summarize_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "summarize", "/nonexistent/trace.jsonl"]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_titan_trace_records_sweep(self, tmp_path, capsys):
        trace_path = str(tmp_path / "titan.jsonl")
        assert main(["titan", "--nodes", "4", "--sample", "1",
                     "--degraded", "0.5", "--trace", trace_path]) == 0
        capsys.readouterr()
        trace = read_trace(trace_path)
        assert trace.meta["command"] == "titan"
        assert trace.spans_named("titan.sweep")
        assert trace.spans_named("titan.check")


class TestCliMetricsSidecar:
    def test_metrics_written_next_to_output(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.txt")
        main(["validate", *_QUICK, "--metrics", "--output", report_path])
        out = capsys.readouterr().out
        sidecar = report_path + ".metrics.txt"
        assert f"wrote {sidecar}" in out
        assert "run metrics" not in out  # no timing noise on stdout
        with open(sidecar) as handle:
            assert "run metrics" in handle.read()

    def test_metrics_sidecar_matches_csv_format(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.csv")
        main(["validate", *_QUICK, "--format", "csv",
              "--metrics", "--output", report_path])
        capsys.readouterr()
        with open(report_path + ".metrics.csv") as handle:
            assert handle.read().startswith("metric,value")

    def test_metrics_still_print_without_output(self, capsys):
        main(["validate", *_QUICK, "--metrics"])
        assert "run metrics" in capsys.readouterr().out


class TestCliValidation:
    @pytest.mark.parametrize("argv,message", [
        (["titan", "--degraded", "1.5"], "must be in [0, 1]"),
        (["titan", "--degraded", "-0.1"], "must be in [0, 1]"),
        (["titan", "--nodes", "0"], "must be >= 1"),
        (["titan", "--sample", "-3"], "must be >= 1"),
        (["validate", "--iterations", "0"], "must be >= 1"),
        (["validate", "--workers", "nope"], "not an integer"),
    ])
    def test_argparse_rejects_out_of_range(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
