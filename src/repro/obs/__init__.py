"""Observability: structured tracing and one event stream (``repro.obs``).

The harness is as much bookkeeping as testing — per-run reports, bug
analyses and Titan's longitudinal tracking all depend on knowing what
happened *inside* a run.  This package supplies that layer:

* :mod:`~repro.obs.trace` — span-based tracer with deterministic IDs,
  the one event call (:meth:`~repro.obs.trace.Tracer.event`) and its
  subscribers, worker marshalling (process pools) and a zero-overhead
  null mode.  Every count the harness reports is a count of events or an
  aggregate of span attributes;
* :mod:`~repro.obs.sink` — JSONL serialization and the trace reader;
* :mod:`~repro.obs.summary` — ``repro trace summarize`` aggregation;
* :mod:`~repro.obs.dashboard` — standalone HTML trace and
  perf-trajectory dashboards;
* :mod:`~repro.obs.live` — live campaign telemetry: a pipeline that
  subscribes to the run's tracer, progress snapshots, NDJSON stream / TTY
  status / Prometheus textfile sinks, and the ``repro obs tail`` reader.

Tracing is opt-in: everything runs against :data:`NULL_TRACER` unless a
real :class:`Tracer` is injected (CLI ``--trace``).  Live
telemetry is likewise opt-in (CLI ``--live-stream``/``--status``/``--prom``);
without a tracer it runs on a span-free :class:`EventTracer`.  Both are
observational only: reports are byte-identical with them on or off.
"""

from repro.obs.trace import (
    Event,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_FORMAT,
    Tracer,
)
from repro.obs.sink import (
    TraceData,
    parse_trace,
    read_trace,
    trace_to_jsonl,
    write_trace,
)
from repro.obs.summary import TraceSummary, render_summary_text, summarize_trace
from repro.obs.dashboard import render_perf_html, render_trace_html
from repro.obs.live import (
    LIVE_FORMAT,
    LiveStream,
    LiveTelemetry,
    NDJSONStreamSink,
    PrometheusSink,
    ProgressTally,
    SnapshotReporter,
    StatusLineSink,
    lint_prometheus,
    parse_live,
    read_live,
    render_prometheus,
    render_status_line,
    render_tally_text,
)

__all__ = [
    "Event", "EventTracer", "NULL_TRACER", "NullTracer", "Span",
    "TRACE_FORMAT", "Tracer",
    "TraceData", "parse_trace", "read_trace", "trace_to_jsonl", "write_trace",
    "TraceSummary", "render_summary_text", "summarize_trace",
    "render_trace_html", "render_perf_html",
    "LIVE_FORMAT", "LiveStream", "LiveTelemetry", "NDJSONStreamSink",
    "PrometheusSink", "ProgressTally", "SnapshotReporter", "StatusLineSink",
    "lint_prometheus", "parse_live", "read_live",
    "render_prometheus", "render_status_line", "render_tally_text",
]
