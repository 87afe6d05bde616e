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

Importing the package loads only the tracer; the other modules' names
resolve on first use.
"""

import importlib

from repro.obs.trace import (
    Event,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_FORMAT,
    Tracer,
)

#: name -> submodule for the names loaded on first use: the trace sink
#: (``json``), the summary, the dashboards (``html``) and live telemetry
#: are imported only by the runs and commands that use them (``--trace``,
#: ``--live-stream``, ``repro trace``, ...)
_LAZY = {
    **dict.fromkeys(("TraceData", "parse_trace", "read_trace",
                     "trace_to_jsonl", "write_trace"), "sink"),
    **dict.fromkeys(("TraceSummary", "render_summary_text",
                     "summarize_trace"), "summary"),
    **dict.fromkeys(("render_perf_html", "render_trace_html"), "dashboard"),
    **dict.fromkeys((
        "LIVE_FORMAT", "LiveStream", "LiveTelemetry", "NDJSONStreamSink",
        "PrometheusSink", "ProgressTally", "SnapshotReporter",
        "StatusLineSink", "lint_prometheus", "parse_live", "read_live",
        "render_prometheus", "render_status_line", "render_tally_text",
    ), "live"),
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{submodule}"), name)
    return value


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
