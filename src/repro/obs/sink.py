"""JSONL trace sink and reader.

One line per record, ``type`` first: a ``meta`` header, then spans (sorted
by ID) and events (by sequence number).  Sorting makes
the stream layout deterministic for a given set of records, so two runs of
the same configuration differ only in measured values — IDs, names, parents
and counts line up row for row (the deterministic-ID property of
:class:`repro.obs.trace.Tracer`).

The reader is the other half: ``read_trace``/``parse_trace`` reconstruct a
:class:`TraceData` that :mod:`repro.obs.summary` and
:mod:`repro.obs.dashboard` consume.  Floats survive the round-trip exactly
(``json`` emits ``repr``-style shortest-form floats), which is what lets
``repro trace summarize`` reconcile with ``RunMetrics`` without slack.
Traces written before counts became event counts also carry ``counter``,
``gauge`` and ``histogram`` records; the reader accepts and skips them
(every one restated an event or a span attribute the file also holds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ioutil import atomic_write_text
from repro.obs.trace import Event, Span, TRACE_FORMAT, Tracer

#: record types of older traces that restated events and span attributes
_LEGACY_RECORDS = frozenset({"counter", "gauge", "histogram"})


def trace_to_jsonl(tracer: Tracer, meta: Optional[dict] = None) -> str:
    """Serialize a tracer's records to JSONL text."""
    header = {"type": "meta", "format": TRACE_FORMAT}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    for span in sorted(tracer.spans, key=lambda s: s.span_id):
        record = span.to_dict()
        record["type"] = "span"
        lines.append(json.dumps(record, sort_keys=True))
    for event in sorted(tracer.events, key=lambda e: e.seq):
        record = event.to_dict()
        record["type"] = "event"
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_trace(path: str, tracer: Tracer, meta: Optional[dict] = None) -> None:
    """Write the tracer's records to ``path`` as JSONL (atomically: a
    crash mid-write never leaves a half-trace under the target name)."""
    atomic_write_text(path, trace_to_jsonl(tracer, meta))


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


@dataclass
class TraceData:
    """A parsed trace file."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    #: lines skipped in tolerant mode (torn tail, truncated records)
    malformed: int = 0

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def parse_trace(text: str, strict: bool = True) -> TraceData:
    """Parse JSONL trace text into a :class:`TraceData`.

    In strict mode (the default, for library callers that want loud
    failures) any bad line raises :class:`ValueError`.  With
    ``strict=False`` — what ``repro trace`` uses — malformed lines are
    *counted* in :attr:`TraceData.malformed` and skipped, so a trace with
    a torn tail (the process was SIGKILLed mid-write) still summarizes.
    A wrong ``format`` tag in the meta header raises either way: that is
    a different file format, not damage.
    """
    trace = TraceData()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            if strict:
                raise ValueError(
                    f"trace line {lineno}: invalid JSON ({err})") from err
            trace.malformed += 1
            continue
        kind = record.get("type") if isinstance(record, dict) else None
        try:
            if kind == "meta":
                fmt = record.get("format")
                if fmt != TRACE_FORMAT:
                    raise ValueError(
                        f"trace line {lineno}: unsupported format {fmt!r} "
                        f"(expected {TRACE_FORMAT})"
                    )
                trace.meta = {k: v for k, v in record.items() if k != "type"}
            elif kind == "span":
                trace.spans.append(Span.from_dict(record))
            elif kind == "event":
                trace.events.append(Event.from_dict(record))
            elif kind in _LEGACY_RECORDS:
                pass
            else:
                raise ValueError(
                    f"trace line {lineno}: unknown record type {kind!r}")
        except ValueError as err:
            # a wrong format tag is a hard error even in tolerant mode
            if strict or "unsupported format" in str(err):
                raise
            trace.malformed += 1
        except (KeyError, TypeError) as err:
            # valid JSON missing required fields: a truncated record
            if strict:
                raise ValueError(
                    f"trace line {lineno}: truncated record ({err})") from err
            trace.malformed += 1
    trace.events.sort(key=lambda e: e.seq)
    return trace


def read_trace(path: str, strict: bool = True) -> TraceData:
    """Read and parse a JSONL trace file (see :func:`parse_trace`)."""
    with open(path) as handle:
        return parse_trace(handle.read(), strict=strict)
