"""Trace summarization: the analysis half of ``repro trace summarize``.

Folds a recorded trace back into the numbers an engineer asks first:
where did the time go (per-phase breakdown), which templates were slowest
(top-N by span duration), and how did the compile cache behave over the
run (hit/miss timeline).  Every count is a count of events, except the
execute memo's, which sums the ``execute`` spans' ``iterations`` and
``executed`` attributes; the per-phase totals are sums of the *same* span
durations the runner copied into ``PhaseResult.compile_s``/``run_s``, so
they reconcile with :class:`repro.harness.engine.RunMetrics` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.sink import TraceData

#: cache events recognised in the timeline
_CACHE_EVENTS = {"compile.cache_hit": "hit", "compile.cache_miss": "miss"}


@dataclass
class TraceSummary:
    """Aggregates derived from one trace file."""

    #: total duration of root (parentless) spans — the suite-run wall time
    wall_s: float = 0.0
    #: summed duration of all ``compile`` spans (matches RunMetrics.compile_s)
    compile_s: float = 0.0
    #: summed duration of all ``execute`` spans (matches RunMetrics.execute_s)
    execute_s: float = 0.0
    #: ``compile.cache_hit``/``compile.cache_miss`` event counts
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``lower.cache_hit``/``lower.cache_miss`` event counts (traces
    #: written before the lowering cache was removed; 0 in newer ones)
    lower_hits: int = 0
    lower_misses: int = 0
    #: iterations the execute memo served (sum of ``iterations`` minus
    #: ``executed``) and programs run (sum of ``executed``) over the
    #: ``execute`` spans; both 0 when no span carries ``executed``
    memo_hits: int = 0
    memo_misses: int = 0
    #: span name -> (count, summed duration)
    phase_totals: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: slowest template spans: (key, duration, passed) best-first
    slowest: List[Tuple[str, float, Optional[bool]]] = field(default_factory=list)
    #: cache timeline entries: (seq, 'hit'|'miss', template name)
    cache_timeline: List[Tuple[int, str, str]] = field(default_factory=list)
    #: event name -> count
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: failure-kind value -> count (from iteration.failed events)
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def lower_hit_rate(self) -> float:
        total = self.lower_hits + self.lower_misses
        return self.lower_hits / total if total else 0.0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


def summarize_trace(trace: TraceData, top: int = 10) -> TraceSummary:
    """Aggregate a parsed trace into a :class:`TraceSummary`."""
    summary = TraceSummary()
    for span in trace.spans:
        if span.parent_id is None:
            summary.wall_s += span.duration
        count, total = summary.phase_totals.get(span.name, (0, 0.0))
        summary.phase_totals[span.name] = (count + 1, total + span.duration)
        if span.name == "compile":
            summary.compile_s += span.duration
        elif span.name == "execute":
            summary.execute_s += span.duration
            executed = span.attrs.get("executed")
            if executed is not None:
                summary.memo_hits += span.attrs["iterations"] - executed
                summary.memo_misses += executed

    templates = sorted(
        trace.spans_named("template"),
        key=lambda s: (-s.duration, s.span_id),
    )
    summary.slowest = [
        (s.key or s.span_id, s.duration, s.attrs.get("passed"))
        for s in templates[:top]
    ]

    for event in trace.events:
        summary.event_counts[event.name] = \
            summary.event_counts.get(event.name, 0) + 1
        verdict = _CACHE_EVENTS.get(event.name)
        if verdict is not None:
            summary.cache_timeline.append(
                (event.seq, verdict, str(event.fields.get("template", "?")))
            )
        elif event.name == "iteration.failed":
            kind = str(event.fields.get("kind", "?"))
            summary.failure_kinds[kind] = summary.failure_kinds.get(kind, 0) + 1
    counts = summary.event_counts
    summary.cache_hits = counts.get("compile.cache_hit", 0)
    summary.cache_misses = counts.get("compile.cache_miss", 0)
    summary.lower_hits = counts.get("lower.cache_hit", 0)
    summary.lower_misses = counts.get("lower.cache_miss", 0)
    return summary


def render_summary_text(summary: TraceSummary,
                        timeline_limit: int = 20) -> str:
    """Plain-text rendering for the CLI."""
    lines: List[str] = []
    lines.append("trace summary")
    lines.append(f"  wall time (roots)  : {summary.wall_s:.3f} s")
    lines.append(f"  compile time (sum) : {summary.compile_s:.3f} s")
    lines.append(f"  execute time (sum) : {summary.execute_s:.3f} s")
    lines.append(
        f"  compile cache      : {summary.cache_hits} hits / "
        f"{summary.cache_misses} misses ({summary.cache_hit_rate:.1%} hit rate)"
    )
    if summary.lower_hits or summary.lower_misses:
        lines.append(
            f"  lowering cache     : {summary.lower_hits} hits / "
            f"{summary.lower_misses} misses "
            f"({summary.lower_hit_rate:.1%} hit rate)"
        )
    if summary.memo_hits or summary.memo_misses:
        lines.append(
            f"  execute memo       : {summary.memo_hits} hits / "
            f"{summary.memo_misses} misses "
            f"({summary.memo_hit_rate:.1%} hit rate)"
        )
    if summary.failure_kinds:
        lines.append("  failed iterations  : " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.failure_kinds.items())
        ))

    lines.append("")
    lines.append("per-phase time breakdown")
    header = f"  {'span':12s} {'count':>6s} {'total':>10s} {'mean':>10s}"
    lines.append(header)
    for name, (count, total) in sorted(
        summary.phase_totals.items(), key=lambda kv: -kv[1][1]
    ):
        mean = total / count if count else 0.0
        lines.append(f"  {name:12s} {count:6d} {total:9.3f}s {mean:9.4f}s")

    if summary.slowest:
        lines.append("")
        lines.append(f"top {len(summary.slowest)} slowest templates")
        for key, duration, passed in summary.slowest:
            verdict = ("pass" if passed else "FAIL") if passed is not None else "?"
            lines.append(f"  {key:44s} {duration:9.4f}s  {verdict}")

    if summary.cache_timeline:
        lines.append("")
        shown = summary.cache_timeline[:timeline_limit]
        lines.append(
            f"compile-cache timeline (first {len(shown)} of "
            f"{len(summary.cache_timeline)})"
        )
        for seq, verdict, template in shown:
            lines.append(f"  #{seq:<5d} {verdict:4s} {template}")

    if summary.event_counts:
        lines.append("")
        lines.append("events: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary.event_counts.items())
        ))
    return "\n".join(lines) + "\n"
