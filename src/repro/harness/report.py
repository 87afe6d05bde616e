"""Report generation (Section III "Results").

"We can generate the validation results in any of the formats such as plain
text, HTML and CSV" — and "we append the bug reports with code snippets for
vendors' convenience".
"""

from __future__ import annotations

import io
from typing import List

from repro.harness.runner import SuiteRunReport


def render_text(report: SuiteRunReport) -> str:
    """Plain-text summary table plus failure details."""
    lines: List[str] = []
    lines.append(f"OpenACC validation report — {report.compiler_label}")
    lines.append(
        f"iterations per test: {report.config.iterations}; "
        f"tests run: {len(report.results)}"
    )
    lines.append("")
    header = f"{'feature':40s} {'lang':8s} {'result':8s} {'certainty':9s} detail"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        detail = ""
        if not r.passed:
            detail = f"[{r.failure_kind.value}] {r.functional.failure_detail()[:60]}"
        elif r.cross_inconclusive_unexpectedly:
            detail = "(cross inconclusive: directive may have no effect)"
        lines.append(
            f"{r.feature:40s} {r.language:8s} {status:8s} "
            f"{r.certainty:8.2%} {detail}"
        )
    lines.append("")
    for lang in ("c", "fortran"):
        pool = report.for_language(lang)
        if pool:
            lines.append(
                f"{lang:8s}: {report.pass_rate(lang):6.2f}% pass "
                f"({len(report.failures(lang))} failures / {len(pool)} tests)"
            )
    lines.append(f"overall : {report.pass_rate():6.2f}% pass")
    kinds = report.by_failure_kind()
    if kinds:
        lines.append("failure kinds: " + ", ".join(
            f"{k.value}={v}" for k, v in sorted(kinds.items(), key=lambda kv: kv[0].value)
        ))
    return "\n".join(lines) + "\n"


def render_csv(report: SuiteRunReport) -> str:
    """Machine-readable CSV (one row per test).

    Built with the stdlib ``csv`` writer, not string interpolation: a
    feature name or failure detail containing a comma, quote or newline is
    quoted per RFC 4180 instead of silently corrupting the table.
    ``lineterminator`` is pinned to ``\\n`` to keep reports byte-stable
    across platforms (the module defaults to ``\\r\\n``).
    """
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["feature", "language", "result", "failure_kind",
                     "certainty", "cross_conclusive", "detail"])
    for r in report.results:
        kind = r.failure_kind.value if r.failure_kind else ""
        conclusive = "" if r.cross_conclusive is None else str(r.cross_conclusive).lower()
        detail = "" if r.passed else r.functional.failure_detail()
        writer.writerow([r.feature, r.language,
                         "pass" if r.passed else "fail",
                         kind, f"{r.certainty:.4f}", conclusive, detail])
    return buffer.getvalue()


def render_html(report: SuiteRunReport) -> str:
    """Self-contained HTML report.

    Every interpolated field goes through ``html.escape`` — including
    ``r.language`` and the *formatted* numeric strings.  Numbers are
    formatted first and the resulting text escaped, so even a value whose
    ``__format__`` emits markup cannot break out of its table cell.
    """
    import html as _html

    rows = []
    for r in report.results:
        status = "pass" if r.passed else "fail"
        detail = r.functional.failure_detail() if not r.passed else ""
        cells = [
            _html.escape(str(r.feature)),
            _html.escape(str(r.language)),
            _html.escape(status.upper()),
            _html.escape(f"{r.certainty:.2%}"),
            _html.escape(detail[:120]),
        ]
        rows.append(
            f"<tr class='{status}'>"
            + "".join(f"<td>{cell}</td>" for cell in cells)
            + "</tr>"
        )
    summary = _html.escape(" | ".join(
        f"{lang}: {report.pass_rate(lang):.1f}%"
        for lang in ("c", "fortran")
        if report.for_language(lang)
    ))
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>OpenACC validation — {_html.escape(report.compiler_label)}</title>
<style>
 body {{ font-family: sans-serif; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #999; padding: 2px 8px; }}
 tr.pass td {{ background: #e7f7e7; }}
 tr.fail td {{ background: #f7e7e7; }}
</style></head>
<body>
<h1>OpenACC validation report — {_html.escape(report.compiler_label)}</h1>
<p>{_html.escape(str(len(report.results)))} tests, {_html.escape(str(report.config.iterations))} iterations each.
Pass rates: {summary}</p>
<table>
<tr><th>feature</th><th>language</th><th>result</th><th>certainty</th><th>detail</th></tr>
{chr(10).join(rows)}
</table>
</body></html>
"""


def render_metrics_text(report: SuiteRunReport) -> str:
    """Engine/run metrics as a plain-text block (the CLI's ``--metrics``).

    Kept out of :func:`render_text` on purpose: timing and utilization vary
    run to run, while the validation report itself is byte-identical across
    execution policies.
    """
    m = report.metrics
    if m is None:
        return "no run metrics recorded (report not produced by run_suite)\n"
    lines: List[str] = []
    lines.append(f"run metrics — {report.compiler_label}")
    lines.append(f"  policy             : {m.policy} (workers={m.workers})")
    lines.append(f"  wall time          : {m.wall_s:.3f} s")
    lines.append(f"  compile time (sum) : {m.compile_s:.3f} s")
    lines.append(f"  execute time (sum) : {m.execute_s:.3f} s")
    lines.append(f"  templates          : {m.templates}")
    lines.append(f"  iterations         : {m.iterations_run} "
                 f"({m.programs_executed} executed)")
    lines.append(
        f"  compile cache      : {m.cache_hits} hits / {m.cache_misses} "
        f"misses ({m.cache_hit_rate:.1%} hit rate)"
    )
    lines.append(f"  execute memo       : {m.memo_hits} phases served")
    lines.append(
        f"  worker utilization : {m.worker_utilization:.1%} across "
        f"{len(m.worker_busy_s)} worker(s)"
    )
    if m.failure_kinds:
        lines.append("  failure kinds      : " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(m.failure_kinds.items())
        ))
    return "\n".join(lines) + "\n"


def render_metrics_csv(report: SuiteRunReport) -> str:
    """Engine/run metrics as ``metric,value`` rows (stdlib ``csv`` writer,
    same quoting and ``\\n`` line-terminator rules as :func:`render_csv`)."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    m = report.metrics
    if m is None:
        return buffer.getvalue()
    writer.writerow(["policy", m.policy])
    writer.writerow(["workers", m.workers])
    writer.writerow(["wall_s", f"{m.wall_s:.6f}"])
    writer.writerow(["compile_s", f"{m.compile_s:.6f}"])
    writer.writerow(["execute_s", f"{m.execute_s:.6f}"])
    writer.writerow(["templates", m.templates])
    writer.writerow(["iterations_run", m.iterations_run])
    writer.writerow(["programs_executed", m.programs_executed])
    writer.writerow(["cache_hits", m.cache_hits])
    writer.writerow(["cache_misses", m.cache_misses])
    writer.writerow(["cache_hit_rate", f"{m.cache_hit_rate:.4f}"])
    writer.writerow(["memo_hits", m.memo_hits])
    writer.writerow(["worker_utilization", f"{m.worker_utilization:.4f}"])
    for kind, count in sorted(m.failure_kinds.items()):
        writer.writerow([f"failures.{kind}", count])
    return buffer.getvalue()


def render_bug_report(report: SuiteRunReport, max_snippet_lines: int = 40) -> str:
    """Failure-focused report with code snippets (for vendor convenience)."""
    lines: List[str] = []
    lines.append(f"Bug report — {report.compiler_label}")
    failures = report.failures()
    lines.append(f"{len(failures)} failing tests of {len(report.results)}")
    for r in failures:
        lines.append("")
        lines.append("=" * 70)
        lines.append(f"feature : {r.feature} ({r.language})")
        lines.append(f"test    : {r.template.name}")
        kind = r.failure_kind.value if r.failure_kind else "?"
        lines.append(f"class   : {kind}")
        lines.append(f"detail  : {r.functional.failure_detail()}")
        if r.template.description:
            lines.append(f"purpose : {r.template.description}")
        lines.append("--- generated functional test " + "-" * 30)
        snippet = r.functional.source.strip("\n").split("\n")
        lines.extend(snippet[:max_snippet_lines])
        if len(snippet) > max_snippet_lines:
            lines.append(f"... ({len(snippet) - max_snippet_lines} more lines)")
    inconclusive = report.inconclusive_crosses()
    if inconclusive:
        lines.append("")
        lines.append("=" * 70)
        lines.append(
            "Cross tests that unexpectedly matched the functional result "
            "(the tested directive may have no effect; test to be redesigned):"
        )
        for r in inconclusive:
            lines.append(f"  - {r.feature} ({r.language})")
    return "\n".join(lines) + "\n"
