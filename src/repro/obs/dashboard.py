"""HTML trace dashboard (the observability sibling of
:func:`repro.harness.report.render_html`).

Self-contained single-file HTML: summary tiles, per-phase breakdown, the
top-N slowest templates with proportional bars, per-event-name counts and
the first events of the run.  Every trace-derived string passes
through ``html.escape`` — span keys, event fields and attribute values all
originate in template/feature names and failure details, which the
escaping regression tests deliberately poison with markup.
"""

from __future__ import annotations

import html as _html
from typing import List

from repro.obs.sink import TraceData
from repro.obs.summary import TraceSummary, summarize_trace


def _esc(value: object) -> str:
    return _html.escape(str(value))


def _tile(label: str, value: str) -> str:
    return (f"<div class='tile'><div class='v'>{_esc(value)}</div>"
            f"<div class='l'>{_esc(label)}</div></div>")


def render_trace_html(trace: TraceData, top: int = 20,
                      event_limit: int = 50) -> str:
    """Render a parsed trace as a standalone HTML dashboard."""
    summary: TraceSummary = summarize_trace(trace, top=top)
    title = str(trace.meta.get("command", "trace"))

    tiles = "".join([
        _tile("wall time", f"{summary.wall_s:.3f} s"),
        _tile("compile (sum)", f"{summary.compile_s:.3f} s"),
        _tile("execute (sum)", f"{summary.execute_s:.3f} s"),
        _tile("cache hit rate", f"{summary.cache_hit_rate:.1%}"),
        _tile("spans", str(len(trace.spans))),
        _tile("events", str(len(trace.events))),
    ])

    phase_rows: List[str] = []
    for name, (count, total) in sorted(
        summary.phase_totals.items(), key=lambda kv: -kv[1][1]
    ):
        mean = total / count if count else 0.0
        phase_rows.append(
            f"<tr><td>{_esc(name)}</td><td class='n'>{count}</td>"
            f"<td class='n'>{total:.3f}</td><td class='n'>{mean:.4f}</td></tr>"
        )

    slow_rows: List[str] = []
    max_duration = max((d for _, d, _ in summary.slowest), default=0.0)
    for key, duration, passed in summary.slowest:
        width = 100.0 * duration / max_duration if max_duration else 0.0
        cls = "pass" if passed else ("fail" if passed is not None else "")
        verdict = ("pass" if passed else "FAIL") if passed is not None else "?"
        slow_rows.append(
            f"<tr class='{cls}'><td>{_esc(key)}</td>"
            f"<td class='n'>{duration:.4f}</td><td>{verdict}</td>"
            f"<td><div class='bar' style='width:{width:.1f}%'></div></td></tr>"
        )

    count_rows: List[str] = [
        f"<tr><td>{_esc(name)}</td><td class='n'>{count}</td></tr>"
        for name, count in sorted(summary.event_counts.items())
    ]

    event_rows: List[str] = []
    for event in trace.events[:event_limit]:
        fields = ", ".join(
            f"{_esc(k)}={_esc(v)}" for k, v in sorted(event.fields.items())
        )
        event_rows.append(
            f"<tr><td class='n'>{event.seq}</td><td>{_esc(event.name)}</td>"
            f"<td>{_esc(event.span_id or '')}</td><td>{fields}</td></tr>"
        )

    meta = " | ".join(
        f"{_esc(k)}={_esc(v)}" for k, v in sorted(trace.meta.items())
        if k != "format"
    )

    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro trace dashboard — {_esc(title)}</title>
<style>
 body {{ font-family: sans-serif; margin: 1em 2em; }}
 h2 {{ margin-top: 1.4em; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #999; padding: 2px 8px; }}
 td.n {{ text-align: right; font-variant-numeric: tabular-nums; }}
 tr.pass td {{ background: #e7f7e7; }}
 tr.fail td {{ background: #f7e7e7; }}
 .tile {{ display: inline-block; border: 1px solid #999; border-radius: 4px;
          padding: 6px 14px; margin-right: 8px; text-align: center; }}
 .tile .v {{ font-size: 1.3em; font-weight: bold; }}
 .tile .l {{ font-size: 0.8em; color: #555; }}
 .bar {{ background: #69c; height: 10px; min-width: 1px; }}
 td:has(.bar) {{ min-width: 180px; border: 1px solid #999; }}
</style></head>
<body>
<h1>repro trace dashboard</h1>
<p>{meta}</p>
{tiles}
<h2>Per-phase time breakdown</h2>
<table>
<tr><th>span</th><th>count</th><th>total (s)</th><th>mean (s)</th></tr>
{chr(10).join(phase_rows)}
</table>
<h2>Slowest templates</h2>
<table>
<tr><th>template</th><th>duration (s)</th><th>verdict</th><th>relative</th></tr>
{chr(10).join(slow_rows)}
</table>
<h2>Event counts</h2>
<table>
<tr><th>event</th><th>count</th></tr>
{chr(10).join(count_rows)}
</table>
<h2>Events (first {min(event_limit, len(trace.events))} of {len(trace.events)})</h2>
<table>
<tr><th>#</th><th>event</th><th>span</th><th>fields</th></tr>
{chr(10).join(event_rows)}
</table>
</body></html>
"""


# --------------------------------------------------------------------------
# Perf-trajectory page (``repro obs perf``) — renders the committed
# ``benchmarks/BENCH_history.jsonl`` entries as a standalone HTML page:
# a hero number (latest closures steps/sec), a single-series line chart of
# the trajectory, and the full per-run table.  Single series, so no legend
# box — the chart title names it.  All interpolated strings are escaped.

#: chart colors per scheme: series-1 blue on the light/dark surfaces
_PERF_LIGHT = {"series": "#2a78d6", "surface": "#fcfcfb", "ink": "#1f1f1e",
               "muted": "#6b6b68", "grid": "#e4e4e1", "border": "#d5d5d2"}
_PERF_DARK = {"series": "#3987e5", "surface": "#1a1a19", "ink": "#ededeb",
              "muted": "#989894", "grid": "#33332f", "border": "#44443f"}


def _fmt_sps(value: float) -> str:
    """Humanize steps/sec for axis and hero labels (5233345 -> '5.23M')."""
    value = float(value)
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.0f}k"
    return f"{value:.0f}"


def _perf_chart_svg(entries: List[dict]) -> str:
    """Single-series SVG line chart of closures steps/sec over history."""
    values = [float(e["microbench"]["closures_steps_per_sec"])
              for e in entries]
    labels = [str(e.get("git_sha", "?")) for e in entries]
    width, height = 720, 260
    pad_l, pad_r, pad_t, pad_b = 64, 20, 16, 36
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:  # flat line / single point: give the scale some air
        span = max(hi * 0.1, 1.0)
    lo -= span * 0.15
    hi += span * 0.15
    if lo < 0:
        lo = 0.0

    def x(i: int) -> float:
        if len(values) == 1:
            return pad_l + plot_w / 2
        return pad_l + plot_w * i / (len(values) - 1)

    def y(v: float) -> float:
        return pad_t + plot_h * (1 - (v - lo) / (hi - lo))

    parts: List[str] = []
    # horizontal gridlines + y labels (4 steps)
    for k in range(5):
        gv = lo + (hi - lo) * k / 4
        gy = y(gv)
        parts.append(
            f"<line class='grid' x1='{pad_l}' y1='{gy:.1f}' "
            f"x2='{width - pad_r}' y2='{gy:.1f}'/>"
        )
        parts.append(
            f"<text class='axis' x='{pad_l - 6}' y='{gy + 3.5:.1f}' "
            f"text-anchor='end'>{_esc(_fmt_sps(gv))}</text>"
        )
    # the series line (2px) over the grid
    if len(values) > 1:
        points = " ".join(f"{x(i):.1f},{y(v):.1f}"
                          for i, v in enumerate(values))
        parts.append(f"<polyline class='series' points='{points}'/>")
    # markers (8px = r4) with native hover tooltips, x labels per run
    for i, v in enumerate(values):
        cx, cy = x(i), y(v)
        tip = (f"{labels[i]} — {v:,.0f} steps/s "
               f"({entries[i].get('recorded_at', '?')})")
        parts.append(
            f"<circle class='marker' cx='{cx:.1f}' cy='{cy:.1f}' r='4'>"
            f"<title>{_esc(tip)}</title></circle>"
        )
        parts.append(
            f"<text class='axis' x='{cx:.1f}' y='{height - pad_b + 16}' "
            f"text-anchor='middle'>{_esc(labels[i])}</text>"
        )
        # selective direct labels: first and last point only
        if i in (0, len(values) - 1) and len(values) > 1:
            parts.append(
                f"<text class='label' x='{cx:.1f}' y='{cy - 9:.1f}' "
                f"text-anchor='middle'>{_esc(_fmt_sps(v))}</text>"
            )
    return (
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='closures interpreter steps per second by commit'>"
        + "".join(parts) + "</svg>"
    )


def _engine_ips(engine: dict, interpreter: str) -> str:
    """An engine iterations/sec cell; "—" where the run did not measure
    it (entries after the tree walker left the engine have no ``tree``)."""
    ips = engine.get(interpreter, {}).get("iterations_per_sec")
    return "—" if ips is None else f"{ips:,.1f}"


def render_perf_html(entries: List[dict]) -> str:
    """Render bench-history entries as a perf-trajectory HTML page."""
    if not entries:
        raise ValueError("no history entries to render")
    latest = entries[-1]
    micro = latest["microbench"]

    rows: List[str] = []
    for e in entries:
        m = e["microbench"]
        eng = e.get("engine", {})
        rows.append(
            "<tr>"
            f"<td>{_esc(e.get('git_sha', '?'))}</td>"
            f"<td>{_esc(e.get('recorded_at', '?'))}</td>"
            f"<td class='n'>{m['tree_steps_per_sec']:,}</td>"
            f"<td class='n'>{m['closures_steps_per_sec']:,}</td>"
            f"<td class='n'>{m['speedup']:.2f}x</td>"
            f"<td class='n'>{_engine_ips(eng, 'tree')}</td>"
            f"<td class='n'>{_engine_ips(eng, 'closures')}</td>"
            f"<td class='n'>{e.get('generation', {}).get('templates_per_sec', 0):,.1f}</td>"
            f"<td class='n'>{e.get('fig8a', {}).get('wall_s', 0):.2f}</td>"
            "</tr>"
        )

    light = "".join(f"--{k}: {v}; " for k, v in _PERF_LIGHT.items())
    dark = "".join(f"--{k}: {v}; " for k, v in _PERF_DARK.items())

    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro perf trajectory</title>
<style>
 :root {{ {light}}}
 @media (prefers-color-scheme: dark) {{ :root {{ {dark}}} }}
 body {{ font-family: system-ui, sans-serif; margin: 1em 2em;
         background: var(--surface); color: var(--ink); }}
 h1 {{ font-size: 1.3em; }}
 h2 {{ margin-top: 1.4em; font-size: 1.05em; }}
 .hero .v {{ font-size: 2.2em; font-weight: bold;
             font-variant-numeric: tabular-nums; }}
 .hero .l {{ color: var(--muted); }}
 svg {{ max-width: 760px; width: 100%; height: auto; }}
 svg .grid {{ stroke: var(--grid); stroke-width: 1; }}
 svg .series {{ fill: none; stroke: var(--series); stroke-width: 2; }}
 svg .marker {{ fill: var(--series); stroke: var(--surface);
                stroke-width: 2; }}
 svg .axis {{ fill: var(--muted); font-size: 11px; }}
 svg .label {{ fill: var(--ink); font-size: 11px; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid var(--border); padding: 2px 8px; }}
 td.n {{ text-align: right; font-variant-numeric: tabular-nums; }}
 p.meta {{ color: var(--muted); }}
</style></head>
<body>
<h1>repro perf trajectory</h1>
<div class='hero'>
 <div class='v'>{micro['closures_steps_per_sec']:,} steps/s</div>
 <div class='l'>closures interpreter at {_esc(latest.get('git_sha', '?'))}
 ({micro['speedup']:.2f}x over tree) — {len(entries)} recorded
 run{'' if len(entries) == 1 else 's'}</div>
</div>
<h2>Closures interpreter steps/sec by commit</h2>
{_perf_chart_svg(entries)}
<h2>All recorded runs</h2>
<table>
<tr><th>sha</th><th>recorded</th><th>tree steps/s</th>
<th>closures steps/s</th><th>speedup</th><th>engine tree it/s</th>
<th>engine closures it/s</th><th>gen templates/s</th><th>fig8a (s)</th></tr>
{chr(10).join(rows)}
</table>
<p class='meta'>python {_esc(latest.get('python', '?'))} ·
{_esc(latest.get('machine', '?'))} · schema
{_esc(latest.get('schema', '?'))}</p>
</body></html>
"""
