"""Command-line interface.

The user-facing face of the harness, covering the feature bullets of
Section III (compiler configuration, feature selection, result formats):

* ``repro list-features`` — the OpenACC 1.0 feature tree with coverage;
* ``repro list-vendors`` — simulated vendor versions and bug counts;
* ``repro generate`` — emit the generated functional/cross programs of a
  template;
* ``repro validate`` — run the suite against the reference or a vendor
  version, in any output format (text/html/csv/bugs);
* ``repro sweep`` — a Fig. 8-style pass-rate sweep over a vendor;
* ``repro table1`` — the Table I bug-count table;
* ``repro titan`` — a Section VII production sweep on the simulated
  cluster;
* ``repro trace`` — summarize or render a trace recorded with
  ``validate/titan --trace FILE.jsonl``;
* ``repro journal inspect`` — examine the crash-safe campaign journal
  written by ``validate/titan --journal FILE`` (resumable with
  ``--resume FILE``);
* ``repro obs tail`` — follow or summarize the live-telemetry NDJSON
  stream written by ``validate/titan --live-stream FILE`` (which also
  accept ``--status`` for a TTY progress line and ``--prom FILE`` for a
  Prometheus textfile);
* ``repro obs perf`` — render the committed bench history
  (``benchmarks/BENCH_history.jsonl``) as a perf-trajectory HTML page.

Invoke as ``python -m repro <command> ...``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.analysis import table1_counts, vendor_pass_rates
from repro.compiler import CompilerBehavior
from repro.compiler.vendors import VENDORS, vendor_version
from repro.faults import FaultPlan, InjectedJournalTear
from repro.harness import (
    CampaignInterrupted,
    CancelToken,
    EXECUTION_POLICIES,
    EmptySelectionError,
    HarnessConfig,
    ValidationRunner,
    render_bug_report,
    render_csv,
    render_html,
    render_metrics_csv,
    render_metrics_text,
    render_text,
)
from repro.ioutil import atomic_write_text
from repro.spec.features import OPENACC_10
from repro.suite import openacc10_suite
from repro.templates import generate_cross, generate_functional


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (pool sizes, node/sample counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a float in [0, 1] (degraded-node fraction)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (retry budgets, recheck counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float > 0 (wall-clock budgets)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _fault_plan(text: str) -> FaultPlan:
    """argparse type: a fault-injection spec, e.g. 'worker=0.5,seed=7'."""
    try:
        return FaultPlan.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _make_tracer(args):
    """Build a Tracer when ``--trace`` asks for one."""
    if not args.trace:
        return None
    from repro.obs import Tracer

    return Tracer()


def _finish_trace(args, tracer, **meta) -> None:
    if not args.trace:
        return
    from repro.obs import write_trace

    write_trace(args.trace, tracer, meta=meta)
    print(f"wrote {args.trace}")


def _open_journal(args, campaign: dict, faults, tracer):
    """Create or resume the campaign journal per ``--journal``/``--resume``.

    Returns None when neither flag was given.  Journal load/mismatch
    problems surface as :class:`~repro.journal.JournalError` — the caller
    maps them to exit code 1.
    """
    from repro.journal import JournalWriter

    if args.resume:
        return JournalWriter.resume(args.resume, campaign,
                                    tracer=tracer, faults=faults)
    if args.journal:
        return JournalWriter.create(args.journal, campaign,
                                    tracer=tracer, faults=faults)
    return None


def _install_drain_handlers() -> Tuple[CancelToken, list]:
    """Route SIGINT/SIGTERM to a graceful drain while a journal is active.

    Returns the command's :class:`CancelToken` and the displaced handlers
    for :func:`_restore_handlers`.  A signal cancels the token: the
    unit loop finishes in-flight units (each journaled on completion) and
    raise :class:`CampaignInterrupted`; the command then exits 3 with a
    resume hint instead of dying mid-write.  No handler is installed off
    the main thread (signals cannot be installed there — the drain still
    works via injected faults, just not via Ctrl-C).
    """
    token = CancelToken()

    def drain(signum, frame) -> None:
        token.cancel(
            f"graceful drain requested (signal {signum}): in-flight units "
            "finished, remaining units not started"
        )

    displaced = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            displaced.append((signum, signal.signal(signum, drain)))
        except ValueError:  # not the main thread (e.g. tests)
            break
    return token, displaced


def _restore_handlers(displaced: list) -> None:
    for signum, handler in displaced:
        try:
            signal.signal(signum, handler)
        except ValueError:
            pass


def _run_journaled(args, command: str, campaign, faults, tracer,
                   run) -> int:
    """Run one campaign command under ``--journal``/``--resume``.

    ``run(journal, cancel)`` runs the campaign and prints its results; its
    return value is the exit code.  Without a journal flag both arguments
    are None.  With one, ``campaign()`` builds the journal's campaign key,
    a :class:`~repro.journal.JournalError` prints ``journal error: ...``
    and exits 1 before ``run`` starts, and SIGINT/SIGTERM drain the
    campaign: an interrupted or torn campaign prints the resume hint and
    exits 3.  The handlers are restored and the journal closed on every
    path.
    """
    journal = cancel = None
    displaced: list = []
    if args.journal or args.resume:
        from repro.journal import JournalError

        try:
            journal = _open_journal(args, campaign(), faults, tracer)
        except JournalError as err:
            print(f"journal error: {err}", file=sys.stderr)
            return 1
        cancel, displaced = _install_drain_handlers()
    try:
        return run(journal, cancel)
    except (CampaignInterrupted, InjectedJournalTear):
        journal.close()
        print(f"interrupted: {len(journal.records)} unit(s) journaled; "
              f"resume with `repro {command} --resume {journal.path}`",
              file=sys.stderr)
        return 3
    finally:
        _restore_handlers(displaced)
        if journal is not None:
            journal.close()


def _behavior(args) -> CompilerBehavior:
    if args.vendor:
        return vendor_version(args.vendor, args.version).behavior(args.language)
    return CompilerBehavior()


def _config(args) -> HarnessConfig:
    return HarnessConfig(
        iterations=args.iterations,
        run_cross=not args.no_cross,
        languages=(args.language,) if args.language else ("c", "fortran"),
        feature_prefixes=args.features or None,
        policy=args.policy,
        workers=args.workers,
        compile_cache=not args.no_compile_cache,
        retries=args.retries,
        template_timeout_s=args.timeout_s,
        fault_plan=args.inject_faults,
        lint=getattr(args, "lint", False),
        live_stream=getattr(args, "live_stream", None),
        status=getattr(args, "status", False),
        prom=getattr(args, "prom", None),
    )


def cmd_list_features(args) -> int:
    suite = openacc10_suite()
    covered = set(suite.features())
    for feature in OPENACC_10:
        marker = "x" if feature.fid in covered else " "
        print(f"[{marker}] {feature.fid:40s} {feature.kind.value}")
    print(f"\n{len(covered)} of {len(OPENACC_10)} 1.0 features have "
          "dedicated tests (uncovered features are exercised jointly).")
    return 0


def cmd_list_vendors(args) -> int:
    for vendor, versions in VENDORS.items():
        print(vendor)
        for vv in versions:
            print(f"  {vv.version:8s} C bugs: {vv.bug_count('c'):3d}   "
                  f"Fortran bugs: {vv.bug_count('fortran'):3d}")
    return 0


def cmd_generate(args) -> int:
    suite = openacc10_suite()
    template = suite.get(args.feature, args.language)
    if template is None:
        print(f"no template for feature {args.feature!r} ({args.language})",
              file=sys.stderr)
        return 1
    if args.mode in ("functional", "both"):
        print(f"// --- functional test: {template.name} ---")
        print(generate_functional(template).source)
    if args.mode in ("cross", "both") and template.has_cross:
        print(f"// --- cross test: {template.name} ---")
        print(generate_cross(template).source)
    return 0


_LINT_SUITES = ("1.0", "2.0", "combinations")


def _lint_code_filter(values):
    """Expand repeatable comma-separated ``--select``/``--ignore`` values.

    Tokens are full codes (``ACC401``) or prefixes (``ACC4``); an unknown
    token returns ``(None, token)`` so the caller can did-you-mean it.
    """
    from repro.staticcheck import CODE_CATALOG

    codes: set = set()
    for value in values or []:
        for token in value.split(","):
            token = token.strip()
            if not token:
                continue
            upper = token.upper()
            matched = {c for c in CODE_CATALOG if c.startswith(upper)}
            if not matched:
                return None, token
            codes |= matched
    return codes, None


def cmd_lint(args) -> int:
    from repro.staticcheck import (
        SHIPPED_BASELINE,
        baseline_from_findings,
        lint_suite,
        load_baseline,
        merge_reports,
        render_lint_json,
        render_lint_sarif,
        render_lint_text,
    )
    from repro.suite import combination_suite, openacc20_suite
    from repro.suite.registry import _did_you_mean

    select, bad = _lint_code_filter(args.select)
    if bad is not None:
        hint = _did_you_mean(bad.upper(), _lint_catalog_codes())
        print(f"unknown diagnostic code {bad!r} in --select{hint}",
              file=sys.stderr)
        return 1
    ignore, bad = _lint_code_filter(args.ignore)
    if bad is not None:
        hint = _did_you_mean(bad.upper(), _lint_catalog_codes())
        print(f"unknown diagnostic code {bad!r} in --ignore{hint}",
              file=sys.stderr)
        return 1

    if args.update_baseline:
        baseline = None  # raw findings feed the new allowance
    elif args.no_baseline:
        baseline = None
    elif args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as err:
            print(f"cannot load baseline {args.baseline}: {err}",
                  file=sys.stderr)
            return 1
    else:
        baseline = SHIPPED_BASELINE

    factories = {
        "1.0": openacc10_suite,
        "2.0": openacc20_suite,
        "combinations": combination_suite,
    }
    names = list(_LINT_SUITES) if args.all else [args.suite]
    reports = []
    for name in names:
        suite = factories[name]()
        templates = None
        if args.feature or args.language:
            templates = [
                t for t in suite
                if (not args.feature or t.feature == args.feature)
                and (not args.language or t.language == args.language)
            ]
        reports.append(lint_suite(suite, templates, baseline=baseline))
    merged = merge_reports(reports)
    if merged.checked == 0:
        print("lint selection matched no templates", file=sys.stderr)
        return 1

    if args.update_baseline:
        new_baseline = baseline_from_findings([
            (entry.name, d)
            for entry in merged.entries
            for d in entry.diagnostics
        ])
        path = args.baseline or _shipped_baseline_path()
        atomic_write_text(path, new_baseline.render())
        print(f"wrote {path} ({new_baseline.total} allowed finding(s) "
              f"across {len(new_baseline.entries)} template(s))")
        return 0

    if select or ignore:
        for entry in merged.entries:
            entry.diagnostics = [
                d for d in entry.diagnostics
                if (not select or d.code in select)
                and d.code not in ignore
            ]

    if args.format == "sarif":
        rendered = render_lint_sarif(merged)
    elif args.format == "json":
        rendered = render_lint_json(merged)
    else:
        rendered = render_lint_text(merged)
    if args.output:
        atomic_write_text(args.output, rendered)
        print(f"wrote {args.output} ({merged.checked} templates, "
              f"{merged.error_count} errors)")
    else:
        print(rendered, end="")
    return 2 if merged.error_count else 0


def _lint_catalog_codes():
    from repro.staticcheck import CODE_CATALOG

    return sorted(CODE_CATALOG)


def _shipped_baseline_path() -> str:
    import repro.staticcheck.suppress as _suppress

    return str(_suppress._SHIPPED_PATH)


def cmd_validate(args) -> int:
    if args.suite == "combinations":
        from repro.suite import combination_suite

        suite = combination_suite()
    else:
        suite = openacc10_suite()
    tracer = _make_tracer(args)
    behavior = _behavior(args)
    config = _config(args)
    runner = ValidationRunner(behavior, config, tracer=tracer)

    def campaign() -> dict:
        from repro.journal import validate_campaign_key

        return validate_campaign_key(args.suite, behavior, config)

    def run(journal, cancel) -> int:
        try:
            report = runner.run_suite(suite, journal=journal, cancel=cancel)
        except EmptySelectionError as err:
            # an empty selection used to produce an empty report and exit
            # 0 — a vacuous pass that silently blessed typo'd --features
            # filters
            print(f"error: {err}", file=sys.stderr)
            return 1
        _print_report(args, report, tracer)
        return 0 if not report.failures() else 2

    return _run_journaled(args, "validate", campaign, runner.faults, tracer,
                          run)


def _print_report(args, report, tracer) -> None:
    """Write ``validate``'s report, metrics and trace as its flags ask."""
    renderer = {
        "text": render_text,
        "html": render_html,
        "csv": render_csv,
        "bugs": render_bug_report,
    }[args.format]
    output = renderer(report)
    if args.output:
        atomic_write_text(args.output, output)
        print(f"wrote {args.output}")
    else:
        print(output)
    if args.metrics:
        render_metrics = (
            render_metrics_csv if args.format == "csv" else render_metrics_text
        )
        if args.output:
            # keep the report file clean of timing noise: metrics go to a
            # sidecar next to it, matching the report's format
            suffix = ".metrics.csv" if args.format == "csv" else ".metrics.txt"
            metrics_path = args.output + suffix
            atomic_write_text(metrics_path, render_metrics(report) + "\n")
            print(f"wrote {metrics_path}")
        else:
            print(render_metrics(report))
    _finish_trace(args, tracer, command="validate", suite=args.suite,
                  vendor=args.vendor or "reference",
                  version=args.version or "-",
                  policy=args.policy, workers=args.workers)


def cmd_sweep(args) -> int:
    config = HarnessConfig(iterations=1, run_cross=False)
    rates = vendor_pass_rates(args.vendor, openacc10_suite(), config)
    for language in ("c", "fortran"):
        print(f"{args.vendor.upper()} — {language}")
        for point in rates[language]:
            bar = "#" * round(point.pass_rate / 2)
            print(f"  {point.version:8s} |{bar:<50s}| {point.pass_rate:5.1f}%")
    return 0


def cmd_table1(args) -> int:
    for vendor in ("caps", "pgi", "cray"):
        rows = table1_counts(vendor)
        versions = " ".join(f"{r.version:>7s}" for r in rows)
        c_row = " ".join(f"{r.c_bugs:7d}" for r in rows)
        f_row = " ".join(f"{r.fortran_bugs:7d}" for r in rows)
        match = all(r.matches_paper for r in rows)
        print(f"{vendor.upper():5s} {versions}")
        print(f"  C   {c_row}")
        print(f"  F   {f_row}   (matches paper: {match})")
    return 0


def cmd_titan(args) -> int:
    from repro.faults import FaultInjector, NULL_INJECTOR
    from repro.harness.titan import TitanCluster, TitanHarness

    tracer = _make_tracer(args)
    cluster = TitanCluster(num_nodes=args.nodes,
                           degraded_fraction=args.degraded, seed=args.seed)
    config = HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                           retries=args.retries,
                           template_timeout_s=args.timeout_s,
                           fault_plan=args.inject_faults,
                           live_stream=args.live_stream,
                           status=args.status,
                           prom=args.prom)
    plan = args.inject_faults
    faults = (FaultInjector(plan) if plan is not None and plan.active
              else NULL_INJECTOR)

    def campaign() -> dict:
        from repro.journal import titan_campaign_key

        return titan_campaign_key(
            config, nodes=args.nodes, degraded=args.degraded,
            seed=args.seed, sample=args.sample, recheck=args.recheck)

    def run(journal, cancel) -> int:
        harness = TitanHarness(
            cluster, openacc10_suite(),
            config=replace(config, feature_prefixes=["parallel", "update"]),
            tracer=tracer,
            recheck=args.recheck,
            journal=journal,
            cancel=cancel,
        )
        try:
            checks = harness.sweep(sample_size=args.sample, seed=args.seed)
        finally:
            # finalize live sinks even on an interrupted sweep: the stream
            # gets its final snapshot, the status line its newline
            harness.finish()
        for check in checks:
            status = "FLAGGED" if check.flagged else "ok"
            print(f"node {check.node_id:3d} {check.stack:15s} "
                  f"{check.pass_rate:6.1f}%  {status}")
        flagged = sum(1 for c in checks if c.flagged)
        print(f"\n{flagged} of {len(checks)} node/stack checks flagged")
        if harness.quarantined:
            print(f"{len(harness.quarantined)} node(s) quarantined after "
                  f"{harness.recheck} recheck(s):")
            for record in sorted(harness.quarantined.values(),
                                 key=lambda r: r.node_id):
                print(f"  node {record.node_id:3d} {record.stack:15s} "
                      f"{record.detail}")
        _finish_trace(args, tracer, command="titan", nodes=args.nodes,
                      degraded=args.degraded, sample=args.sample,
                      seed=args.seed)
        return 0

    return _run_journaled(args, "titan", campaign, faults, tracer, run)


def cmd_trace(args) -> int:
    from repro.obs import (
        read_trace,
        render_summary_text,
        render_trace_html,
        summarize_trace,
    )

    try:
        # tolerant mode: a trace with a torn tail (the traced process was
        # killed mid-write) still summarizes, with the damage counted
        trace = read_trace(args.file, strict=False)
    except (OSError, ValueError) as err:
        print(f"cannot read trace {args.file!r}: {err}", file=sys.stderr)
        return 1
    if trace.malformed:
        print(f"warning: skipped {trace.malformed} malformed trace line(s) "
              "(torn tail?)", file=sys.stderr)
    if args.trace_command == "summarize":
        print(render_summary_text(summarize_trace(trace, top=args.top)))
    else:  # html
        page = render_trace_html(trace)
        if args.output:
            atomic_write_text(args.output, page)
            print(f"wrote {args.output}")
        else:
            print(page)
    return 0


def _obs_tail(args) -> int:
    from repro.obs.live import (
        read_live,
        render_record_line,
        render_tally_text,
    )

    if args.follow:
        return _obs_follow(args)
    try:
        # tolerant mode: a stream with a torn tail (the campaign process
        # was killed mid-write) still reads, with the damage counted
        stream = read_live(args.file, strict=False)
    except (OSError, ValueError) as err:
        print(f"cannot read live stream {args.file!r}: {err}",
              file=sys.stderr)
        return 1
    if stream.malformed:
        print(f"warning: skipped {stream.malformed} malformed stream "
              "line(s) (torn tail?)", file=sys.stderr)
    if args.summarize:
        print(render_tally_text(stream.tally(),
                                final=stream.final_snapshot), end="")
    else:
        for record in stream.records:
            print(render_record_line(record))
    return 0


def _obs_follow(args) -> int:
    """Poll the stream file and print records as they land.

    Each batch of complete (newline-terminated) lines goes through
    :func:`~repro.obs.live.parse_live`, the reader ``obs tail`` uses, so a
    record the writer is mid-way through never prints garbled, unparsable
    lines are skipped with a warning, and a file of another format exits 1
    at once.  A file that *shrinks* (rotated or truncated by the writer)
    is picked up again from the start instead of silently never matching
    another record.  Exits when the final snapshot arrives, on Ctrl-C, or
    — with ``--idle-timeout-s`` — with exit 1 after that many seconds
    without new data (a follower of a dead campaign must not hang forever
    in CI).
    """
    import os as _os
    import time as _time

    from repro.obs.live import parse_live, render_record_line

    offset = 0
    buffered = ""
    last_data = _time.monotonic()
    try:
        while True:
            chunk = ""
            try:
                if _os.path.getsize(args.file) < offset:
                    print("warning: stream file shrank (rotated or "
                          "truncated); following from its start",
                          file=sys.stderr)
                    offset = 0
                    buffered = ""
                with open(args.file, encoding="utf-8") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                pass  # not created yet, or rotated away mid-poll
            if chunk:
                last_data = _time.monotonic()
                offset += len(chunk.encode("utf-8"))
                buffered += chunk
            lines, newline, buffered = buffered.rpartition("\n")
            try:
                batch = parse_live(lines + newline, strict=False)
            except ValueError as err:
                print(f"cannot read live stream {args.file!r}: {err}",
                      file=sys.stderr)
                return 1
            if batch.malformed:
                print(f"warning: skipped {batch.malformed} malformed stream "
                      "line(s)", file=sys.stderr)
            for record in batch.records:
                print(render_record_line(record), flush=True)
                if record.get("type") == "snapshot" and record.get("final"):
                    return 0
            if (args.idle_timeout_s is not None
                    and _time.monotonic() - last_data >= args.idle_timeout_s):
                print(f"no new stream data in {args.idle_timeout_s:g}s; "
                      "giving up (writer dead?)", file=sys.stderr)
                return 1
            _time.sleep(args.poll_s)
    except KeyboardInterrupt:
        return 0


def _obs_perf(args) -> int:
    import json as _json

    from repro.obs import render_perf_html

    entries: list = []
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            print(f"cannot read {path!r}: {err}", file=sys.stderr)
            return 1
        try:
            if path.endswith(".jsonl"):
                entries.extend(_json.loads(line)
                               for line in text.splitlines() if line.strip())
            else:
                entries.append(_json.loads(text))
        except ValueError as err:
            print(f"cannot parse {path!r}: {err}", file=sys.stderr)
            return 1
    if not entries:
        print("no bench history entries found", file=sys.stderr)
        return 1
    page = render_perf_html(entries)
    if args.output:
        atomic_write_text(args.output, page)
        print(f"wrote {args.output} ({len(entries)} run(s))")
    else:
        print(page)
    return 0


def cmd_obs(args) -> int:
    if args.obs_command == "tail":
        return _obs_tail(args)
    return _obs_perf(args)


def cmd_journal(args) -> int:
    """``journal inspect`` and ``journal fsck``: two renderings of one scan.

    fsck exits 0 when the journal is clean or only torn at the tail (a
    resume salvages it) and 1 on corruption; inspect refuses what resume
    refuses.
    """
    from repro.journal import fsck_journal, render_fsck

    scan = fsck_journal(args.file)
    if args.journal_command == "fsck":
        print(render_fsck(scan))
    elif not scan.resumable:
        print(f"journal error: journal {scan.path!r}: {scan.detail}",
              file=sys.stderr)
        return 1
    else:
        campaign = scan.campaign
        print(f"journal    {scan.path}")
        print(f"format     {campaign.get('format', '?')}")
        print(f"command    {campaign.get('command', '?')}")
        print(f"code       {campaign.get('code_version', '?')}")
        for key in ("suite", "compiler", "nodes", "sample", "seed"):
            if key in campaign:
                print(f"{key:10s} {campaign[key]}")
        print(f"units      {len(scan.records)} journaled")
        print(f"resumes    {scan.resumes} (generation {scan.generation})")
        if scan.torn_bytes:
            print(f"torn tail  {scan.torn_bytes} byte(s) — will be "
                  "truncated on resume")
        else:
            print("torn tail  none (clean shutdown)")
    if args.units:
        for unit in sorted(scan.salvageable_units()):
            print(f"  {unit}")
    return 0 if scan.resumable else 1


def _add_journal_flags(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--journal", metavar="FILE",
                       help="write a crash-safe campaign journal: every "
                            "completed unit is appended and fsync'd, so a "
                            "SIGKILL loses at most the unit in flight")
    group.add_argument("--resume", metavar="FILE",
                       help="resume an interrupted campaign from its "
                            "journal: intact records are replayed, only "
                            "missing units re-run, and the final report is "
                            "byte-identical to an uninterrupted run")


def _add_live_flags(p) -> None:
    p.add_argument("--live-stream", metavar="FILE", dest="live_stream",
                   help="stream live campaign telemetry to FILE as NDJSON "
                        "(events + periodic snapshots; follow with "
                        "`repro obs tail FILE --follow`)")
    p.add_argument("--status", action="store_true",
                   help="repaint a one-line progress/ETA status on stderr "
                        "as units complete")
    p.add_argument("--prom", metavar="FILE", dest="prom",
                   help="export campaign progress as a Prometheus textfile "
                        "(atomically rewritten per snapshot, for "
                        "node_exporter's textfile collector)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenACC 1.0 validation testsuite (IPDPSW 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-features", help="feature tree with suite coverage")
    sub.add_parser("list-vendors", help="simulated vendor versions")
    sub.add_parser("table1", help="Table I bug counts")

    p = sub.add_parser("generate", help="emit generated test programs")
    p.add_argument("feature")
    p.add_argument("--language", default="c", choices=["c", "fortran"])
    p.add_argument("--mode", default="both",
                   choices=["functional", "cross", "both"])

    p = sub.add_parser("lint", help="static-check the test corpus "
                                    "(exit 2 on error diagnostics)")
    p.add_argument("--suite", default="1.0", choices=list(_LINT_SUITES),
                   help="corpus to lint (default: the 1.0 suite)")
    p.add_argument("--all", action="store_true",
                   help="lint every shipped suite")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"])
    p.add_argument("--feature", help="restrict to one dotted feature id")
    p.add_argument("--language", choices=["c", "fortran"],
                   help="restrict to one language")
    p.add_argument("--select", action="append", metavar="CODES",
                   help="only report these diagnostic codes or prefixes "
                        "(comma-separated, repeatable, e.g. ACC4,ACC501)")
    p.add_argument("--ignore", action="append", metavar="CODES",
                   help="drop these diagnostic codes or prefixes")
    p.add_argument("--baseline", metavar="PATH",
                   help="baseline file of known findings to subtract "
                        "(default: the shipped corpus baseline)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report raw findings, ignoring any baseline")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run's raw findings "
                        "(to --baseline, or the shipped file)")
    p.add_argument("--output", help="write the report to this path "
                                    "(atomic) instead of stdout")

    p = sub.add_parser("validate", help="run the suite against an implementation")
    p.add_argument("--suite", default="1.0", choices=["1.0", "combinations"],
                   help="base 1.0 corpus or the feature-combination suite")
    p.add_argument("--vendor", choices=list(VENDORS))
    p.add_argument("--version", help="vendor version (with --vendor)")
    p.add_argument("--language", choices=["c", "fortran"])
    p.add_argument("--iterations", type=_positive_int, default=3, metavar="M")
    p.add_argument("--no-cross", action="store_true")
    p.add_argument("--features", nargs="*", metavar="PREFIX",
                   help="feature prefixes to select, e.g. parallel loop.reduction")
    p.add_argument("--format", default="text",
                   choices=["text", "html", "csv", "bugs"])
    p.add_argument("--output", help="write the report to a file")
    p.add_argument("--policy", default="serial",
                   choices=list(EXECUTION_POLICIES),
                   help="execution engine: serial, or a pool of worker "
                        "processes (identical reports either way)")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="pool size for --policy process")
    p.add_argument("--metrics", action="store_true",
                   help="run metrics (wall/compile/execute time, compile-"
                        "cache hit rate, worker utilization); written next "
                        "to --output as FILE.metrics.txt/.csv, else printed")
    p.add_argument("--no-compile-cache", action="store_true",
                   help="share no parses or runs across phases (every "
                        "compile parses; a phase reuses only its own "
                        "seed-free iteration 0)")
    p.add_argument("--lint", action="store_true",
                   help="static-check each template before compiling; "
                        "templates with error diagnostics are marked "
                        "STATIC_ERROR (a corpus defect) and never run")
    p.add_argument("--retries", type=_nonnegative_int, default=0, metavar="R",
                   help="re-run a work unit up to R times after a harness "
                        "fault before marking it HARNESS_ERROR")
    p.add_argument("--timeout-s", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-template wall-clock budget (distinct from the "
                        "interpreter step budget)")
    p.add_argument("--inject-faults", type=_fault_plan, default=None,
                   metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                        "'worker=0.5,iteration=0.2,seed=7' (sites: compile, "
                        "iteration, worker, stall, journal; modifiers: "
                        "seed, stall-s, max-fires, persistent)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a span/event trace to FILE (JSONL)")
    _add_journal_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("sweep", help="Fig. 8-style pass-rate sweep")
    p.add_argument("vendor", choices=list(VENDORS))

    p = sub.add_parser("compare",
                       help="diff two versions: fixed / regressed features")
    p.add_argument("vendor", choices=list(VENDORS))
    p.add_argument("old_version")
    p.add_argument("new_version")
    p.add_argument("--language", default="c", choices=["c", "fortran"])

    p = sub.add_parser("titan", help="production sweep on the simulated cluster")
    p.add_argument("--nodes", type=_positive_int, default=16,
                   help="cluster size (>= 1)")
    p.add_argument("--degraded", type=_fraction, default=0.25,
                   help="fraction of degraded nodes, in [0, 1]")
    p.add_argument("--sample", type=_positive_int, default=6,
                   help="nodes sampled per sweep (>= 1)")
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--recheck", type=_nonnegative_int, default=1, metavar="R",
                   help="re-checks of a flagged node before quarantining it")
    p.add_argument("--retries", type=_nonnegative_int, default=0, metavar="R",
                   help="per-unit retry budget of the node checks")
    p.add_argument("--timeout-s", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-template wall-clock budget of the node checks")
    p.add_argument("--inject-faults", type=_fault_plan, default=None,
                   metavar="SPEC",
                   help="deterministic fault injection (see validate)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a span/event trace to FILE (JSONL)")
    _add_journal_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("journal", help="inspect a campaign journal")
    jsub = p.add_subparsers(dest="journal_command", required=True)
    ji = jsub.add_parser("inspect",
                         help="header, journaled units, resume generations "
                              "and torn-tail status of a journal file")
    ji.add_argument("file")
    ji.add_argument("--units", action="store_true",
                    help="also list the journaled unit keys")
    jf = jsub.add_parser("fsck",
                         help="crash-consistency check of a journal: "
                              "checksums, torn tails, and what a resume "
                              "would salvage (exit 1 on corruption)")
    jf.add_argument("file", help="journal path (the --journal value)")
    jf.add_argument("--units", action="store_true",
                    help="also list the salvageable unit keys")

    p = sub.add_parser("trace", help="inspect a recorded trace file")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser("summarize",
                         help="text summary: phase totals, cache, slowest "
                              "templates, failure kinds")
    ps.add_argument("file")
    ps.add_argument("--top", type=_positive_int, default=10, metavar="N",
                    help="slowest templates to list")
    ph = tsub.add_parser("html", help="render the HTML trace dashboard")
    ph.add_argument("file")
    ph.add_argument("--output", help="write the page to a file")

    p = sub.add_parser("obs", help="live-telemetry and perf-history tools")
    osub = p.add_subparsers(dest="obs_command", required=True)
    ot = osub.add_parser("tail",
                         help="print or summarize a live NDJSON stream "
                              "(tolerates the torn tail of a killed run)")
    ot.add_argument("file")
    ot.add_argument("--summarize", action="store_true",
                    help="fold the stream into campaign totals instead of "
                         "printing per-record lines")
    ot.add_argument("--follow", action="store_true",
                    help="poll the file and print records as they land; "
                         "exits on the final snapshot or Ctrl-C")
    ot.add_argument("--poll-s", type=_positive_float, default=0.2,
                    metavar="SECONDS", dest="poll_s",
                    help="--follow poll interval (default 0.2s)")
    ot.add_argument("--idle-timeout-s", type=_positive_float, default=None,
                    metavar="SECONDS", dest="idle_timeout_s",
                    help="--follow: exit 1 after this long without new "
                         "stream data (default: wait forever)")
    op = osub.add_parser("perf",
                         help="render bench history (BENCH_history.jsonl "
                              "and/or BENCH_*.json) as an HTML "
                              "perf-trajectory page")
    op.add_argument("inputs", nargs="+", metavar="FILE",
                    help=".jsonl history files (one run per line) or "
                         "single-run .json baselines, oldest first")
    op.add_argument("--output", help="write the page to a file")

    return parser


def cmd_compare(args) -> int:
    from repro.analysis import compare_versions

    diff = compare_versions(args.vendor, args.old_version, args.new_version,
                            args.language)
    print(diff.summary())
    if diff.fixed:
        print("fixed:")
        for feature in diff.fixed:
            print(f"  + {feature}")
    if diff.regressed:
        print("regressed:")
        for feature in diff.regressed:
            print(f"  - {feature}")
    if diff.still_failing:
        print("still failing:")
        for feature in diff.still_failing:
            print(f"  ! {feature}")
    return 0 if not diff.regressed else 2


_COMMANDS = {
    "list-features": cmd_list_features,
    "list-vendors": cmd_list_vendors,
    "generate": cmd_generate,
    "lint": cmd_lint,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "table1": cmd_table1,
    "titan": cmd_titan,
    "trace": cmd_trace,
    "journal": cmd_journal,
    "obs": cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and args.vendor and not args.version:
        parser.error("--vendor requires --version")
    if args.command == "validate" and args.vendor and not args.language:
        parser.error("--vendor requires --language (vendor bugs are "
                     "language-specific)")
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like a good CLI citizen
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
