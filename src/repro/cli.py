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
  ``validate/titan --trace FILE.jsonl [--profile]``;
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
from typing import List, Optional

from repro.analysis import table1_counts, vendor_pass_rates
from repro.compiler import BACKENDS as INTERPRETER_BACKENDS
from repro.compiler import DEFAULT_BACKEND
from repro.compiler import Compiler, CompilerBehavior
from repro.compiler.vendors import VENDORS, vendor_version
from repro.faults import FaultPlan, InjectedJournalTear
from repro.harness import (
    CampaignInterrupted,
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
    request_drain,
    reset_drain,
)
from repro.ioutil import atomic_write_text
from repro.sched import SCHEDULERS as _SCHEDULERS
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
    """Build a Tracer when ``--trace``/``--profile`` ask for one."""
    if not (args.trace or args.profile):
        return None
    from repro.obs import Tracer

    return Tracer(profile=args.profile)


def _finish_trace(args, tracer, **meta) -> None:
    if tracer is None or not args.trace:
        return
    from repro.obs import write_trace

    write_trace(args.trace, tracer,
                meta=dict(meta, profile=args.profile))
    print(f"wrote {args.trace}")


def _open_journal(args, campaign: dict, faults, tracer):
    """Create or resume the campaign journal per ``--journal``/``--resume``.

    Returns None when neither flag was given.  Journal load/mismatch
    problems surface as :class:`~repro.journal.JournalError` — the caller
    maps them to exit code 1.
    """
    from repro.journal import JournalWriter

    if getattr(args, "scheduler", "local") == "shards":
        # shard campaigns journal into per-shard WAL segments
        from repro.sched import ShardedJournal

        if args.resume:
            return ShardedJournal.resume(args.resume, campaign,
                                         tracer=tracer, faults=faults)
        if args.journal:
            return ShardedJournal.create(args.journal, campaign,
                                         shards=args.workers,
                                         tracer=tracer, faults=faults)
        return None
    if args.resume:
        return JournalWriter.resume(args.resume, campaign,
                                    tracer=tracer, faults=faults)
    if args.journal:
        return JournalWriter.create(args.journal, campaign,
                                    tracer=tracer, faults=faults)
    return None


def _install_drain_handlers() -> list:
    """Route SIGINT/SIGTERM to a graceful drain while a journal is active.

    The engines finish in-flight units (each journaled on completion) and
    raise :class:`CampaignInterrupted`; the command then exits 3 with a
    resume hint instead of dying mid-write.  Returns the displaced
    handlers for :func:`_restore_handlers`; empty when not in the main
    thread (signals cannot be installed there — the drain still works via
    injected faults, just not via Ctrl-C).
    """
    reset_drain()
    displaced = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            displaced.append((signum, signal.signal(signum, request_drain)))
        except ValueError:  # not the main thread (e.g. tests)
            break
    return displaced


def _restore_handlers(displaced: list) -> None:
    for signum, handler in displaced:
        try:
            signal.signal(signum, handler)
        except ValueError:
            pass


def _resumable_notice(journal, command: str) -> int:
    """Close the journal and tell the user how to pick the campaign up."""
    journal.close()
    done = len(journal.records)
    print(f"interrupted: {done} unit(s) journaled; resume with "
          f"`repro {command} --resume {journal.path}`", file=sys.stderr)
    return 3


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
        backend=getattr(args, "backend", DEFAULT_BACKEND),
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
    from repro.obs.metrics import MetricsRegistry
    from repro.staticcheck import (
        SHIPPED_BASELINE,
        LintCache,
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

    cache = None
    metrics = MetricsRegistry()
    if args.cache:
        cache = LintCache(args.cache, metrics=metrics)

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
        reports.append(lint_suite(suite, templates, cache=cache,
                                  baseline=baseline))
    merged = merge_reports(reports)
    if cache is not None:
        cache.save()
        print(cache.stats(), file=sys.stderr)
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
    journal = None
    displaced: list = []
    if args.journal or args.resume:
        from repro.journal import JournalError, validate_campaign_key

        campaign = validate_campaign_key(args.suite, behavior, config)
        try:
            journal = _open_journal(args, campaign, runner.faults, tracer)
        except JournalError as err:
            print(f"journal error: {err}", file=sys.stderr)
            return 1
        displaced = _install_drain_handlers()
    engine = None
    if args.scheduler != "local":
        # a sched backend replaces the policy-selected engine; everything
        # else (journal, live, selection, report) is shared via run_suite
        from repro.sched import create_backend

        engine = create_backend(args.scheduler,
                                workers=args.workers).engine(config)
    try:
        report = runner.run_suite(suite, journal=journal, engine=engine)
    except EmptySelectionError as err:
        # an empty selection used to produce an empty report and exit 0 —
        # a vacuous pass that silently blessed typo'd --features filters
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CampaignInterrupted, InjectedJournalTear):
        return _resumable_notice(journal, "validate")
    finally:
        _restore_handlers(displaced)
        if journal is not None:
            journal.close()
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
    return 0 if not report.failures() else 2


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
    journal = None
    displaced: list = []
    if args.journal or args.resume:
        from repro.faults import FaultInjector, NULL_INJECTOR
        from repro.journal import JournalError, titan_campaign_key

        campaign = titan_campaign_key(
            config, nodes=args.nodes, degraded=args.degraded,
            seed=args.seed, sample=args.sample, recheck=args.recheck)
        plan = args.inject_faults
        faults = (FaultInjector(plan) if plan is not None and plan.active
                  else NULL_INJECTOR)
        try:
            journal = _open_journal(args, campaign, faults, tracer)
        except JournalError as err:
            print(f"journal error: {err}", file=sys.stderr)
            return 1
        displaced = _install_drain_handlers()
    harness = TitanHarness(
        cluster, openacc10_suite(),
        config=config,
        feature_prefixes=["parallel", "update"],
        tracer=tracer,
        recheck=args.recheck,
        journal=journal,
    )
    try:
        checks = harness.sweep(sample_size=args.sample, seed=args.seed)
    except (CampaignInterrupted, InjectedJournalTear):
        return _resumable_notice(journal, "titan")
    finally:
        _restore_handlers(displaced)
        if journal is not None:
            journal.close()
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
                  degraded=args.degraded, sample=args.sample, seed=args.seed)
    return 0


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

    Only complete (newline-terminated) lines are consumed, so a record
    the writer is mid-way through never prints garbled; unparsable
    complete lines are skipped with a warning.  A file that *shrinks*
    (rotated or truncated by the writer) is picked up again from the
    start instead of silently never matching another record.  Exits when
    the final snapshot arrives, on Ctrl-C, or — with ``--idle-timeout-s``
    — with exit 1 after that many seconds without new data (a follower
    of a dead campaign must not hang forever in CI).
    """
    import json as _json
    import os as _os
    import time as _time

    from repro.obs.live import render_record_line

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
            while "\n" in buffered:
                line, buffered = buffered.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _json.loads(line)
                except ValueError:
                    print("warning: skipped malformed stream line",
                          file=sys.stderr)
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("type") == "meta":
                    continue
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
    if args.journal_command == "fsck":
        return _journal_fsck(args)
    from repro.journal import JournalError, read_journal

    try:
        loaded = read_journal(args.file)
    except JournalError as err:
        print(f"journal error: {err}", file=sys.stderr)
        return 1
    campaign = loaded.campaign
    print(f"journal    {loaded.path}")
    print(f"format     {campaign.get('format', '?')}")
    print(f"command    {campaign.get('command', '?')}")
    print(f"code       {campaign.get('code_version', '?')}")
    for key in ("suite", "compiler", "nodes", "sample", "seed"):
        if key in campaign:
            print(f"{key:10s} {campaign[key]}")
    print(f"units      {len(loaded.records)} journaled")
    print(f"resumes    {loaded.resumes} (generation {loaded.generation})")
    if loaded.torn_bytes:
        print(f"torn tail  {loaded.torn_bytes} byte(s) — will be truncated "
              "on resume")
    else:
        print("torn tail  none (clean shutdown)")
    if args.units:
        for unit in sorted(loaded.records):
            print(f"  {unit}")
    return 0


def _journal_fsck(args) -> int:
    """Crash-consistency check: exit 0 when every file is clean or only
    torn at the tail (a resume salvages it), 1 on corruption or a
    campaign-key mismatch between segments."""
    from repro.journal import fsck_journal, render_fsck

    report = fsck_journal(args.file)
    print(render_fsck(report))
    if args.units:
        for unit in sorted(report.salvageable_units()):
            print(f"  {unit}")
    return 0 if report.resumable else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.server import CampaignServer

    server = CampaignServer(args.root, host=args.host, port=args.port,
                            max_concurrent=args.max_concurrent,
                            watchdog_s=args.watchdog_s,
                            restart_budget=args.restart_budget,
                            tail_buffer=args.tail_buffer,
                            fault_plan=args.inject_faults)

    async def _main() -> None:
        await server.start()
        # the bound address on stdout, flushed, so scripts starting the
        # server in the background (CI smoke) can pick the port up
        print(f"repro server listening on {server.host}:{server.port} "
              f"(root {server.root})", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                break
        await stop.wait()
        print("draining: unfinished campaigns re-queued for the next "
              "serve over this directory", file=sys.stderr)
        await server.shutdown()

    asyncio.run(_main())
    return 0


def _server_client(args):
    from repro.server import CampaignClient

    return CampaignClient.at(args.server)


def cmd_submit(args) -> int:
    from repro.server import ServerError

    client = _server_client(args)
    try:
        if args.resume:
            response = client.resubmit(args.resume)
        else:
            config: dict = {
                "iterations": args.iterations,
                "run_cross": not args.no_cross,
            }
            if args.language:
                config["languages"] = [args.language]
            if args.features:
                config["feature_prefixes"] = args.features
            if args.retries:
                config["retries"] = args.retries
            if args.inject_faults is not None:
                # travels as the canonical spec string; the server parses
                # it back into the campaign's FaultPlan
                config["fault_plan"] = args.inject_faults.describe()
            response = client.submit({
                "suite": args.suite,
                "vendor": args.vendor,
                "version": args.version,
                "scheduler": args.scheduler,
                "workers": args.workers,
                "format": args.format,
                "config": config,
            })
    except (ServerError, OSError) as err:
        print(f"submit failed: {err}", file=sys.stderr)
        return 1
    cid = response["id"]
    print(f"submitted {cid}")
    if not args.wait:
        return 0
    try:
        info = client.wait(cid, timeout_s=args.wait_timeout_s)
    except (ServerError, OSError, TimeoutError) as err:
        print(f"wait failed: {err}", file=sys.stderr)
        return 1
    print(f"campaign {cid} {info['state']}")
    if info.get("report_path"):
        print(f"report: {info['report_path']}")
    if info.get("error"):
        print(f"error: {info['error']}", file=sys.stderr)
    if info.get("resume"):
        print(f"resume with: {info['resume']}", file=sys.stderr)
    code = info.get("exit")
    return code if code is not None else 1


def cmd_status(args) -> int:
    from repro.server import ServerError

    client = _server_client(args)
    try:
        response = client.status(args.id)
    except (ServerError, OSError) as err:
        print(f"status failed: {err}", file=sys.stderr)
        return 1
    campaigns = [response["campaign"]] if args.id else response["campaigns"]
    if not campaigns:
        print("no campaigns")
        return 0
    for info in campaigns:
        line = (f"{info['id']}  {info['state']:9s} {info['suite']:12s} "
                f"{info['compiler']:14s} {info['scheduler']}")
        progress = info.get("progress")
        if progress and progress.get("units_done") is not None:
            line += (f"  {progress['units_done']} unit(s), "
                     f"{progress.get('passed', 0)} pass / "
                     f"{progress.get('failed', 0)} fail")
        if info.get("report_path"):
            line += f"  report {info['report_path']}"
        if info.get("error"):
            line += f"  error {info['error']}"
        print(line)
        if info.get("resume"):
            print(f"  resume with: {info['resume']}")
    return 0


def cmd_cancel(args) -> int:
    from repro.server import ServerError

    client = _server_client(args)
    try:
        response = client.cancel(args.id)
    except (ServerError, OSError) as err:
        print(f"cancel failed: {err}", file=sys.stderr)
        return 1
    print(f"cancel requested for {response['id']}: in-flight units finish "
          "and are journaled, remaining units are not started")
    print(f"resume with: {response['resume']}")
    return 0


def cmd_tail(args) -> int:
    from repro.obs.live import render_record_line
    from repro.server import ServerError

    client = _server_client(args)
    try:
        for payload in client.tail(args.id, timeout_s=args.timeout_s):
            if payload.get("end"):
                state = payload["state"]
                print(f"campaign {args.id} {state}", file=sys.stderr)
                dropped = ((payload.get("dropped") or 0)
                           + (payload.get("replay_dropped") or 0))
                if dropped:
                    print(f"note: {dropped} record(s) dropped (slow "
                          "subscriber / late tail); the full stream is in "
                          "the server's <id>.ndjson", file=sys.stderr)
                if payload.get("resume"):
                    print(f"resume with: {payload['resume']}",
                          file=sys.stderr)
                code = payload.get("exit")
                return code if code is not None else 1
            record = payload.get("record")
            if isinstance(record, dict):
                print(render_record_line(record), flush=True)
    except (ServerError, OSError) as err:
        print(f"tail failed: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    return 1


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
    p.add_argument("--cache", metavar="PATH",
                   help="incremental lint cache file (created on first run)")
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
                   help="execution engine (identical reports either way)")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="pool size for --policy thread/process (and the "
                        "shard/pod count for --scheduler shards/simk8s)")
    p.add_argument("--scheduler", default="local", choices=_SCHEDULERS,
                   help="campaign scheduler backend: 'local' uses --policy, "
                        "'shards' runs work-stealing shards with a "
                        "segmented journal, 'simk8s' drives the simulated "
                        "k8s control plane (identical reports either way)")
    p.add_argument("--metrics", action="store_true",
                   help="run metrics (wall/compile/execute time, compile-"
                        "cache hit rate, worker utilization); written next "
                        "to --output as FILE.metrics.txt/.csv, else printed")
    p.add_argument("--no-compile-cache", action="store_true",
                   help="disable compile memoisation")
    p.add_argument("--backend", default=DEFAULT_BACKEND,
                   choices=list(INTERPRETER_BACKENDS),
                   help="interpreter backend: compiled closures (the "
                        "default) or the reference tree walker (identical "
                        "reports either way)")
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
                        "iteration, worker, stall, journal, shard_death, "
                        "pod, conn, frame, slow_client, segment; modifiers: "
                        "seed, stall-s, max-fires, persistent)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a span/event/metrics trace to FILE (JSONL)")
    p.add_argument("--profile", action="store_true",
                   help="add accsim profiling (iteration steps, bytes "
                        "moved, async-queue waits) to the trace")
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
                   help="record a span/event/metrics trace to FILE (JSONL)")
    p.add_argument("--profile", action="store_true",
                   help="add accsim profiling to the trace")
    _add_journal_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("serve", help="run the campaign server (concurrent "
                                     "submissions, journaled + resumable)")
    p.add_argument("root", help="server state directory: the server "
                                "journal, per-campaign unit journals, "
                                "NDJSON streams and reports live here")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7781,
                   help="TCP port (default 7781; 0 picks a free port, "
                        "printed on startup)")
    p.add_argument("--max-concurrent", type=_positive_int, default=2,
                   metavar="N",
                   help="campaigns run at once; further submissions queue")
    p.add_argument("--watchdog-s", type=_positive_float, default=None,
                   metavar="SECONDS", dest="watchdog_s",
                   help="per-campaign liveness watchdog: a running campaign "
                        "emitting no live record for this long is cancelled "
                        "and re-queued (journaled units replay); off by "
                        "default")
    p.add_argument("--restart-budget", type=_nonnegative_int, default=2,
                   metavar="N", dest="restart_budget",
                   help="watchdog restarts tolerated per campaign before it "
                        "is marked failed with a resume hint (default 2)")
    p.add_argument("--tail-buffer", type=_positive_int, default=512,
                   metavar="N", dest="tail_buffer",
                   help="per-subscriber tail queue capacity; a slow client "
                        "loses oldest records past this and sees the drop "
                        "count on its end line (default 512)")
    p.add_argument("--inject-faults", type=_fault_plan, default=None,
                   metavar="SPEC", dest="inject_faults",
                   help="arm the server-side chaos sites (conn, frame, "
                        "slow_client) against the wire protocol, e.g. "
                        "'conn=1.0,frame=1.0,seed=9' — the chaos-smoke "
                        "harness; campaign-side sites travel in "
                        "'repro submit --inject-faults' instead")

    def _server_flag(p) -> None:
        p.add_argument("--server", default="127.0.0.1:7781",
                       metavar="HOST:PORT",
                       help="campaign server address "
                            "(default 127.0.0.1:7781)")

    p = sub.add_parser("submit", help="submit a campaign to a running "
                                      "server")
    _server_flag(p)
    p.add_argument("--resume", metavar="ID",
                   help="re-enqueue a cancelled/failed campaign by id "
                        "instead of submitting a new spec (its unit "
                        "journal replays completed work)")
    p.add_argument("--suite", default="1.0", choices=["1.0", "combinations"])
    p.add_argument("--vendor", choices=list(VENDORS))
    p.add_argument("--version", help="vendor version (with --vendor)")
    p.add_argument("--language", choices=["c", "fortran"])
    p.add_argument("--iterations", type=_positive_int, default=3, metavar="M")
    p.add_argument("--no-cross", action="store_true")
    p.add_argument("--features", nargs="*", metavar="PREFIX",
                   help="feature prefixes to select")
    p.add_argument("--format", default="text",
                   choices=["text", "html", "csv", "bugs"])
    p.add_argument("--scheduler", default="local", choices=_SCHEDULERS,
                   help="sched backend the server runs the campaign on")
    p.add_argument("--workers", type=_positive_int, default=None, metavar="N",
                   help="pool/shard/pod count for the chosen scheduler")
    p.add_argument("--retries", type=_nonnegative_int, default=0,
                   metavar="R",
                   help="per-unit retry budget inside the campaign (lets "
                        "transient injected faults heal in place)")
    p.add_argument("--inject-faults", type=_fault_plan, default=None,
                   metavar="SPEC", dest="inject_faults",
                   help="arm the campaign-side fault sites inside the "
                        "server-hosted run (compile, iteration, worker, "
                        "stall, journal, shard_death, pod, segment), e.g. "
                        "'shard_death=1.0,segment=1.0,seed=29'")
    p.add_argument("--wait", action="store_true",
                   help="block until the campaign finishes and exit with "
                        "its validate-compatible exit code")
    p.add_argument("--wait-timeout-s", type=_positive_float, default=3600.0,
                   metavar="SECONDS", dest="wait_timeout_s")

    p = sub.add_parser("status", help="list a server's campaigns (or one "
                                      "campaign's state)")
    p.add_argument("id", nargs="?", help="campaign id (all when omitted)")
    _server_flag(p)

    p = sub.add_parser("cancel", help="cancel one running campaign "
                                      "(neighbouring campaigns are "
                                      "untouched)")
    p.add_argument("id")
    _server_flag(p)

    p = sub.add_parser("tail", help="replay + follow a campaign's live "
                                    "records from the server")
    p.add_argument("id")
    _server_flag(p)
    p.add_argument("--timeout-s", type=_positive_float, default=3600.0,
                   metavar="SECONDS", dest="timeout_s",
                   help="give up if the stream stalls this long")

    p = sub.add_parser("journal", help="inspect a campaign journal")
    jsub = p.add_subparsers(dest="journal_command", required=True)
    ji = jsub.add_parser("inspect",
                         help="header, journaled units, resume generations "
                              "and torn-tail status of a journal file")
    ji.add_argument("file")
    ji.add_argument("--units", action="store_true",
                    help="also list the journaled unit keys")
    jf = jsub.add_parser("fsck",
                         help="crash-consistency check of a base journal "
                              "plus all <base>.shardK segments: checksums, "
                              "torn tails, cross-segment campaign keys, and "
                              "what a resume would salvage (exit 1 on "
                              "corruption)")
    jf.add_argument("file", help="journal path (the --journal value; shard "
                                 "segments are found automatically)")
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
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "cancel": cmd_cancel,
    "tail": cmd_tail,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and args.vendor and not args.version:
        parser.error("--vendor requires --version")
    if args.command == "validate" and args.vendor and not args.language:
        parser.error("--vendor requires --language (vendor bugs are "
                     "language-specific)")
    if args.command == "submit" and not args.resume and args.vendor:
        if not args.version:
            parser.error("--vendor requires --version")
        if not args.language:
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
