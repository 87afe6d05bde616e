"""Execution engine: the one loop that runs a campaign's work units.

The workload — compile, run M times, classify, next template — is
embarrassingly parallel.  A campaign (a ``validate`` run, a Fig. 8 sweep,
a version comparison, a Titan node check) is one list of units, each a
``(cell, template)`` pair whose cell names the runner — one behaviour and
its config — that runs it.  :func:`run_units` runs the whole list, once
per campaign, under the two policies of the first cell's
``HarnessConfig.policy``/``workers``, the paper's "runs on random nodes /
tracks large sweeps" scale-out shape:

* ``serial`` — an in-order loop in this process (the default);
* ``process`` — one process pool for the campaign: every cell's
  ``(behavior, config)`` is shipped to each worker once via the pool
  initializer, then work units carry only ``(index, cell, template,
  attempt)`` and ship a finished :class:`TestResult` back.  A worker's
  runners share one compile cache, so its parse tier and execute memo
  serve every cell.  Units the pools could not finish run through the
  serial loop.

Determinism guarantee: results are reassembled in unit order, and every
per-iteration RNG seed derives from ``HarnessConfig`` alone (``rng_seed +
k``), never from scheduling — so serial and parallel runs of the same
configuration render byte-identical text/CSV/HTML reports.

Every cell's report also gets a :class:`RunMetrics`:
per-phase wall time, compile-cache hit rate, per-worker busy time and
failure-kind counters — the observability side of the scale-out work.

Resilience: every unit runs through :func:`run_unit_resilient` — bounded
retry with exponential backoff for harness faults (injected or real),
degrading to a HARNESS_ERROR-marked result once the budget is exhausted —
and the pool survives worker death by respawning and re-running only the
lost units (in-process after :data:`MAX_POOL_DEATHS` broken pools).  A
healed run is byte-identical to a fault-free run of the same
configuration, because retries replay the same config-derived seeds.

Durability: :func:`run_units` reports each finished unit through its
completion callback, invoked from the coordinating thread in completion
order — the hook ``run_campaign`` uses to append fsync'd journal records
the moment results exist.

Cancellation: every campaign owns a :class:`CancelToken`.  Cancelling it
makes :func:`run_units` finish the in-flight units and raise
:class:`CampaignInterrupted` instead of starting new ones, so an
interrupted campaign exits with everything completed so far journaled.
The token travels as an argument: ``run_units`` hands it to the retry
layer of every unit it runs in this process, and no runner holds one.
Tokens are per-campaign state, so one campaign's cancel never drains a
concurrent neighbour and never poisons later runs in the same process;
the CLI's SIGINT/SIGTERM handler cancels the token of the one command it
runs.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.harness.config import HarnessConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler import CompilerBehavior
    from repro.harness.runner import (PhaseResult, SuiteRunReport, TestResult,
                                      ValidationRunner)
    from repro.templates import TestTemplate

#: the names of the process-pool stack (``concurrent.futures`` and with
#: it ``multiprocessing``, ``pickle``, ``socket``, ``logging``), imported
#: by :func:`__getattr__` the first time a pool is needed, so a serial
#: campaign never loads them
_POOL_NAMES = frozenset({"BrokenExecutor", "ProcessPoolExecutor",
                         "as_completed"})


def __getattr__(name: str):
    """Import the pool stack on first use of one of its names.

    The name then becomes a plain module attribute, which a test may
    patch (``engine.ProcessPoolExecutor``) like any other.
    """
    if name not in _POOL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import concurrent.futures

    value = globals()[name] = getattr(concurrent.futures, name)
    return value


#: one campaign work unit: (index of its cell, template)
Unit = Tuple[int, "TestTemplate"]

#: ordered (TestResult, worker id) pairs, one per unit
EngineOutcomes = List[Tuple["TestResult", str]]

#: per-unit completion callback: (index into run_units' unit list,
#: finished result) — invoked from the *coordinating* thread, in
#: completion order, exactly once per unit.  This is the journal's hook:
#: appends happen the moment a result exists.
UnitCallback = Callable[[int, "TestResult"], None]

#: broken process pools tolerated before run_units falls back to running
#: the remaining units in the parent
MAX_POOL_DEATHS = 3


# ---------------------------------------------------------------------------
# cancellation (graceful drain: finish in-flight units, then stop)
# ---------------------------------------------------------------------------


class CampaignInterrupted(RuntimeError):
    """A graceful drain was requested (cancel token / SIGINT/SIGTERM) and
    the engine stopped dispatching work.  Completed units were already
    handed to the completion callback (journaled); the campaign is
    resumable."""


class CancelToken:
    """A per-campaign cancellation handle.

    ``run_campaign`` checks the token between work units:
    cancelling makes :func:`run_units` finish the in-flight units, skip the
    rest, and raise :class:`CampaignInterrupted`.  Each campaign gets its
    own token (``run_campaign(cancel=...)``, defaulting to a fresh one), so
    cancelling one campaign never touches a concurrent neighbour and a
    finished/cancelled campaign never poisons the next campaign in
    the same process — the two historical bugs of the process-global
    ``_DRAIN`` event this class replaced.

    Thread-safe: ``cancel()`` may be called from any thread or from a
    signal handler (it only sets a :class:`threading.Event`).
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request a graceful drain of the campaign holding this token."""
        if reason is not None and self._reason is None:
            self._reason = reason
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`CampaignInterrupted` if cancelled."""
        if self._event.is_set():
            raise CampaignInterrupted(
                self._reason
                or "graceful drain requested: in-flight units finished, "
                   "remaining units not started"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled() else "armed"
        return f"<CancelToken {state} at {id(self):#x}>"


@dataclass
class RunMetrics:
    """Observability counters for one cell of a campaign."""

    policy: str
    workers: int
    #: the cell's share of the campaign's wall-clock time, in proportion
    #: to its units' busy time; the cells' shares sum to the campaign's
    #: wall time, which a one-cell campaign (``run_suite``) reports whole
    wall_s: float = 0.0
    #: compile-phase time summed over all phases (cache lookups included)
    compile_s: float = 0.0
    #: execution time summed over all phases (all iterations)
    execute_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    templates: int = 0
    #: verdict iterations (functional + cross): M per phase that ran
    iterations_run: int = 0
    #: programs actually run; below iterations_run by the iterations the
    #: execute memo served (PhaseResult.executed)
    programs_executed: int = 0
    #: phases whose iteration 0 the execute memo served
    #: (PhaseResult.memo_hit): an earlier phase's run repeated under the
    #: same behaviour answers
    memo_hits: int = 0
    #: busy seconds per worker ("main", or "pid-<pid>" for a pool worker)
    worker_busy_s: Dict[str, float] = field(default_factory=dict)
    #: failure-kind value -> count, e.g. {"compile_error": 3}
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.worker_busy_s.values())

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent on work units."""
        if self.wall_s <= 0.0 or self.workers < 1:
            return 0.0
        return self.busy_s / (self.wall_s * self.workers)


# ---------------------------------------------------------------------------
# the retry layer: every policy funnels work units through here
# ---------------------------------------------------------------------------


def harness_error_result(template: "TestTemplate",
                         error: Optional[BaseException]) -> "TestResult":
    """A TestResult marking a unit the *harness* failed to run.

    The suite keeps going: one HARNESS_ERROR row in the report instead of
    an aborted process, so a large campaign's bookkeeping survives
    infrastructure faults and triage can separate them from compiler bugs.
    """
    from repro.harness.runner import PhaseResult, TestResult

    detail = repr(error) if error is not None else "unknown harness fault"
    phase = PhaseResult(mode="functional", source="",
                        harness_error=f"harness gave up on this unit: {detail}")
    return TestResult(template=template, functional=phase)


def run_unit_resilient(runner: "ValidationRunner", template: "TestTemplate",
                       base_attempt: int = 0,
                       cancel: Optional[CancelToken] = None) -> "TestResult":
    """Run one work unit under the config's bounded retry budget.

    Any exception escaping ``run_template`` is a *harness* fault (test
    verdicts — wrong values, crashes, step-budget timeouts — are values,
    not exceptions): injected faults, internal compiler crashes, template
    wall-clock timeouts, or genuine harness bugs.  Each is retried with
    exponential backoff (``retry_backoff_s * 2**n`` via the runner's
    injectable sleeper) and, once the budget is exhausted, degraded to a
    HARNESS_ERROR-marked result.  Never raises — with one exception: when
    ``cancel``, the campaign's :class:`CancelToken`, is cancelled between
    retry attempts, the unit gives up immediately with
    :class:`CampaignInterrupted` so a drain is not held up by a retry
    backoff ladder.  A pool worker passes none: the coordinating parent
    drains the pool.

    ``base_attempt`` threads the engine-level attempt number (pool
    respawns) into the fault injector so transient injected faults do not
    re-fire on re-runs.
    """
    config = runner.config
    tracer = runner.tracer
    unit_key = f"{template.feature}:{template.language}"
    error: Optional[BaseException] = None
    for n in range(config.retries + 1):
        attempt = base_attempt + n
        try:
            with runner.faults.attempt(unit_key, attempt):
                return runner.run_template(template)
        except Exception as err:
            # kept without its traceback, whose frames would reach this
            # one, which holds ``error``: a reference cycle
            error = err.with_traceback(None)
            if n >= config.retries:
                break
            if cancel is not None:
                # a draining campaign must not sit out a backoff ladder;
                # the unit is simply not journaled and re-runs on resume
                cancel.check()
            if tracer.enabled:
                tracer.event("engine.retry", template=unit_key,
                             attempt=attempt, error=repr(err))
            backoff = config.retry_backoff_s * (2 ** n)
            if backoff > 0:
                runner.sleeper(backoff)
    if tracer.enabled:
        tracer.event("engine.harness_error", template=unit_key,
                     error=repr(error))
    return harness_error_result(template, error)


# ---------------------------------------------------------------------------
# the unit loop: every policy runs and finishes its units here
# ---------------------------------------------------------------------------


# -- process-pool plumbing: one runner per cell per worker, built once ------

#: the worker's runner of each campaign cell, in cell order
_WORKER_RUNNERS: List["ValidationRunner"] = []


#: how often a pool worker checks that its parent is still alive
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _process_worker_init(cells: Sequence[Tuple["CompilerBehavior",
                                               HarnessConfig]],
                         tracer_cls: Optional[type] = None) -> None:
    """Pool initializer: build this worker's runner of every cell.

    The runners share one compile cache, so the worker's parse tier and
    execute memo serve the whole campaign.  ``tracer_cls`` is None when
    the parent reports no events; otherwise the worker gets one tracer of
    that class (a :class:`repro.obs.Tracer` or a span-free
    :class:`repro.obs.EventTracer`), drained back to the parent after
    every work unit.
    """
    global _WORKER_RUNNERS
    import signal

    from repro.harness.runner import ValidationRunner

    # the parent coordinates graceful drains (and Ctrl-C reaches the whole
    # foreground process group): workers ignore SIGINT so an interactive
    # interrupt cannot masquerade as a BrokenProcessPool worker death
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # a SIGKILLed parent cannot shut the pool down, and the workers would
    # block on its call queue forever (every worker holds the queue's
    # write end, so no EOF ever arrives): exit once the parent is gone
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="orphan-watch", daemon=True).start()
    from repro.obs import NULL_TRACER

    tracer = tracer_cls() if tracer_cls is not None else NULL_TRACER
    (behavior, config), *rest = cells
    first = ValidationRunner(behavior, config, tracer=tracer)
    _WORKER_RUNNERS = [first] + [
        ValidationRunner(b, c, cache=first.cache, tracer=tracer)
        for b, c in rest]


def _process_run_unit(payload: Tuple[int, int, "TestTemplate", int]):
    index, cell, template, attempt = payload
    runner = _WORKER_RUNNERS[cell]
    unit_key = f"{template.feature}:{template.language}"
    if runner.faults.worker_site(unit_key, attempt):
        # injected worker death: hard-exit so the parent sees exactly what
        # a crashed node/process looks like (BrokenProcessPool)
        os._exit(78)
    result = run_unit_resilient(runner, template, base_attempt=attempt)
    tracer = runner.tracer
    trace_payload = tracer.drain() if tracer.enabled else None
    return index, result, f"pid-{os.getpid()}", trace_payload


def _run_on_pools(units: Sequence[Unit],
                  runners: Sequence["ValidationRunner"],
                  on_complete: UnitCallback,
                  cancel: CancelToken,
                  pending: Dict[int, int],
                  done: Dict[int, Tuple["TestResult", str, Optional[dict]]],
                  ) -> None:
    """Run the ``pending`` units on process pools of ``config.workers``.

    One pool serves every cell: its initializer ships each cell's
    ``(behavior, config)`` once, and work units pickle ``(index, cell,
    template, attempt)`` only and ship back a finished result plus (when
    tracing) the unit's trace payload.  A broken pool is respawned and
    only the lost units are re-submitted, with a bumped attempt number so
    injected transient deaths do not recur.  After
    :data:`MAX_POOL_DEATHS` broken pools this gives up on process
    isolation and leaves the rest in ``pending`` for the caller's
    in-process loop: degraded throughput, never a crashed campaign.
    """
    cancel.check()
    engine = sys.modules[__name__]
    # read through the module, so a patched attribute is the one used
    ProcessPoolExecutor = engine.ProcessPoolExecutor
    BrokenExecutor = engine.BrokenExecutor
    as_completed = engine.as_completed
    tracer = runners[0].tracer
    # each worker records into a fresh tracer of the parent's kind
    initargs = ([(r.behavior, r.config) for r in runners],
                type(tracer) if tracer.enabled else None)
    pool_deaths = 0
    while pending and pool_deaths <= MAX_POOL_DEATHS:
        broken = False
        with ProcessPoolExecutor(
            max_workers=runners[0].config.workers,
            initializer=_process_worker_init,
            initargs=initargs,
        ) as pool:
            futures = {}
            try:
                for i, attempt in sorted(pending.items()):
                    cell, template = units[i]
                    futures[pool.submit(
                        _process_run_unit, (i, cell, template, attempt)
                    )] = i
            except BrokenExecutor:
                # a worker died before every unit was queued; the
                # unqueued units stay pending for the next pool
                broken = True
            try:
                for future in as_completed(futures):
                    try:
                        index, result, worker, trace_payload = future.result()
                    except BrokenExecutor:
                        # a worker died; this unit (and every other unit
                        # still in flight or queued) was lost with the pool
                        broken = True
                        continue
                    except Exception as err:  # unpicklable result etc.
                        index = futures[future]
                        result, worker, trace_payload = (
                            harness_error_result(units[index][1], err),
                            "pool", None,
                        )
                    done[index] = (result, worker, trace_payload)
                    pending.pop(index, None)
                    if trace_payload is not None:
                        # the unit's events reach the subscribers (the live
                        # stream) now; the trace adopts the payload in
                        # unit order once every unit is done
                        tracer.relay(trace_payload)
                    # results ship back to this (parent) process as they
                    # finish; the journal append happens here, before any
                    # more completions are awaited
                    on_complete(index, result)
                    cancel.check()
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
        if broken:
            pool_deaths += 1
            if tracer.enabled:
                tracer.event("engine.worker_lost",
                             lost_units=len(pending),
                             pool_deaths=pool_deaths)
            for i in pending:
                pending[i] += 1
    if pending and tracer.enabled:
        tracer.event("engine.serial_fallback", units=len(pending),
                     pool_deaths=pool_deaths)


def run_units(units: Sequence[Unit],
              runners: Sequence["ValidationRunner"],
              on_complete: UnitCallback,
              cancel: CancelToken) -> EngineOutcomes:
    """Run every unit of a campaign under its first runner's policy.

    ``units`` are ``(cell, template)`` pairs; ``runners[cell]`` runs the
    unit.  The first runner's config picks the policy and pool size, and
    its tracer (which every runner shares) reports the events.  The
    ``process`` policy first runs the units on a pool (see
    :func:`_run_on_pools`); whatever the pools leave undone, and every
    unit of a ``serial`` run, runs in this process in unit order.
    ``on_complete(index, result)`` is called from this thread, in
    completion order, exactly once per unit.  Worker traces are adopted
    in unit order once every unit has finished, so event sequencing is
    deterministic; run_campaign re-parents the unit roots afterwards.
    """
    #: unit index -> engine-level attempt number
    pending: Dict[int, int] = {i: 0 for i in range(len(units))}
    #: unit index -> (result, worker id, worker trace payload or None)
    done: Dict[int, Tuple["TestResult", str, Optional[dict]]] = {}
    worker = "main"
    if runners[0].config.policy == "process" and pending:
        _run_on_pools(units, runners, on_complete, cancel, pending, done)
        worker = "fallback"
    for i, attempt in sorted(pending.items()):
        cancel.check()
        cell, template = units[i]
        result = run_unit_resilient(runners[cell], template,
                                    base_attempt=attempt, cancel=cancel)
        done[i] = (result, worker, None)
        on_complete(i, result)
    tracer = runners[0].tracer
    outcomes: EngineOutcomes = []
    for i in range(len(units)):
        result, worker, trace_payload = done[i]
        if trace_payload is not None:
            tracer.adopt(trace_payload, worker=worker)
        outcomes.append((result, worker))
    return outcomes


# ---------------------------------------------------------------------------
# metrics assembly
# ---------------------------------------------------------------------------


def phase_counts(phases: Iterable[Optional["PhaseResult"]]) -> dict:
    """The iteration, memo, compile-cache and timing counts of ``phases``.

    The one phase-accounting rule: a phase that never reached the
    compiler (harness or static error) counts nothing.  Each
    ``unit.finished`` event carries these counts for its unit and
    :func:`build_metrics` sums them over the run, so a tally folded from
    the stream (:mod:`repro.obs.live`) reconciles with the report's
    :class:`RunMetrics` without slack.
    """
    counts = {"iterations": 0, "executed": 0, "memo_hits": 0,
              "compile_cache_hits": 0, "compile_cache_misses": 0,
              "compile_s": 0.0, "run_s": 0.0}
    for phase in phases:
        if (phase is None or phase.harness_error is not None
                or phase.static_error is not None):
            continue
        counts["iterations"] += len(phase.iterations)
        counts["executed"] += phase.executed
        counts["memo_hits"] += phase.memo_hit
        counts["compile_s"] += phase.compile_s
        counts["run_s"] += phase.run_s
        if phase.cache_hit:
            counts["compile_cache_hits"] += 1
        else:
            counts["compile_cache_misses"] += 1
    return counts


def build_metrics(
    report: "SuiteRunReport",
    policy: str,
    workers: int,
    outcomes: EngineOutcomes,
) -> RunMetrics:
    """Fold per-phase instrumentation into one :class:`RunMetrics`.

    Cache counters come from the per-phase ``cache_hit`` flags carried in
    the results, so they are exact under every policy — including process
    pools, where each worker holds a private cache whose own counters never
    leave the worker.  The phase counts are
    :func:`phase_counts`, the rule the live stream's
    ``unit.finished`` events carry.
    """
    metrics = RunMetrics(policy=policy, workers=workers,
                         wall_s=report.elapsed_s, templates=len(report.results))
    for result, worker in outcomes:
        busy = metrics.worker_busy_s.setdefault(worker, 0.0)
        metrics.worker_busy_s[worker] = busy + result.elapsed_s
    counts = phase_counts(phase for result, _ in outcomes
                          for phase in (result.functional, result.cross))
    metrics.compile_s = counts["compile_s"]
    metrics.execute_s = counts["run_s"]
    metrics.iterations_run = counts["iterations"]
    metrics.programs_executed = counts["executed"]
    metrics.memo_hits = counts["memo_hits"]
    metrics.cache_hits = counts["compile_cache_hits"]
    metrics.cache_misses = counts["compile_cache_misses"]
    for kind, count in report.by_failure_kind().items():
        metrics.failure_kinds[kind.value] = count
    return metrics
