"""Execution engine: pluggable policies for suite runs.

``ValidationRunner.run_suite`` used to walk the template list strictly
serially, although the workload — compile, run M times, classify, next
template — is embarrassingly parallel.  This module supplies the paper's
"runs on random nodes / tracks large sweeps" scale-out shape as two
interchangeable policies behind ``HarnessConfig.policy``/``workers``:

* ``serial`` — the original in-order loop (the default);
* ``process`` — a process pool: ``(behavior, config)`` are shipped to each
  worker once via the pool initializer, then work units carry only
  ``(index, template)`` and ship a finished :class:`TestResult` back.

Determinism guarantee: results are reassembled in template order, and every
per-iteration RNG seed derives from ``HarnessConfig`` alone (``rng_seed +
k``), never from scheduling — so serial and parallel runs of the same
configuration render byte-identical text/CSV/HTML reports.

Every run also assembles a :class:`RunMetrics` (attached to the report):
per-phase wall time, compile-cache hit rate, per-worker busy time and
failure-kind counters — the observability side of the scale-out work.

Resilience: every policy funnels work units through
:func:`run_unit_resilient` — bounded retry with exponential backoff for
harness faults (injected or real), degrading to a HARNESS_ERROR-marked
result once the budget is exhausted — and :class:`ProcessEngine`
additionally survives worker death by respawning its pool and re-running
only the lost units (serial fallback after :data:`MAX_POOL_DEATHS` broken
pools).  A healed run is byte-identical to a fault-free run of the same
configuration, because retries replay the same config-derived seeds.

Durability: every policy reports each finished unit through an optional
per-unit completion callback, invoked from the coordinating thread in
completion order — the hook :mod:`repro.journal` uses to append fsync'd
records the moment results exist.

Cancellation: every campaign owns a :class:`CancelToken`.  Cancelling it
makes the engines finish their in-flight units and raise
:class:`CampaignInterrupted` instead of starting new ones, so an
interrupted campaign exits with everything completed so far journaled.
Tokens are per-campaign state, so one campaign's cancel never drains a
concurrent neighbour and never poisons later runs in the same process;
the CLI's SIGINT/SIGTERM handler cancels the token of the one command it
runs.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.harness.config import EXECUTION_POLICIES, HarnessConfig
from repro.obs.live import phase_counts

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler import CompilerBehavior
    from repro.harness.runner import SuiteRunReport, TestResult, ValidationRunner
    from repro.templates import TestTemplate

#: ordered (TestResult, worker id) pairs, one per template
EngineOutcomes = List[Tuple["TestResult", str]]

#: per-unit completion callback: (index into the engine's template list,
#: template, finished result) — invoked by every policy from the
#: *coordinating* thread, in completion order, exactly once per unit.
#: This is the journal's hook: appends happen the moment a result exists.
UnitCallback = Callable[[int, "TestTemplate", "TestResult"], None]

#: broken process pools tolerated before ProcessEngine falls back to
#: running the remaining units serially in the parent
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

    ``run_suite`` (and Titan) check the token between work units:
    cancelling makes the engines finish their in-flight units, skip the
    rest, and raise :class:`CampaignInterrupted`.  Each campaign gets its
    own token (``run_suite(cancel=...)``, defaulting to a fresh one), so
    cancelling one campaign never touches a concurrent neighbour and a
    finished/cancelled campaign never poisons the next run_suite call in
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
    """Observability counters for one suite run."""

    policy: str
    workers: int
    #: wall-clock time of the whole suite run
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
                       base_attempt: int = 0) -> "TestResult":
    """Run one work unit under the config's bounded retry budget.

    Any exception escaping ``run_template`` is a *harness* fault (test
    verdicts — wrong values, crashes, step-budget timeouts — are values,
    not exceptions): injected faults, internal compiler crashes, template
    wall-clock timeouts, or genuine harness bugs.  Each is retried with
    exponential backoff (``retry_backoff_s * 2**n`` via the runner's
    injectable sleeper) and, once the budget is exhausted, degraded to a
    HARNESS_ERROR-marked result.  Never raises — with one exception: when
    the campaign's :class:`CancelToken` (``runner.cancel``, set by
    run_suite for the run's duration) is cancelled between retry
    attempts, the unit gives up immediately with
    :class:`CampaignInterrupted` so a drain is not held up by a retry
    backoff ladder.

    ``base_attempt`` threads the engine-level attempt number (pool
    respawns) into the fault injector so transient injected faults do not
    re-fire on re-runs.
    """
    config = runner.config
    tracer = runner.tracer
    cancel = getattr(runner, "cancel", None)
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
# policies
# ---------------------------------------------------------------------------


class SerialEngine:
    """The original strictly-ordered in-process loop."""

    policy = "serial"

    def __init__(self, workers: int = 1):
        self.workers = 1  # serial by definition

    def run(self, templates: Sequence["TestTemplate"],
            runner: "ValidationRunner",
            on_complete: Optional[UnitCallback] = None,
            cancel: Optional[CancelToken] = None) -> EngineOutcomes:
        cancel = cancel if cancel is not None else CancelToken()
        worker = "main"
        outcomes: EngineOutcomes = []
        for index, template in enumerate(templates):
            cancel.check()
            result = run_unit_resilient(runner, template)
            outcomes.append((result, worker))
            if on_complete is not None:
                on_complete(index, template, result)
        return outcomes


# -- process-pool plumbing: one runner per worker process, built once -------

_WORKER_RUNNER: "ValidationRunner" = None


#: how often a pool worker checks that its parent is still alive
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _process_worker_init(behavior: "CompilerBehavior", config: HarnessConfig,
                         tracer_cls: Optional[type] = None) -> None:
    """Pool initializer: build this worker's runner (own compile cache).

    ``tracer_cls`` is None when the parent reports no events; otherwise
    the worker gets its own tracer of that class (a
    :class:`repro.obs.Tracer` or a span-free
    :class:`repro.obs.EventTracer`), drained back to the parent after
    every work unit.
    """
    global _WORKER_RUNNER
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
    _WORKER_RUNNER = ValidationRunner(behavior, config, tracer=tracer)


def _process_run_unit(payload: Tuple[int, "TestTemplate", int]):
    index, template, attempt = payload
    runner = _WORKER_RUNNER
    unit_key = f"{template.feature}:{template.language}"
    if runner.faults.worker_site(unit_key, attempt):
        # injected worker death: hard-exit so the parent sees exactly what
        # a crashed node/process looks like (BrokenProcessPool)
        os._exit(78)
    result = run_unit_resilient(runner, template, base_attempt=attempt)
    tracer = runner.tracer
    trace_payload = tracer.drain() if tracer.enabled else None
    return index, result, f"pid-{os.getpid()}", trace_payload


class ProcessEngine:
    """A process pool; work units pickle ``(index, template, attempt)`` only
    and ship back a finished result plus (when tracing) the unit's trace
    payload.

    Survives worker death: a broken pool is respawned and only the lost
    units are re-submitted (with a bumped attempt number, so injected
    transient deaths do not recur).  After :data:`MAX_POOL_DEATHS` broken
    pools the engine stops trusting process isolation and runs whatever is
    left serially in the parent — degraded throughput, never a crashed
    suite.
    """

    policy = "process"

    def __init__(self, workers: int):
        self.workers = workers

    def run(self, templates: Sequence["TestTemplate"],
            runner: "ValidationRunner",
            on_complete: Optional[UnitCallback] = None,
            cancel: Optional[CancelToken] = None) -> EngineOutcomes:
        if not templates:
            return []
        cancel = cancel if cancel is not None else CancelToken()
        cancel.check()
        tracer = runner.tracer
        # each worker records into a fresh tracer of the parent's kind
        initargs = (runner.behavior, runner.config,
                    type(tracer) if tracer.enabled else None)
        #: template index -> engine-level attempt number
        pending: Dict[int, int] = {i: 0 for i in range(len(templates))}
        done: Dict[int, Tuple["TestResult", str, Optional[dict]]] = {}
        pool_deaths = 0
        while pending and pool_deaths <= MAX_POOL_DEATHS:
            broken = False
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=initargs,
            ) as pool:
                futures = {}
                try:
                    for i, attempt in sorted(pending.items()):
                        futures[pool.submit(
                            _process_run_unit, (i, templates[i], attempt)
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
                                harness_error_result(templates[index], err),
                                "pool", None,
                            )
                        done[index] = (result, worker, trace_payload)
                        pending.pop(index, None)
                        if trace_payload is not None:
                            # the unit's events reach the subscribers (the
                            # live stream) now; the trace adopts the payload
                            # in template order once the pool is done
                            tracer.relay(trace_payload)
                        if on_complete is not None:
                            # results ship back to this (parent) process as
                            # they finish; the journal append happens here,
                            # before any more completions are awaited
                            on_complete(index, templates[index], result)
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
                pending = {i: attempt + 1 for i, attempt in pending.items()}
        if pending and tracer.enabled:
            tracer.event("engine.serial_fallback", units=len(pending),
                         pool_deaths=pool_deaths)
        for i, attempt in sorted(pending.items()):
            # serial fallback: the pool kept dying, run the rest in-process
            cancel.check()
            result = run_unit_resilient(runner, templates[i],
                                        base_attempt=attempt)
            done[i] = (result, "fallback", None)
            if on_complete is not None:
                on_complete(i, templates[i], result)
        # adopt worker traces in template order so event sequencing is
        # deterministic; run_suite re-parents the unit roots afterwards
        for i in range(len(templates)):
            _, worker, trace_payload = done[i]
            if trace_payload is not None:
                tracer.adopt(trace_payload, worker=worker)
        return [(done[i][0], done[i][1]) for i in range(len(templates))]


_ENGINES = {
    "serial": SerialEngine,
    "process": ProcessEngine,
}
assert set(_ENGINES) == set(EXECUTION_POLICIES)


def create_engine(policy: str, workers: int = 1):
    """Instantiate the engine for a config-validated policy name."""
    try:
        engine_cls = _ENGINES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of "
            f"{', '.join(EXECUTION_POLICIES)}"
        ) from None
    return engine_cls(workers)


# ---------------------------------------------------------------------------
# metrics assembly
# ---------------------------------------------------------------------------


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
    :func:`repro.obs.live.phase_counts`, the rule the live stream's
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
