"""The validation runner: functional -> cross pipeline (Fig. 3).

For every template: generate the functional program, compile it with the
implementation under test, run it ``M`` times on fresh simulated machines
(the compile cache's execute memo serves every iteration that would repeat
a stored run, such as iterations 1..M-1 after an iteration 0 that never
read the RNG: see ``ValidationRunner._run_phase``), and classify the
outcome using the paper's error taxonomy (Section V):

* ``COMPILE_ERROR`` — "assertion violations or other internal compilation
  errors", e.g. an unsupported feature;
* ``WRONG_VALUE`` — the vicious silent class: the program runs but returns
  a failing status;
* ``RUNTIME_CRASH`` — a code crash (simulated runtime exception);
* ``TIMEOUT`` — "the code executes forever" (step budget exceeded).

If the functional test passes and the template defines cross markers, the
cross program runs next; ``nf`` incorrect cross runs out of ``M`` give the
certainty ``pc = 1 - (1 - nf/M)^M``.  A cross that unexpectedly matches the
functional result is *inconclusive* — per the paper it is reported (so the
test can be redesigned), not charged to the compiler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.compiler import (
    REFERENCE_BEHAVIOR,
    Compiler,
    CompilerBehavior,
    CompilerCrashError,
    ExecutionLimits,
)
from repro.compiler.cache import CompileCache
from repro.faults import FaultInjector, FaultyCompiler, NULL_INJECTOR
from repro.frontend import parse_source
from repro.harness.config import HarnessConfig
from repro.harness.stats import certainty
from repro.obs import NULL_TRACER, EventTracer
from repro.suite.registry import SuiteRegistry
from repro.templates import TestTemplate, generate_cross, generate_functional


class FailureKind(Enum):
    COMPILE_ERROR = "compile_error"
    WRONG_VALUE = "wrong_value"
    RUNTIME_CRASH = "runtime_crash"
    TIMEOUT = "timeout"
    #: the harness (not the implementation under test) failed on this unit
    #: and exhausted its retry budget — infrastructure, not a compiler bug
    HARNESS_ERROR = "harness_error"
    #: the *template* failed static checking (``HarnessConfig.lint``): the
    #: test itself is ill-formed, so no compile/run verdict was produced —
    #: a corpus defect, never charged to the implementation under test
    STATIC_ERROR = "static_error"


class EmptySelectionError(ValueError):
    """A suite run selected zero templates.

    Mirrors the ``iterations=0`` guard: a run over nothing would print
    ``overall: 0.00% pass`` and exit cleanly, silently validating nothing.
    """


class TemplateTimeout(RuntimeError):
    """A template exceeded its wall-clock budget (``template_timeout_s``).

    Distinct from the interpreter step budget (the paper's "executes
    forever" TIMEOUT verdict): this is the *harness* giving up on a stalled
    unit, checked cooperatively between iterations, and is handled by the
    engine's retry layer rather than classified as a test result.
    """


@dataclass
class IterationOutcome:
    """One execution of one generated program."""

    ok: bool
    value: Optional[int] = None
    error: Optional[str] = None
    kind: Optional[FailureKind] = None
    steps: int = 0
    #: execution profile (zeros when the run died before finishing); never
    #: rendered in reports, surfaced via repro.obs when profiling is on
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    queue_waits: int = 0
    queue_max_pending: int = 0


@dataclass
class PhaseResult:
    """All iterations of one phase (functional or cross)."""

    mode: str  # 'functional' | 'cross'
    source: str
    compile_error: Optional[str] = None
    iterations: List[IterationOutcome] = field(default_factory=list)
    #: set when the harness itself failed on this unit (retries exhausted);
    #: never the implementation's fault — see FailureKind.HARNESS_ERROR
    harness_error: Optional[str] = None
    #: set when the lint gate rejected the template before compilation; the
    #: summary of the static diagnostics — see FailureKind.STATIC_ERROR
    static_error: Optional[str] = None
    #: instrumentation (feeds engine.RunMetrics; never rendered in reports,
    #: so serial and parallel reports stay byte-identical)
    compile_s: float = 0.0
    run_s: float = 0.0
    #: whether the compile took its parse from the compile cache's parse
    #: tier (an earlier phase, or the lint gate, parsed the same source)
    cache_hit: bool = False
    #: programs actually run: ``len(iterations)`` less the iterations the
    #: execute memo served (at most 1 when iteration 0 never read the RNG,
    #: since the memo then serves iterations 1..M-1) — instrumentation like
    #: cache_hit
    executed: int = 0
    #: whether the execute memo served iteration 0 (an earlier phase's run
    #: the behaviour would repeat exactly) — instrumentation like cache_hit
    memo_hit: bool = False

    @property
    def incorrect_runs(self) -> int:
        if (
            self.compile_error is not None
            or self.harness_error is not None
            or self.static_error is not None
        ):
            return len(self.iterations) or 1
        return sum(1 for it in self.iterations if not it.ok)

    @property
    def all_correct(self) -> bool:
        return (
            self.compile_error is None
            and self.harness_error is None
            and self.static_error is None
            and all(it.ok for it in self.iterations)
        )

    def dominant_failure(self) -> Optional[FailureKind]:
        if self.static_error is not None:
            return FailureKind.STATIC_ERROR
        if self.harness_error is not None:
            return FailureKind.HARNESS_ERROR
        if self.compile_error is not None:
            return FailureKind.COMPILE_ERROR
        for it in self.iterations:
            if it.kind is not None:
                return it.kind
        return None

    def failure_detail(self) -> str:
        if self.static_error is not None:
            return self.static_error
        if self.harness_error is not None:
            return self.harness_error
        if self.compile_error is not None:
            return self.compile_error
        for it in self.iterations:
            if not it.ok:
                return it.error or f"returned {it.value}"
        return ""


@dataclass
class TestResult:
    """Verdict for one (feature, language) template."""

    template: TestTemplate
    functional: PhaseResult
    cross: Optional[PhaseResult] = None
    elapsed_s: float = 0.0

    @property
    def feature(self) -> str:
        return self.template.feature

    @property
    def language(self) -> str:
        return self.template.language

    @property
    def passed(self) -> bool:
        return self.functional.all_correct

    @property
    def failure_kind(self) -> Optional[FailureKind]:
        if self.passed:
            return None
        return self.functional.dominant_failure()

    @property
    def cross_conclusive(self) -> Optional[bool]:
        """True/False once a cross ran; None when no cross was executed."""
        if self.cross is None:
            return None
        return self.cross.incorrect_runs > 0

    @property
    def cross_inconclusive_unexpectedly(self) -> bool:
        """The paper's "directive does not take any effect" signal."""
        return (
            self.cross is not None
            and self.template.crossexpect == "different"
            and self.cross.incorrect_runs == 0
        )

    @property
    def certainty(self) -> float:
        """pc over the cross iterations (0 when no conclusive cross ran)."""
        if self.cross is None or not self.cross.iterations:
            if self.cross is not None and self.cross.compile_error is not None:
                return 1.0  # the cross variant cannot even compile
            return 0.0
        m = len(self.cross.iterations)
        return certainty(self.cross.incorrect_runs, m)


@dataclass
class SuiteRunReport:
    """All results of one suite run against one implementation."""

    compiler_label: str
    config: HarnessConfig
    results: List[TestResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: filled by run_suite (see repro.harness.engine.RunMetrics)
    metrics: Optional["RunMetrics"] = None

    def for_language(self, language: str) -> List[TestResult]:
        return [r for r in self.results if r.language == language]

    def pass_rate(self, language: Optional[str] = None) -> float:
        pool = self.for_language(language) if language else self.results
        if not pool:
            return 0.0
        return 100.0 * sum(1 for r in pool if r.passed) / len(pool)

    def failures(self, language: Optional[str] = None) -> List[TestResult]:
        pool = self.for_language(language) if language else self.results
        return [r for r in pool if not r.passed]

    def failed_features(self, language: Optional[str] = None) -> List[str]:
        return [r.feature for r in self.failures(language)]

    def inconclusive_crosses(self) -> List[TestResult]:
        return [r for r in self.results if r.cross_inconclusive_unexpectedly]

    def by_failure_kind(self) -> Dict[FailureKind, int]:
        out: Dict[FailureKind, int] = {}
        for r in self.failures():
            kind = r.failure_kind
            if kind is not None:
                out[kind] = out.get(kind, 0) + 1
        return out


class ValidationRunner:
    """Runs templates against one simulated implementation."""

    def __init__(
        self,
        behavior: Optional[CompilerBehavior] = None,
        config: Optional[HarnessConfig] = None,
        cache: Optional[CompileCache] = None,
        tracer=None,
    ):
        self.config = config or HarnessConfig()
        if cache is None and self.config.compile_cache:
            cache = CompileCache()
        #: the compile cache; a caller running several behaviours (a vendor
        #: sweep, a Titan harness) passes one in to share its parse tier
        self.cache = cache
        self.compiler = Compiler(
            behavior if behavior is not None else REFERENCE_BEHAVIOR,
            frontend=cache,
        )
        #: a repro.obs.Tracer: every event of the run is reported to it.
        #: Without one, a config with live-telemetry knobs gets a span-free
        #: EventTracer for run_suite's pipeline to subscribe to (the sinks
        #: themselves are only ever opened by run_suite, in the
        #: coordinating process); otherwise NULL_TRACER records nothing
        if tracer is None:
            tracer = EventTracer() if self.config.live_enabled else NULL_TRACER
        self.tracer = tracer
        #: the campaign's repro.harness.engine.CancelToken while run_suite
        #: is executing (the retry layer polls it between attempts); None
        #: otherwise.  Never auto-built here: process-pool workers rebuild
        #: a runner from the same config and their units are cancelled
        #: pool-wide by the coordinating parent instead
        self.cancel = None
        #: the retry layer's backoff sleep — injectable so tests are instant
        self.sleeper = time.sleep
        #: fault injector built from the config's plan (NULL_INJECTOR = off)
        plan = self.config.fault_plan
        if plan is not None and plan.active:
            self.faults = FaultInjector(plan)
            self.compiler = FaultyCompiler(self.compiler, self.faults)
        else:
            self.faults = NULL_INJECTOR

    @property
    def behavior(self) -> CompilerBehavior:
        return self.compiler.behavior

    # ------------------------------------------------------------ execution

    def run_template(self, template: TestTemplate) -> TestResult:
        tracer = self.tracer
        tkey = f"{template.feature}:{template.language}"
        timeout = self.config.template_timeout_s
        deadline = time.monotonic() + timeout if timeout is not None else None
        with tracer.span("template", key=tkey) as span:
            functional = None
            if self.config.lint:
                functional = self._lint_gate(template, tkey)
            if functional is None:
                functional = self._run_phase(template, "functional", tkey,
                                             deadline=deadline)
            cross: Optional[PhaseResult] = None
            if (
                self.config.run_cross
                and functional.all_correct
                and template.has_cross
            ):
                self._check_deadline(deadline, tkey)
                cross = self._run_phase(template, "cross", tkey,
                                        deadline=deadline)
            result = TestResult(
                template=template, functional=functional, cross=cross
            )
        result.elapsed_s = span.duration
        if tracer.enabled:
            kind = result.failure_kind
            span.set(
                feature=template.feature,
                language=template.language,
                passed=result.passed,
                certainty=result.certainty,
                failure_kind=kind.value if kind is not None else None,
            )
        return result

    def run_suite(
        self,
        suite: SuiteRegistry,
        templates: Optional[Iterable[TestTemplate]] = None,
        journal=None,
        cancel=None,
    ) -> SuiteRunReport:
        """Run the (selected) suite; see class docstring.

        ``journal`` is an optional :class:`repro.journal.JournalWriter`:
        units with an intact journal record are *replayed* (never re-run),
        and every freshly-run unit is appended — fsync'd — the moment its
        engine reports completion, making the campaign resumable after a
        crash at any instant.

        ``cancel`` is this campaign's
        :class:`repro.harness.engine.CancelToken`; cancelling it drains
        the run gracefully (:class:`CampaignInterrupted` after the
        in-flight units finish).  Defaults to a fresh token, so a cancel
        in an earlier or concurrent campaign never bleeds into this one.

        The execution engine is built from the config's
        ``policy``/``workers``; reports stay byte-identical across
        policies.
        """
        from repro.harness.engine import CancelToken

        config = self.config
        cancel = cancel if cancel is not None else CancelToken()
        if templates is None:
            templates = suite.select(
                languages=config.languages,
                features=config.features,
                prefixes=config.feature_prefixes,
            )
        templates = list(templates)
        if not templates:
            raise EmptySelectionError(
                "suite selection matched no templates "
                f"(languages={list(config.languages)!r}, "
                f"features={config.features!r}, "
                f"prefixes={config.feature_prefixes!r}): a run over nothing "
                "would report a vacuous 0.00% pass and validate nothing"
            )
        from repro.harness.engine import build_metrics, create_engine

        engine = create_engine(config.policy, config.workers)
        report = SuiteRunReport(
            compiler_label=self.behavior.label, config=config
        )
        tracer = self.tracer

        # -- live telemetry: build the sink pipeline the config asks for,
        # unless the tracer already feeds one (a Titan harness owns the
        # pipeline of its node checks).  Only here, never in __init__ —
        # process-pool workers construct a runner from this same config,
        # and only the coordinating process may open the sinks.
        live = None
        if config.live_enabled and not tracer.subscribers:
            from repro.obs.live import LiveTelemetry

            live = LiveTelemetry.from_config(config)

        # -- journal replay: partition into replayed and still-pending units
        replayed: Dict[int, TestResult] = {}
        on_complete = None
        keys: Optional[List[str]] = None
        if journal is not None or live is not None:
            from repro.journal import unit_keys

            keys = unit_keys(templates)
        if journal is not None:
            from repro.journal import decode_result, encode_result

            for i, (template, key) in enumerate(zip(templates, keys)):
                payload = journal.get(key)
                if payload is not None:
                    replayed[i] = decode_result(payload, template)
            pending_keys = [keys[i] for i in range(len(templates))
                            if i not in replayed]

            def journal_complete(index, template, result):
                journal.append(pending_keys[index], encode_result(result))

            on_complete = journal_complete

        if live is not None:
            live.begin(
                total_units=len(templates), replayed=len(replayed),
                compiler=self.behavior.label,
                policy=config.policy, workers=config.workers,
            )
            live.attach(tracer)
        if replayed and tracer.enabled:
            tracer.event("journal.replayed", units=len(replayed))
        if live is not None:
            # replayed units count toward progress immediately, marked so
            for i in sorted(replayed):
                live.unit(i, keys[i], replayed[i], replayed=True)
            pending_indices = [i for i in range(len(templates))
                               if i not in replayed]
            journal_cb = on_complete

            def live_complete(index, template, result):
                if journal_cb is not None:
                    # journal first: durability before observation, so a
                    # torn journal append never loses the fsync'd record
                    journal_cb(index, template, result)
                i = pending_indices[index]
                live.unit(i, keys[i], result, replayed=False)

            on_complete = live_complete

        pending = [templates[i] for i in range(len(templates))
                   if i not in replayed]
        # expose the cancel token to the retry layer for the duration of
        # the run (prompt drain out of a backoff ladder)
        previous_cancel = self.cancel
        self.cancel = cancel
        try:
            with tracer.span(
                "run", key=self.behavior.label,
                policy=engine.policy, workers=engine.workers,
            ) as root:
                start = time.perf_counter()
                outcomes = engine.run(pending, self, on_complete=on_complete,
                                      cancel=cancel)
                report.elapsed_s = time.perf_counter() - start
        except BaseException:
            # interrupted (drain, injected tear, Ctrl-C): finalize the
            # sinks with a non-report final snapshot so the stream is
            # readable and the .prom file reflects the last known state
            if live is not None:
                live.end(None)
            raise
        finally:
            self.cancel = previous_cancel
        # spans adopted from worker processes have no parent: stitch them
        # under this run's root
        tracer.reparent_orphans(root)
        if replayed:
            # merge back in template order; replayed units are attributed
            # to the "journal" pseudo-worker in the run metrics
            merged: List[Tuple[TestResult, str]] = []
            fresh = iter(outcomes)
            for i in range(len(templates)):
                if i in replayed:
                    merged.append((replayed[i], "journal"))
                else:
                    merged.append(next(fresh))
            outcomes = merged
        report.results = [result for result, _ in outcomes]
        report.metrics = build_metrics(
            report, engine.policy, engine.workers, outcomes
        )
        if live is not None:
            # the final snapshot embeds the authoritative RunMetrics block:
            # integer tallies folded from the stream reconcile exactly, and
            # readers take the float timings from here (float summation
            # order varies across completion orders)
            live.end(report)
        if tracer.enabled:
            metrics = report.metrics
            root.set(templates=len(report.results),
                     pass_rate=report.pass_rate(),
                     wall_s=metrics.wall_s,
                     cache_hit_rate=metrics.cache_hit_rate,
                     worker_utilization=metrics.worker_utilization)
        return report

    # -------------------------------------------------------------- internals

    def _lint_gate(self, template: TestTemplate,
                   tkey: str) -> Optional[PhaseResult]:
        """Static pre-compile gate (``HarnessConfig.lint``).

        Returns a STATIC_ERROR phase when the template fails static
        checking — the unit is charged to the *corpus*, never to the
        implementation under test — or None when it is clean and the normal
        functional phase should run.  Diagnostics are deterministically
        ordered, so reports stay byte-identical across execution policies.
        It parses through the compile cache's parse tier, so the functional
        phase that follows reuses the parse.
        """
        from repro.staticcheck import errors_only, lint_template, summarize

        tracer = self.tracer
        parse = self.cache.parse if self.cache is not None else parse_source
        with tracer.span("lint", key=tkey) as span:
            diags = errors_only(lint_template(template, parse=parse))
            if tracer.enabled:
                codes: Dict[str, int] = {}
                for d in diags:
                    codes[d.code] = codes.get(d.code, 0) + 1
                span.set(diagnostics=len(diags), codes=codes)
        if not diags:
            return None
        if tracer.enabled:
            tracer.event(
                "lint.failed", template=tkey,
                codes=sorted({d.code for d in diags}),
            )
        try:
            source = generate_functional(template).source
        except Exception:  # the template may not even generate
            source = ""
        return PhaseResult(
            mode="functional", source=source,
            static_error=summarize(diags),
        )

    def _run_phase(self, template: TestTemplate, mode: str,
                   tkey: Optional[str] = None,
                   deadline: Optional[float] = None) -> PhaseResult:
        if mode == "functional":
            generated = generate_functional(template)
        else:
            generated = generate_cross(template)
        phase = PhaseResult(mode=mode, source=generated.source)
        tracer = self.tracer
        pkey = f"{tkey or template.feature}:{mode}"
        # a runner without a shared cache gives the phase a private one:
        # every phase then takes the same path (crash wrapping, events,
        # the memo serving a seed-free iteration 0's repeats)
        cache = self.cache if self.cache is not None else CompileCache()
        # the spans are the timers: compile_s/run_s are copied from the span
        # durations, so a recorded trace reconciles with RunMetrics exactly
        with tracer.span("phase", key=pkey, mode=mode):
            with tracer.span("compile", key=pkey) as compile_span:
                outcome = cache.get_or_compile(
                    self.compiler, generated.source, template.language,
                    template.name, tracer=tracer if tracer.enabled else None,
                )
                phase.cache_hit = outcome.hit
                if isinstance(outcome.error, CompilerCrashError):
                    # infrastructure fault, not a diagnostic: escalate to
                    # the engine's retry layer instead of charging the
                    # implementation with a COMPILE_ERROR verdict
                    raise outcome.error
                if outcome.error is not None:
                    phase.compile_error = str(outcome.error)
                compiled = outcome.program
            phase.compile_s = compile_span.duration
            if tracer.enabled:
                compile_span.set(cache_hit=phase.cache_hit,
                                 error=phase.compile_error)
            if phase.compile_error is not None:
                return phase
            limits = ExecutionLimits(max_steps=self.config.max_steps)
            env_vars = template.environment or None
            memo_key = cache.memo_key(generated.source, template.language,
                                      template.name, env_vars,
                                      limits.max_steps)
            # built on the first iteration the memo cannot serve: the
            # runner shares the lowered program across the phase's
            # iterations (each run still executes on a fresh machine),
            # and both die with the phase
            runner = None
            with tracer.span("execute", key=pkey) as execute_span:
                # the memo serves every run it can: an earlier phase's run
                # the behaviour would repeat, or this phase's iteration 0
                # when that never read the RNG (the seed reaches execution
                # only through rand/srand, and every run starts on a fresh
                # machine).  The fault site, events and deadline go per k
                for k, seed in enumerate(self.config.iteration_seeds()):
                    self.faults.iteration_site(f"{pkey}:{k}")
                    entry = cache.recall(memo_key, compiled.behavior, seed)
                    if entry is not None:
                        outcome = replace(entry.outcome)
                        if k == 0:
                            phase.memo_hit = True
                    else:
                        if runner is None:
                            runner = compiled.runner()
                        outcome = self._run_once(runner, env_vars, limits,
                                                 seed)
                        phase.executed += 1
                    phase.iterations.append(outcome)
                    if not outcome.ok and tracer.enabled:
                        tracer.event(
                            "iteration.failed", template=pkey, seed=seed,
                            kind=(outcome.kind.value
                                  if outcome.kind is not None else None),
                        )
                    self._check_deadline(deadline, pkey)
                    if entry is None:
                        # only a finished iteration is stored
                        cache.remember(memo_key, runner.trace,
                                       seed if runner.rng_used else None,
                                       replace(outcome))
            phase.run_s = execute_span.duration
            if tracer.enabled:
                its = phase.iterations
                steps = [it.steps for it in its]
                execute_span.set(iterations=len(its),
                                 executed=phase.executed,
                                 incorrect=phase.incorrect_runs,
                                 steps=sum(steps),
                                 steps_max=max(steps, default=0))
                # the phase's execution profile: sum and max over its
                # iterations (queue depth is a level, so max only)
                for name in ("bytes_to_device", "bytes_to_host",
                             "queue_waits"):
                    values = [getattr(it, name) for it in its]
                    execute_span.set(**{
                        name: sum(values),
                        f"{name}_max": max(values, default=0)})
                execute_span.set(queue_max_pending=max(
                    (it.queue_max_pending for it in its), default=0))
        return phase

    @staticmethod
    def _check_deadline(deadline: Optional[float], key: str) -> None:
        """Cooperative wall-clock budget check (between iterations/phases).

        In-process execution cannot be preempted, so a stalled iteration is
        detected once it returns; a dead worker process is the engine's
        problem (pool respawn), not this check's.
        """
        if deadline is not None and time.monotonic() > deadline:
            raise TemplateTimeout(
                f"template {key} exceeded its wall-clock budget"
            )

    @staticmethod
    def _run_once(runnable, env_vars, limits, seed) -> IterationOutcome:
        try:
            result = runnable.run(env_vars=env_vars, limits=limits, rng_seed=seed)
        except ExecutionTimeout as err:
            return IterationOutcome(
                ok=False, error=str(err), kind=FailureKind.TIMEOUT
            )
        except AccRuntimeError as err:
            return IterationOutcome(
                ok=False, error=str(err), kind=FailureKind.RUNTIME_CRASH
            )
        ok = result.value == 1
        return IterationOutcome(
            ok=ok,
            value=result.value,
            kind=None if ok else FailureKind.WRONG_VALUE,
            steps=result.steps,
            bytes_to_device=result.bytes_to_device,
            bytes_to_host=result.bytes_to_host,
            queue_waits=result.queue_waits,
            queue_max_pending=result.queue_max_pending,
        )
