"""Tests for the resilience layer: deterministic fault injection
(:mod:`repro.faults`), the engine's bounded retry / pool-respawn paths,
the cooperative template timeout, and the Titan quarantine triage.

The load-bearing property throughout: with *transient* injected faults and
a retry budget, a run produces a report byte-identical to the fault-free
run of the same configuration — faults are healed, never absorbed into
verdicts.  Persistent faults exhaust the budget and degrade to
HARNESS_ERROR rows; the suite always completes.
"""

import pytest

from repro.compiler import CompileCache, Compiler, CompilerCrashError
from repro.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultyCompiler,
    InjectedCompilerCrash,
    InjectedRuntimeCrash,
    NULL_INJECTOR,
)
from repro.harness import (
    HarnessConfig,
    MAX_POOL_DEATHS,
    ValidationRunner,
    render_csv,
    render_text,
)
from repro.harness.runner import FailureKind, TemplateTimeout
from repro.harness.titan import (
    STACK_CUDA,
    TitanCluster,
    TitanHarness,
)
from repro.obs import Tracer
from repro.suite import openacc10_suite


def _count(tracer, name):
    """How many ``name`` events the tracer recorded."""
    return sum(1 for e in tracer.events if e.name == name)


def _run(prefixes, **config_kwargs):
    defaults = dict(iterations=1, languages=("c",), run_cross=False,
                    feature_prefixes=list(prefixes))
    defaults.update(config_kwargs)
    config = HarnessConfig(**defaults)
    runner = ValidationRunner(config=config)
    runner.sleeper = lambda s: None  # instant backoff in tests
    return runner.run_suite(openacc10_suite())


# ---------------------------------------------------------------------------
# FaultPlan: parsing and validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_sites_and_options(self):
        plan = FaultPlan.parse(
            "worker=0.5, iteration=0.2, seed=7, stall-s=0.1, max-fires=2"
        )
        assert plan.worker_death == 0.5
        assert plan.iteration_crash == 0.2
        assert plan.seed == 7
        assert plan.stall_s == 0.1
        assert plan.max_fires == 2
        assert not plan.persistent

    def test_parse_persistent_flag(self):
        assert FaultPlan.parse("compile=1.0,persistent").persistent

    @pytest.mark.parametrize("spec", [
        "warp=0.5",            # unknown site
        "conn=1.0",            # a removed site, now unknown
        "iteration",           # missing =rate
        "iteration=lots",      # unparsable rate
        "iteration=1.5",       # rate out of range
        "max-fires=0",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        unknown = spec.partition("=")[0] in ("warp", "conn")
        with pytest.raises(ValueError,
                           match="unknown fault site" if unknown else None):
            FaultPlan.parse(spec)

    def test_active_property(self):
        assert not FaultPlan().active
        assert FaultPlan(iteration_crash=0.1).active


# ---------------------------------------------------------------------------
# FaultInjector: deterministic decisions, transient gating
# ---------------------------------------------------------------------------


class TestInjector:
    def test_decisions_deterministic_across_injectors(self):
        plan = FaultPlan(seed=11, iteration_crash=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        keys = [f"unit{i}" for i in range(50)]
        assert [a.fires("iteration", 0.5, k) for k in keys] == \
               [b.fires("iteration", 0.5, k) for k in keys]

    def test_seed_changes_decisions(self):
        keys = [f"unit{i}" for i in range(50)]
        a = FaultInjector(FaultPlan(seed=1))
        b = FaultInjector(FaultPlan(seed=2))
        assert [a.fires("iteration", 0.5, k) for k in keys] != \
               [b.fires("iteration", 0.5, k) for k in keys]

    def test_transient_fault_heals_on_retry(self):
        injector = FaultInjector(FaultPlan(seed=0, iteration_crash=1.0))
        assert injector.fires("iteration", 1.0, "k", attempt=0)
        assert not injector.fires("iteration", 1.0, "k", attempt=1)

    def test_attempt_offset_counts_as_later_attempt(self):
        plan = FaultPlan(seed=0, iteration_crash=1.0, attempt_offset=1)
        assert not FaultInjector(plan).fires("iteration", 1.0, "k", attempt=0)

    def test_persistent_fires_on_every_attempt(self):
        plan = FaultPlan(seed=0, iteration_crash=1.0, persistent=True)
        injector = FaultInjector(plan)
        assert all(injector.fires("iteration", 1.0, "k", attempt=n)
                   for n in range(5))

    def test_ambient_attempt_scoping(self):
        injector = FaultInjector(FaultPlan(seed=0, iteration_crash=1.0))
        with injector.attempt("k", 1):
            assert injector.current_attempt() == 1
            assert not injector.fires("iteration", 1.0, "k")
        assert injector.current_attempt() == 0
        assert injector.fires("iteration", 1.0, "k")

    def test_iteration_site_raises_typed_fault(self):
        injector = FaultInjector(FaultPlan(seed=0, iteration_crash=1.0))
        with pytest.raises(InjectedRuntimeCrash):
            injector.iteration_site("k")

    def test_stall_site_uses_injected_sleeper(self):
        naps = []
        injector = FaultInjector(
            FaultPlan(seed=0, stall=1.0, stall_s=0.25), sleeper=naps.append
        )
        injector.iteration_site("k")
        assert naps == [0.25]

    def test_null_injector_never_fires(self):
        assert not NULL_INJECTOR.enabled
        assert not NULL_INJECTOR.fires("iteration", 1.0, "k")
        NULL_INJECTOR.iteration_site("k")  # no-op, no raise

    def test_sites_cover_documented_list(self):
        assert FAULT_SITES == (
            "compile", "iteration", "worker", "stall", "journal",
        )


# ---------------------------------------------------------------------------
# compile cache contract under injected compiler crashes (satellite)
# ---------------------------------------------------------------------------


class TestCacheCrashContract:
    def test_crash_surfaces_as_compile_failure_never_raises(self):
        injector = FaultInjector(FaultPlan(seed=0, compile_crash=1.0))
        compiler = FaultyCompiler(Compiler(), injector)
        cache = CompileCache()
        outcome = cache.get_or_compile(compiler, "int main(){return 1;}",
                                       "c", "t.c")
        assert outcome.program is None
        assert isinstance(outcome.error, CompilerCrashError)
        assert isinstance(outcome.error.cause, InjectedCompilerCrash)

    def test_crash_accounts_miss_but_is_not_cached(self):
        injector = FaultInjector(FaultPlan(seed=0, compile_crash=1.0))
        cache = CompileCache()
        compiler = FaultyCompiler(Compiler(frontend=cache), injector)
        crashed = cache.get_or_compile(compiler, "int main(){return 1;}",
                                       "c", "t.c")
        assert isinstance(crashed.error, CompilerCrashError)
        assert not crashed.hit
        # the same source compiles fine on the next attempt (fault healed);
        # a transient crash must not poison the cache, so that compile
        # still misses, and only the healed parse is stored
        with injector.attempt("t.c", 1):
            healed, again = (
                cache.get_or_compile(compiler, "int main(){return 1;}",
                                     "c", "t.c")
                for _ in range(2))
        assert healed.error is None and healed.program is not None
        assert not healed.hit and again.hit


class TestNoCompileCache:
    """``compile_cache=False`` gives each phase a private cache: the phase
    compiles through it exactly as through a shared one, so a crash is
    wrapped and reported the same way."""

    def test_persistent_compile_crash_renders_identically(self):
        plan = FaultPlan(seed=7, compile_crash=1.0, persistent=True)
        shared = _run(["parallel"], retries=1, fault_plan=plan)
        private = _run(["parallel"], retries=1, fault_plan=plan,
                       compile_cache=False)
        assert render_csv(private) == render_csv(shared)
        assert render_text(private) == render_text(shared)
        assert "CompilerCrashError" in render_text(private)

    def test_traced_run_reports_every_compile(self):
        def traced(**config_kwargs):
            config = HarnessConfig(iterations=2, languages=("c",),
                                   feature_prefixes=["parallel"],
                                   compile_cache=False, **config_kwargs)
            tracer = Tracer()
            runner = ValidationRunner(config=config, tracer=tracer)
            runner.sleeper = lambda s: None
            return runner.run_suite(openacc10_suite()), tracer

        report, tracer = traced()
        phases = sum(1 for r in report.results
                     for p in (r.functional, r.cross) if p is not None)
        assert _count(tracer, "compile.cache_miss") == phases
        assert report.metrics.cache_misses == phases
        assert _count(tracer, "compile.cache_hit") == 0

        crashed, tracer = traced(
            retries=1, fault_plan=FaultPlan(seed=7, compile_crash=1.0,
                                            persistent=True))
        attempts = 2 * len(crashed.results)
        assert _count(tracer, "compile.cache_miss") == attempts
        assert _count(tracer, "compile.crashed") == attempts


# ---------------------------------------------------------------------------
# engine retry layer: healing, backoff, HARNESS_ERROR degradation
# ---------------------------------------------------------------------------


class TestRetryLayer:
    def test_transient_faults_heal_to_byte_identical_report(self):
        clean = _run(["update"])
        healed = _run(["update"],
                      retries=2,
                      fault_plan=FaultPlan(seed=7, iteration_crash=1.0,
                                           compile_crash=0.5))
        assert render_text(healed) == render_text(clean)
        assert render_csv(healed) == render_csv(clean)

    def test_faulty_runs_are_deterministic(self):
        kwargs = dict(retries=0,
                      fault_plan=FaultPlan(seed=3, iteration_crash=0.5))
        first, second = _run(["update"], **kwargs), _run(["update"], **kwargs)
        assert render_text(first) == render_text(second)

    def test_backoff_schedule_and_retry_counter(self):
        config = HarnessConfig(
            iterations=1, languages=("c",), run_cross=False,
            feature_prefixes=["wait"], retries=3, retry_backoff_s=0.1,
            fault_plan=FaultPlan(seed=0, iteration_crash=1.0, persistent=True),
        )
        tracer = Tracer()
        runner = ValidationRunner(config=config, tracer=tracer)
        naps = []
        runner.sleeper = naps.append
        report = runner.run_suite(openacc10_suite())
        # persistent fault: all 3 retries consumed, exponential backoff
        assert naps == [0.1, 0.2, 0.4]
        assert _count(tracer, "engine.retry") == 3
        assert _count(tracer, "engine.harness_error") == 1
        [result] = report.results
        assert result.failure_kind is FailureKind.HARNESS_ERROR

    def test_persistent_faults_complete_suite_as_harness_errors(self):
        report = _run(["update"], retries=1,
                      fault_plan=FaultPlan(seed=7, iteration_crash=1.0,
                                           persistent=True))
        assert len(report.results) == 4  # the suite completed
        kinds = report.by_failure_kind()
        assert kinds == {FailureKind.HARNESS_ERROR: 4}
        for result in report.results:
            assert not result.passed
            assert "harness gave up" in result.functional.failure_detail()
        # harness-error units never reached the compiler: no fake cache
        # traffic in the metrics
        assert report.metrics.cache_hits == 0
        assert report.metrics.cache_misses == 0

    def test_harness_error_renders_without_crashing(self):
        report = _run(["wait"], fault_plan=FaultPlan(
            seed=0, iteration_crash=1.0, persistent=True))
        assert "harness_error" in render_text(report)
        assert "harness_error" in render_csv(report)


# ---------------------------------------------------------------------------
# template wall-clock timeout
# ---------------------------------------------------------------------------


class TestTemplateTimeout:
    def test_stalled_template_degrades_to_harness_error(self):
        report = _run(["wait"], retries=0, template_timeout_s=0.02,
                      fault_plan=FaultPlan(seed=0, stall=1.0, stall_s=0.06,
                                           persistent=True))
        [result] = report.results
        assert result.failure_kind is FailureKind.HARNESS_ERROR
        assert "wall-clock budget" in result.functional.failure_detail()

    def test_transient_stall_heals_on_retry(self):
        clean = _run(["wait"])
        healed = _run(["wait"], retries=1, template_timeout_s=0.02,
                      fault_plan=FaultPlan(seed=0, stall=1.0, stall_s=0.06))
        assert render_text(healed) == render_text(clean)

    def test_check_deadline_raises_template_timeout(self):
        with pytest.raises(TemplateTimeout, match="wall-clock budget"):
            ValidationRunner._check_deadline(0.0, "unit")

    def test_no_deadline_when_unset(self):
        ValidationRunner._check_deadline(None, "unit")  # no raise


# ---------------------------------------------------------------------------
# process-pool worker death
# ---------------------------------------------------------------------------


class TestWorkerDeath:
    def test_pool_respawn_heals_to_byte_identical_report(self):
        clean = _run(["update"])
        tracer = Tracer()
        config = HarnessConfig(
            iterations=1, languages=("c",), run_cross=False,
            feature_prefixes=["update"], policy="process", workers=2,
            retries=1, retry_backoff_s=0.0,
            fault_plan=FaultPlan(seed=7, worker_death=0.5,
                                 iteration_crash=0.3),
        )
        runner = ValidationRunner(config=config, tracer=tracer)
        report = runner.run_suite(openacc10_suite())
        assert render_text(report) == render_text(clean)
        assert render_csv(report) == render_csv(clean)
        assert _count(tracer, "engine.worker_lost") >= 1

    def test_pool_broken_while_queueing_heals(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.harness import engine

        class BreaksWhileQueueing(engine.ProcessPoolExecutor):
            """The first pool breaks after queueing one unit, as a worker
            that dies at once breaks a pool that is still being filled."""

            pools = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                BreaksWhileQueueing.pools += 1
                self.first = BreaksWhileQueueing.pools == 1
                self.queued = 0

            def submit(self, fn, *args, **kwargs):
                if self.first and self.queued == 1:
                    raise BrokenProcessPool("worker died while queueing")
                self.queued += 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor",
                            BreaksWhileQueueing)
        clean = _run(["update"])
        report = _run(["update"], policy="process", workers=2)
        assert render_csv(report) == render_csv(clean)
        assert BreaksWhileQueueing.pools == 2  # the rest ran on a new pool

    def test_persistent_deaths_fall_back_to_serial(self):
        clean = _run(["update"])
        config = HarnessConfig(
            iterations=1, languages=("c",), run_cross=False,
            feature_prefixes=["update"], policy="process", workers=2,
            retry_backoff_s=0.0,
            fault_plan=FaultPlan(seed=7, worker_death=1.0, persistent=True),
        )
        runner = ValidationRunner(config=config)
        report = runner.run_suite(openacc10_suite())
        # every pool died MAX_POOL_DEATHS+1 times; the parent finished the
        # work serially — degraded throughput, complete and correct report
        assert render_text(report) == render_text(clean)
        assert set(report.metrics.worker_busy_s) == {"fallback"}
        assert MAX_POOL_DEATHS >= 1


# ---------------------------------------------------------------------------
# Titan quarantine triage
# ---------------------------------------------------------------------------


def _titan(cluster, fault_plan=None, retries=0, recheck=1, tracer=None):
    return TitanHarness(
        cluster, openacc10_suite(),
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             feature_prefixes=["update"],
                             retries=retries, fault_plan=fault_plan),
        tracer=tracer,
        recheck=recheck,
    )


class TestTitanQuarantine:
    def test_transient_fault_not_quarantined(self):
        # a transient injected fault flags the node once; the recheck (a
        # later attempt via attempt_offset) comes back clean
        cluster = TitanCluster(num_nodes=2, degraded_fraction=0.0, seed=5)
        tracer = Tracer()
        harness = _titan(cluster,
                         fault_plan=FaultPlan(seed=0, iteration_crash=1.0),
                         tracer=tracer)
        checks = harness.sweep(sample_size=1, seed=0, stacks=(STACK_CUDA,))
        assert [c.flagged for c in checks] == [True]
        assert checks[0].harness_errors > 0
        assert harness.quarantined == {}
        assert _count(tracer, "titan.flag_transient") == 1
        assert _count(tracer, "titan.recheck") == 1

    def test_persistent_fault_quarantines_node(self):
        cluster = TitanCluster(num_nodes=2, degraded_fraction=0.0, seed=5)
        tracer = Tracer()
        harness = _titan(
            cluster,
            fault_plan=FaultPlan(seed=0, iteration_crash=1.0,
                                 persistent=True),
            tracer=tracer,
        )
        checks = harness.sweep(sample_size=1, seed=0, stacks=(STACK_CUDA,))
        [check] = checks
        assert check.flagged
        assert set(harness.quarantined) == {check.node_id}
        record = harness.quarantined[check.node_id]
        assert record.stack == STACK_CUDA
        assert "harness error" in record.detail
        assert _count(tracer, "titan.quarantined") == 1

    def test_quarantined_nodes_excluded_from_sweeps(self):
        cluster = TitanCluster(num_nodes=3, degraded_fraction=0.0, seed=5)
        harness = _titan(cluster, fault_plan=FaultPlan(
            seed=0, iteration_crash=1.0, persistent=True))
        harness.sweep(sample_size=1, seed=0, stacks=(STACK_CUDA,))
        [bad_node] = list(harness.quarantined)
        later = harness.sweep(sample_size=3, seed=1, stacks=(STACK_CUDA,))
        assert bad_node not in {c.node_id for c in later}

    def test_degraded_node_quarantined_then_recovers_after_heal(self):
        # pin the degradation to a fault the "update" slice detects
        cluster = TitanCluster(
            num_nodes=2, degraded_fraction=0.5, seed=5,
            degrade=lambda behavior, nid: behavior.with_(ignore_update=True),
        )
        [degraded] = [n for n in cluster.nodes if not n.healthy]
        tracer = Tracer()
        harness = _titan(cluster, tracer=tracer)
        harness.sweep(sample_size=2, seed=0, stacks=(STACK_CUDA,))
        assert set(harness.quarantined) == {degraded.node_id}
        # still broken: the recovery probe keeps it quarantined
        assert harness.probe_quarantined() == []
        assert harness.quarantined[degraded.node_id].probes == 1
        # hardware swap, then the next probe releases it
        cluster.heal(degraded.node_id)
        assert harness.probe_quarantined() == [degraded.node_id]
        assert harness.quarantined == {}
        assert _count(tracer, "titan.recovered") == 1

    def test_timeline_probes_quarantine_each_epoch(self):
        cluster = TitanCluster(
            num_nodes=3, degraded_fraction=0.34, seed=5,
            degrade=lambda behavior, nid: behavior.with_(ignore_update=True),
        )
        harness = _titan(cluster)
        records = harness.timeline(epochs=2, sample_size=3)
        assert all("quarantined" in r and "recovered" in r for r in records)
        assert records[0]["quarantined"] >= 1.0
