"""Tests for the execution engine, compile cache, config validation and
run metrics.

The central property (the determinism guarantee of
:mod:`repro.harness.engine`): the ``serial`` and ``process`` policies
must produce *identical* reports — same pass rates, failure kinds
and certainty values, byte-identical text/CSV renderings — for the same
configuration.
"""

from dataclasses import replace

import pytest

from repro.compiler import CompileCache, Compiler, CompilerBehavior
from repro.harness import (
    EXECUTION_POLICIES,
    EmptySelectionError,
    HarnessConfig,
    RunMetrics,
    ValidationRunner,
    render_csv,
    render_metrics_csv,
    render_metrics_text,
    render_text,
)
from repro.suite import openacc10_suite
from repro.suite.builders import check, template_text
from repro.templates import parse_template


def _template(code: str, **kwargs):
    args = dict(name="t.c", feature="loop", language="c", code=code)
    args.update(kwargs)
    return parse_template(template_text(**args))


# ---------------------------------------------------------------------------
# HarnessConfig validation (the zero-iteration vacuous-pass bug)
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("iterations", [0, -1, -100])
    def test_nonpositive_iterations_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations"):
            HarnessConfig(iterations=iterations)

    def test_zero_iterations_would_have_passed_vacuously(self):
        # the bug this guards against: M=0 makes every phase 'all correct'
        # and hands any compiler a pass with certainty 0
        config = HarnessConfig(iterations=1)
        assert config.iteration_seeds()  # never empty once validated

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_nonpositive_max_steps_rejected(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            HarnessConfig(max_steps=max_steps)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            HarnessConfig(workers=workers)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            HarnessConfig(policy="distributed")

    def test_thread_policy_is_gone(self):
        # it was never faster than serial under the GIL
        with pytest.raises(ValueError, match="unknown policy 'thread'"):
            HarnessConfig(policy="thread")

    def test_defaults_are_valid(self):
        config = HarnessConfig()
        assert config.policy == "serial" and config.workers == 1


# ---------------------------------------------------------------------------
# policy equivalence (determinism guarantee)
# ---------------------------------------------------------------------------


#: a behaviour that exercises every verdict class: silent wrong values
#: (broken reductions), compile errors (declare unsupported) and passes
_BUGGY = CompilerBehavior(
    name="buggy", version="x",
    broken_reductions=frozenset({"+"}),
    unsupported_directives=frozenset({"declare"}),
)


def _run(policy: str, workers: int, **config_kwargs):
    defaults = dict(iterations=2, languages=("c",),
                    feature_prefixes=["loop", "declare", "parallel"])
    defaults.update(config_kwargs)
    config = HarnessConfig(policy=policy, workers=workers, **defaults)
    return ValidationRunner(_BUGGY, config).run_suite(openacc10_suite())


class TestPolicyEquivalence:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return _run("serial", 1)

    @pytest.mark.parametrize("policy,workers",
                             [("process", 2), ("process", 4)])
    def test_reports_byte_identical(self, serial_report, policy, workers):
        report = _run(policy, workers)
        assert render_csv(report) == render_csv(serial_report)
        assert render_text(report) == render_text(serial_report)

    @pytest.mark.parametrize("policy", ["process"])
    def test_semantics_identical(self, serial_report, policy):
        report = _run(policy, 2)
        assert report.pass_rate() == serial_report.pass_rate()
        assert report.by_failure_kind() == serial_report.by_failure_kind()
        assert [r.certainty for r in report.results] == \
               [r.certainty for r in serial_report.results]
        assert [r.template.name for r in report.results] == \
               [r.template.name for r in serial_report.results]

    def test_all_policies_registered(self):
        assert set(EXECUTION_POLICIES) == {"serial", "process"}

    def test_empty_selection_raises(self):
        # a selection matching nothing used to yield an empty report — a
        # vacuous 100%-equivalent pass; it must be refused loudly
        config = HarnessConfig(policy="process", workers=2,
                               features=["no.such.feature"])
        runner = ValidationRunner(_BUGGY, config)
        with pytest.raises(EmptySelectionError, match="no.such.feature"):
            runner.run_suite(openacc10_suite())


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------


class TestCompileCache:
    def test_repeat_compiles_hit(self):
        cache = CompileCache()
        cc = Compiler(frontend=cache)
        src = "int main(){ return 1; }"
        first = cache.get_or_compile(cc, src, "c", "t.c")
        second = cache.get_or_compile(cc, src, "c", "t.c")
        assert not first.hit and second.hit
        # one parse, but every compile is a fresh program of its phase
        assert second.program.program is first.program.program
        assert second.program is not first.program

    def test_negative_caching_of_compile_errors(self):
        cache = CompileCache()
        cc = Compiler(frontend=cache)
        src = "int main(){ this is not C }"
        first = cache.get_or_compile(cc, src, "c", "t.c")
        second = cache.get_or_compile(cc, src, "c", "t.c")
        assert first.error is not None and second.hit
        assert str(second.error) == str(first.error)

    def test_behaviors_never_alias(self):
        cache = CompileCache()
        src = "int main(){\n#pragma acc declare copyin(x)\nint x = 1; return x; }"
        ok = cache.get_or_compile(Compiler(frontend=cache), src, "c", "t.c")
        rejecting = Compiler(CompilerBehavior(
            name="nodeclare", version="0",
            unsupported_directives=frozenset({"declare"}),
        ), frontend=cache)
        rejected = cache.get_or_compile(rejecting, src, "c", "t.c")
        assert ok.error is None
        # the parse is shared, the verdict is the behaviour's own
        assert rejected.error is not None and rejected.hit

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        cc = Compiler(frontend=cache)
        sources = [f"int main(){{ return {i}; }}" for i in range(3)]
        for src in sources:
            cache.get_or_compile(cc, src, "c", "t.c")
        # the two newest stay; the oldest was evicted -> recompiling it is
        # a miss
        assert [cache.get_or_compile(cc, src, "c", "t.c").hit
                for src in (sources[2], sources[1], sources[0])] == \
            [True, True, False]

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            CompileCache(maxsize=0)

    def test_runner_reuses_cache_across_runs(self):
        tpl = _template(
            "int main(){ int x = 0; " + check("x = 1;") + " return x; }"
        )
        runner = ValidationRunner(config=HarnessConfig(iterations=2))
        first = runner.run_template(tpl)
        second = runner.run_template(tpl)
        assert not first.functional.cache_hit
        assert second.functional.cache_hit and second.cross.cache_hit
        # cached compiles must not change verdicts
        assert first.passed == second.passed
        assert first.certainty == second.certainty

    def test_cache_disabled_by_config(self):
        runner = ValidationRunner(
            config=HarnessConfig(iterations=1, compile_cache=False)
        )
        assert runner.cache is None
        tpl = _template("int main(){ return 1; }")
        result = runner.run_template(tpl)
        assert result.passed and not result.functional.cache_hit


# ---------------------------------------------------------------------------
# run metrics
# ---------------------------------------------------------------------------


class TestRunMetrics:
    @pytest.fixture(scope="class")
    def report(self):
        return _run("serial", 1)

    def test_metrics_attached_and_consistent(self, report):
        m = report.metrics
        assert isinstance(m, RunMetrics)
        assert m.policy == "serial" and m.workers == 1
        assert m.templates == len(report.results)
        assert m.wall_s > 0.0 and m.compile_s > 0.0 and m.execute_s > 0.0
        assert m.iterations_run == sum(
            len(r.functional.iterations)
            + (len(r.cross.iterations) if r.cross else 0)
            for r in report.results
        )
        assert m.failure_kinds == {
            kind.value: count for kind, count in report.by_failure_kind().items()
        }

    def test_utilization_bounds(self, report):
        assert 0.0 < report.metrics.worker_utilization <= 1.05

    def test_cache_counters_match_phase_flags(self, report):
        hits = sum(
            int(phase.cache_hit)
            for r in report.results
            for phase in (r.functional, r.cross)
            if phase is not None
        )
        assert report.metrics.cache_hits == hits

    def test_process_metrics_track_workers(self):
        report = _run("process", 2)
        assert report.metrics.policy == "process"
        assert report.metrics.workers == 2
        assert 1 <= len(report.metrics.worker_busy_s) <= 2
        assert all(w.startswith("pid-")
                   for w in report.metrics.worker_busy_s)

    def test_metrics_renderers(self, report):
        text = render_metrics_text(report)
        assert "run metrics" in text and "compile cache" in text
        assert "worker utilization" in text
        csv = render_metrics_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"policy", "workers", "wall_s", "cache_hit_rate",
                "worker_utilization"} <= keys

    def test_metrics_renderers_without_metrics(self, report):
        from repro.harness import SuiteRunReport

        bare = SuiteRunReport(compiler_label="x", config=report.config)
        assert "no run metrics" in render_metrics_text(bare)
        assert render_metrics_csv(bare) == "metric,value\n"


# ---------------------------------------------------------------------------
# per-campaign cancellation (the CancelToken bugfix)
# ---------------------------------------------------------------------------


class TestCancelToken:
    def test_token_lifecycle(self):
        from repro.harness import CampaignInterrupted, CancelToken

        token = CancelToken()
        assert not token.cancelled()
        token.check()  # no-op while not cancelled
        token.cancel("test reason")
        assert token.cancelled()
        with pytest.raises(CampaignInterrupted, match="test reason"):
            token.check()

    def test_cli_signal_cancels_only_its_own_token(self):
        import signal

        from repro.cli import _install_drain_handlers, _restore_handlers
        from repro.harness import CampaignInterrupted, CancelToken

        previous = signal.getsignal(signal.SIGINT)
        bystander = CancelToken()
        token, displaced = _install_drain_handlers()
        try:
            signal.raise_signal(signal.SIGINT)
        finally:
            _restore_handlers(displaced)
        assert signal.getsignal(signal.SIGINT) is previous
        assert token.cancelled()
        assert not bystander.cancelled()
        with pytest.raises(CampaignInterrupted,
                           match=f"signal {int(signal.SIGINT)}"):
            token.check()

    def test_second_campaign_after_drained_one_runs_clean(self):
        # satellite regression: campaign 1 drains; campaign 2, with no
        # explicit token, must run to completion on a fresh default
        from repro.harness import CampaignInterrupted, CancelToken

        config = HarnessConfig(iterations=1, languages=("c",),
                               feature_prefixes=["loop", "parallel"])
        runner = ValidationRunner(_BUGGY, config)
        doomed = CancelToken()
        doomed.cancel("drain campaign 1")
        with pytest.raises(CampaignInterrupted):
            runner.run_suite(openacc10_suite(), cancel=doomed)
        report = runner.run_suite(openacc10_suite())
        assert report.results

    def test_stale_global_drain_does_not_poison_new_campaigns(self):
        # the pre-fix failure mode: a drain with no campaign active used to
        # set a process-global flag that made every subsequent run_suite
        # abort on its first unit.  A signal now cancels only the token of
        # the command that installed the handler.
        import signal

        from repro.cli import _install_drain_handlers, _restore_handlers

        token, displaced = _install_drain_handlers()
        try:
            signal.raise_signal(signal.SIGINT)
        finally:
            _restore_handlers(displaced)
        assert token.cancelled()
        config = HarnessConfig(iterations=1, languages=("c",),
                               feature_prefixes=["loop.gang"])
        report = ValidationRunner(_BUGGY, config).run_suite(openacc10_suite())
        assert report.results
        # and the next command starts on a fresh, armed token
        fresh, displaced = _install_drain_handlers()
        _restore_handlers(displaced)
        assert not fresh.cancelled()

    def test_cancelling_one_campaign_leaves_another_untouched(self):
        # per-campaign tokens: after a cancelled campaign, a neighbour on
        # the same process-pool shape renders byte-identical to serial
        from repro.harness import CampaignInterrupted, CancelToken

        config = HarnessConfig(iterations=1, languages=("c",),
                               feature_prefixes=["loop", "parallel"])
        serial = ValidationRunner(_BUGGY, config).run_suite(openacc10_suite())
        pooled = replace(config, policy="process", workers=2)
        doomed = CancelToken()
        doomed.cancel("test")
        with pytest.raises(CampaignInterrupted):
            ValidationRunner(_BUGGY, pooled).run_suite(
                openacc10_suite(), cancel=doomed)
        report = ValidationRunner(_BUGGY, pooled).run_suite(
            openacc10_suite(), cancel=CancelToken())
        assert render_csv(report) == render_csv(serial)

    def test_retry_ladder_aborts_on_drain(self):
        # run_unit_resilient's never-raises contract has one documented
        # exception: a draining campaign must not sit out backoff sleeps
        from repro.faults import FaultPlan
        from repro.harness import (
            CampaignInterrupted,
            CancelToken,
            run_unit_resilient,
        )

        config = HarnessConfig(
            iterations=1, languages=("c",), retries=3, retry_backoff_s=60.0,
            feature_prefixes=["loop.gang"],
            fault_plan=FaultPlan.parse("iteration=1.0,persistent,seed=3"),
        )
        runner = ValidationRunner(_BUGGY, config)
        token = CancelToken()
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            token.cancel("drain mid-backoff")

        runner.sleeper = fake_sleep
        template = next(t for t in openacc10_suite()
                        if t.feature == "loop.gang" and t.language == "c")
        with pytest.raises(CampaignInterrupted):
            run_unit_resilient(runner, template, cancel=token)
        assert len(sleeps) == 1  # aborted after the first backoff


class TestConcurrentCampaigns:
    def _csv(self, config):
        return render_csv(
            ValidationRunner(_BUGGY, config).run_suite(openacc10_suite())
        )

    def test_two_concurrent_run_suites_byte_identical_to_serial(self):
        # two serial campaigns in one process, different configs, racing
        # on separate user threads: each must render exactly like its own
        # run alone (no shared mutable campaign state)
        import threading

        config_a = HarnessConfig(iterations=2, languages=("c",),
                                 feature_prefixes=["loop", "parallel"])
        config_b = HarnessConfig(iterations=1, languages=("c",),
                                 feature_prefixes=["declare", "update"])
        expected = {"a": self._csv(config_a), "b": self._csv(config_b)}
        results: dict = {}

        def campaign(name, config):
            results[name] = self._csv(config)

        threads = [
            threading.Thread(target=campaign, args=("a", config_a)),
            threading.Thread(target=campaign, args=("b", config_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == expected

    def test_cancelling_one_concurrent_campaign_leaves_other_untouched(self):
        # the tentpole scenario, in-process: campaign A is cancelled
        # mid-flight, campaign B races it to completion and must render
        # byte-identical to its serial reference
        import threading

        from repro.harness import CampaignInterrupted, CancelToken

        config_a = HarnessConfig(iterations=5)  # big: both languages
        config_b = HarnessConfig(iterations=1, languages=("c",),
                                 feature_prefixes=["loop", "parallel"])
        expected_b = self._csv(config_b)
        token_a = CancelToken()
        started = threading.Event()
        outcome: dict = {}

        def campaign_a():
            from repro.obs import EventTracer

            # the first event A reports proves it is running
            tracer = EventTracer()
            tracer.subscribe(lambda name, fields: started.set())
            runner = ValidationRunner(_BUGGY, config_a, tracer=tracer)
            try:
                runner.run_suite(openacc10_suite(), cancel=token_a)
                outcome["a"] = "finished"
            except CampaignInterrupted:
                outcome["a"] = "interrupted"

        def campaign_b():
            outcome["b"] = self._csv(config_b)

        thread_a = threading.Thread(target=campaign_a)
        thread_b = threading.Thread(target=campaign_b)
        thread_a.start()
        assert started.wait(timeout=60)  # A is genuinely mid-flight
        thread_b.start()
        token_a.cancel("cancel A, not B")
        thread_a.join()
        thread_b.join()
        assert outcome["a"] == "interrupted"
        assert outcome["b"] == expected_b
