"""Replicated iterations: a phase executes iteration 0 and, when that run
never called ``rand``/``srand``, the execute memo stores its outcome for
every seed and serves iterations 1..M-1 from it.

The differential oracle here forces every iteration to execute (by making
every execute-memo lookup miss) and requires byte-identical reports over a
vendor sample, on the interpreter and on the reference tree walker.  The
remaining tests pin the fail-closed rule (any RNG call executes every
iteration with its own seed) and what still happens once per iteration:
the ``iteration`` fault site, ``iteration.failed`` events and the
wall-clock deadline check.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.compiler import Compiler, ProgramRunner
from repro.compiler.cache import CompileCache
from repro.compiler.vendors import vendor_version, vendor_versions
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import InjectedRuntimeCrash
from repro.harness import (
    FailureKind,
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_metrics_csv,
    render_metrics_text,
    render_text,
)
from repro.harness.runner import TemplateTimeout
from repro.obs import Tracer
from repro.obs.live import read_live
from repro.suite.builders import template_text
from repro.templates import parse_template

#: a feature sample that reaches every verdict the sampled vendors give:
#: passes with conclusive crosses, wrong values, runtime crashes
#: (kernels, kernels.if) and compile errors
_FEATURES = [
    "parallel", "parallel.num_gangs", "parallel.async", "kernels",
    "kernels.if", "kernels.copy", "loop.reduction.int_add", "loop.private",
    "loop.collapse", "update.host", "update.device", "runtime.acc_on_device",
    "runtime.acc_async_test", "wait", "data.create", "declare.copy",
]


def _template(code: str, feature: str = "parallel"):
    return parse_template(template_text(
        name="t.c", feature=feature, language="c", code=code))


def _sample_reports(suite, config):
    """Reports of every third CAPS/PGI/Cray version in both languages."""
    cache = CompileCache()
    reports = []
    for vendor in ("caps", "pgi", "cray"):
        for vv in vendor_versions(vendor)[::3]:
            for language in ("c", "fortran"):
                runner = ValidationRunner(
                    vv.behavior(language),
                    replace(config, languages=(language,)), cache=cache)
                reports.append(runner.run_suite(suite))
    return reports


def _executed(reports):
    return (sum(r.metrics.programs_executed for r in reports),
            sum(r.metrics.iterations_run for r in reports))


def _memo_hits(reports):
    return sum(r.metrics.memo_hits for r in reports)


# ---------------------------------------------------------------------------
# the differential oracle: replicated vs executed iterations
# ---------------------------------------------------------------------------


def test_vendor_sample_identical_to_forced_execution(suite10, memo_off):
    config = HarnessConfig(iterations=3, features=_FEATURES)
    replicated = _sample_reports(suite10, config)
    with memo_off():
        forced = _sample_reports(suite10, config)
    assert len(replicated) == 18
    for fast, slow in zip(replicated, forced):
        assert render_csv(fast) == render_csv(slow)
        assert render_text(fast) == render_text(slow)
    kinds = {kind for r in replicated for kind in r.by_failure_kind()}
    assert {FailureKind.WRONG_VALUE, FailureKind.RUNTIME_CRASH,
            FailureKind.COMPILE_ERROR} <= kinds
    executed, iterations = _executed(replicated)
    # no shipped template reads the RNG: a phase runs iteration 0 once or
    # an earlier phase's run serves it, and the memo serves the others
    assert iterations == 3 * (executed + _memo_hits(replicated))
    assert _executed(forced) == (iterations, iterations)


def test_tree_oracle_identical_to_forced_execution(suite10, tree_oracle,
                                                   memo_off):
    behavior = vendor_version("pgi", "13.2").behavior("c")
    config = HarnessConfig(iterations=3, languages=("c",),
                           features=_FEATURES)
    with tree_oracle():
        replicated = ValidationRunner(behavior, config).run_suite(suite10)
        with memo_off():
            forced = ValidationRunner(behavior, config).run_suite(suite10)
    closures = ValidationRunner(behavior, config).run_suite(suite10)
    assert render_csv(replicated) == render_csv(forced) == \
        render_csv(closures)
    assert render_text(replicated) == render_text(forced)
    assert replicated.metrics.programs_executed < \
        forced.metrics.programs_executed == forced.metrics.iterations_run


# ---------------------------------------------------------------------------
# fail closed: any RNG call executes every iteration with its own seed
# ---------------------------------------------------------------------------


def test_rand_program_executes_every_iteration_with_its_own_seed():
    template = _template("int main(){ int r = rand(); return r % 2; }")
    config = HarnessConfig(iterations=4, run_cross=False)
    phase = ValidationRunner(config=config).run_template(template).functional
    assert phase.executed == 4
    compiled = Compiler().compile(phase.source, "c", "t.c")
    expected = [compiled.run(rng_seed=seed).value
                for seed in config.iteration_seeds()]
    assert [it.value for it in phase.iterations] == expected
    assert len({it.ok for it in phase.iterations}) == 2  # outcomes differ
    assert phase.incorrect_runs == 2


def test_constant_srand_still_executes_every_iteration():
    template = _template("int main(){ srand(1); return 1; }")
    phase = ValidationRunner(config=HarnessConfig(
        iterations=3, run_cross=False)).run_template(template).functional
    assert phase.executed == 3
    assert all(it.ok for it in phase.iterations)


def test_rng_flag_survives_a_run_that_raised():
    # rand() and then a step-budget timeout: the runner still learns that
    # the run read the RNG, so the other iterations execute too
    template = _template(
        "int main(){ int r = rand(); while (1) { r = r + 1; } return r; }")
    config = HarnessConfig(iterations=3, run_cross=False, max_steps=500)
    phase = ValidationRunner(config=config).run_template(template).functional
    assert phase.executed == 3
    assert [it.kind for it in phase.iterations] == [FailureKind.TIMEOUT] * 3


@pytest.mark.parametrize("code,kind", [
    ("int main(){ while (1) { } return 1; }", FailureKind.TIMEOUT),
    ("int main(){ int a[4]; a[9] = 1; return 1; }",
     FailureKind.RUNTIME_CRASH),
    ("int main(){ return 0; }", FailureKind.WRONG_VALUE),
])
def test_seed_independent_verdicts_are_replicated(code, kind):
    config = HarnessConfig(iterations=3, run_cross=False, max_steps=500)
    phase = ValidationRunner(config=config).run_template(
        _template(code)).functional
    assert phase.executed == 1
    assert [it.kind for it in phase.iterations] == [kind] * 3
    assert len({(it.error, it.value, it.steps)
                for it in phase.iterations}) == 1


def test_interpreter_resets_rng_flag_on_reuse():
    # a reused ProgramRunner reads the flag of each run's own interpreter
    compiled = Compiler().compile("int main(){ return 1; }", "c", "t.c")
    runner = ProgramRunner(compiled)
    assert runner.rng_used  # nothing is reused before a run was seen
    runner.run()
    assert not runner.rng_used
    runner.rng_used = True  # as a run that called rand() leaves it
    runner.run()
    assert not runner.rng_used


# ---------------------------------------------------------------------------
# what still happens once per iteration
# ---------------------------------------------------------------------------


class _RecordingInjector(FaultInjector):
    """Records every iteration-site key; fires only where told to."""

    def __init__(self, plan, fire=()):
        super().__init__(plan, sleeper=self._sleep)
        self.keys = []
        self.fire = set(fire)
        #: seconds the injected stalls added to the runner's clock
        self.slept = 0.0

    def _sleep(self, seconds):
        self.slept += seconds

    def fires(self, site, rate, key, attempt=None):
        return (site, key) in self.fire

    def iteration_site(self, key):
        self.keys.append(key)
        super().iteration_site(key)


def test_fault_site_and_failed_events_fire_for_every_iteration():
    tracer = Tracer()
    config = HarnessConfig(iterations=4, run_cross=False)
    runner = ValidationRunner(config=config, tracer=tracer)
    runner.faults = _RecordingInjector(FaultPlan(seed=0))
    phase = runner.run_template(
        _template("int main(){ return 0; }")).functional
    assert phase.executed == 1
    pkey = "parallel:c:functional"
    assert runner.faults.keys == [f"{pkey}:{k}" for k in range(4)]
    failed = [e for e in tracer.events if e.name == "iteration.failed"]
    assert [e.fields["seed"] for e in failed] == config.iteration_seeds()
    execute = [s for s in tracer.spans if s.name == "execute"]
    assert execute[0].attrs["iterations"] == 4
    assert execute[0].attrs["executed"] == 1


def test_injected_crash_on_a_replicated_iteration_still_raises():
    runner = ValidationRunner(config=HarnessConfig(iterations=3,
                                                   run_cross=False))
    pkey = "parallel:c:functional"
    runner.faults = _RecordingInjector(
        FaultPlan(seed=0, iteration_crash=1.0),
        fire=[("iteration", f"{pkey}:2")])
    with pytest.raises(InjectedRuntimeCrash):
        runner.run_template(_template("int main(){ return 1; }"))
    assert runner.faults.keys == [f"{pkey}:{k}" for k in range(3)]


def test_stall_on_a_replicated_iteration_trips_the_timeout(monkeypatch):
    import repro.harness.runner as runner_module

    pkey = "parallel:c:functional"
    faults = _RecordingInjector(FaultPlan(seed=0, stall=1.0, stall_s=60.0),
                                fire=[("stall", f"{pkey}:2")])
    # the stall advances the runner's clock instead of sleeping
    real = time.monotonic
    monkeypatch.setattr(runner_module.time, "monotonic",
                        lambda: real() + faults.slept)
    runner = ValidationRunner(config=HarnessConfig(
        iterations=4, run_cross=False, template_timeout_s=30.0))
    runner.faults = faults
    with pytest.raises(TemplateTimeout):
        runner.run_template(_template("int main(){ return 1; }"))
    # the deadline tripped right after k=2's stall, before k=3
    assert faults.keys == [f"{pkey}:{k}" for k in range(3)]


def test_reused_outcomes_are_copies():
    phase = ValidationRunner(config=HarnessConfig(
        iterations=3, run_cross=False)).run_template(
            _template("int main(){ return 1; }")).functional
    assert phase.executed == 1
    first, second, third = phase.iterations
    assert first == second == third
    assert second is not first and third is not second
    second.value = 99
    second.ok = False
    assert first.value == 1 and first.ok
    assert third.value == 1


# ---------------------------------------------------------------------------
# accounting: executions vs verdict iterations
# ---------------------------------------------------------------------------


def test_metrics_render_executed_next_to_iterations(suite10):
    report = ValidationRunner(config=HarnessConfig(
        iterations=3, languages=("c",),
        features=["parallel", "kernels"])).run_suite(suite10)
    m = report.metrics
    assert (m.iterations_run, m.programs_executed) == (12, 4)
    assert "iterations         : 12 (4 executed)" in \
        render_metrics_text(report)
    csv_rows = render_metrics_csv(report).splitlines()
    assert "iterations_run,12" in csv_rows
    assert "programs_executed,4" in csv_rows


@pytest.mark.parametrize("policy,workers", [("serial", 1), ("process", 2)])
def test_live_tally_reconciles_executed(tmp_path, suite10, policy, workers):
    stream = tmp_path / "run.ndjson"
    behavior = vendor_version("pgi", "13.2").behavior("c")
    report = ValidationRunner(behavior, HarnessConfig(
        iterations=3, languages=("c",), features=_FEATURES,
        policy=policy, workers=workers,
        live_stream=str(stream))).run_suite(suite10)
    metrics = report.metrics
    parsed = read_live(str(stream))
    tally = parsed.tally()
    assert tally.programs_executed == metrics.programs_executed
    assert tally.iterations_run == metrics.iterations_run
    assert metrics.programs_executed < metrics.iterations_run
    final = parsed.final_snapshot
    assert final["programs_executed"] == metrics.programs_executed
    assert final["run_metrics"]["programs_executed"] == \
        metrics.programs_executed
