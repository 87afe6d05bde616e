"""Every phase is freed by reference counting: no campaign leaves a
reference cycle behind.

A campaign is thousands of short compile-and-run phases.  Garbage that
only the cyclic collector can free makes the collector run often, and
each full collection walks the campaign's whole retained parse tier.
So these tests run serial campaigns with the collector off and require
that

* each run's :class:`~repro.compiler.interp.Interpreter` and
  :class:`~repro.accsim.machine.Machine` are dead once the harness holds
  the run's outcome, and each phase's host
  :class:`~repro.compiler.closures.LoweredProgram` once the phase ends;
* once the campaign is dropped, ``gc.collect()`` under ``DEBUG_SAVEALL``
  finds no object whose type or function a ``repro`` module defines, no
  ``repro`` frame and no :class:`~repro.frontend.tokens.Token`.
"""

from __future__ import annotations

import gc
import os
import types
import weakref
from dataclasses import replace
from typing import List

import pytest

import repro
from repro.analysis import vendor_pass_rates
from repro.compiler.behavior import REFERENCE_BEHAVIOR
from repro.compiler.interp import Interpreter
from repro.compiler.pipeline import CompiledProgram
from repro.faults import FaultPlan
from repro.frontend.tokens import Token
from repro.harness import (
    FailureKind,
    HarnessConfig,
    TitanCluster,
    TitanHarness,
    ValidationRunner,
)
from repro.journal import JournalWriter, validate_campaign_key
from repro.obs import Tracer
from repro.suite.builders import template_text
from repro.templates import parse_template

#: a C+Fortran sample whose features split the CAPS versions (compile
#: errors, wrong code and passes) and trip every Titan fault model
_FEATURES = (
    "data.copyout", "declare.copy", "kernels", "loop.collapse",
    "parallel.async", "parallel.reduction", "runtime.acc_async_test",
    "update.host", "wait",
)

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _from_repro(obj) -> bool:
    if isinstance(obj, types.FrameType):
        return obj.f_code.co_filename.startswith(_REPRO_DIR)
    if isinstance(obj, Token):
        return True
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    else:
        module = type(obj).__module__
    return module == "repro" or module.startswith("repro.")


def _describe(obj) -> str:
    if isinstance(obj, types.FrameType):
        return f"frame {obj.f_code.co_name} ({obj.f_code.co_filename})"
    if isinstance(obj, types.FunctionType):
        return f"function {obj.__module__}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


class _Lifetimes:
    """Weak references to every run's interpreter and machine and every
    phase's host lowering, checked where they must be dead."""

    def __init__(self):
        self.runs: List[weakref.ref] = []
        self.lowerings: List[weakref.ref] = []
        self.outcomes = 0
        self.phases = 0
        self.alive: List[str] = []

    def check_runs(self) -> None:
        self.outcomes += 1
        for ref in self.runs:
            if ref() is not None:
                self.alive.append(f"{type(ref()).__name__} after its run")
        self.runs.clear()

    def check_phase(self) -> None:
        self.phases += 1
        if any(ref() is not None for ref in self.lowerings):
            self.alive.append("LoweredProgram after its phase")
        self.lowerings.clear()


@pytest.fixture()
def lifetimes(monkeypatch):
    seen = _Lifetimes()
    real_init = Interpreter.__init__
    real_lowered = CompiledProgram.lowered
    real_run_once = ValidationRunner._run_once
    real_phase = ValidationRunner._run_phase

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        seen.runs += [weakref.ref(self), weakref.ref(self.machine)]

    def lowered(self):
        lowering = real_lowered(self)
        seen.lowerings.append(weakref.ref(lowering))
        return lowering

    def run_once(*args, **kwargs):
        outcome = real_run_once(*args, **kwargs)
        seen.check_runs()
        return outcome

    def run_phase(self, *args, **kwargs):
        phase = real_phase(self, *args, **kwargs)
        seen.check_phase()
        return phase

    monkeypatch.setattr(Interpreter, "__init__", init)
    monkeypatch.setattr(CompiledProgram, "lowered", lowered)
    monkeypatch.setattr(ValidationRunner, "_run_once", staticmethod(run_once))
    monkeypatch.setattr(ValidationRunner, "_run_phase", run_phase)
    return seen


def _sample(suite) -> HarnessConfig:
    features = sorted({t.feature for t in suite if t.feature in _FEATURES})
    assert len(features) == len(_FEATURES)
    return HarnessConfig(features=features, policy="serial")


def _reference_campaign(suite, tmp_path) -> None:
    """M=3 with cross, lint, a journal, a live stream and a profiling
    trace."""
    config = replace(_sample(suite), iterations=3, run_cross=True, lint=True,
                     live_stream=str(tmp_path / "live.ndjson"))
    campaign = validate_campaign_key("openacc10", REFERENCE_BEHAVIOR, config)
    journal = JournalWriter.create(str(tmp_path / "campaign.journal"),
                                   campaign)
    try:
        report = ValidationRunner(None, config, tracer=Tracer()).run_suite(
            suite, journal=journal)
    finally:
        journal.close()
    assert {r.language for r in report.results} == {"c", "fortran"}
    assert all(r.cross is not None for r in report.results)


def _caps_sweep(suite, tmp_path) -> None:
    """A Fig. 8 CAPS sweep over one shared cache, with compile errors."""
    config = replace(_sample(suite), iterations=1, run_cross=False)
    points = vendor_pass_rates("caps", suite, config)
    kinds = {r.failure_kind for runs in points.values() for point in runs
             for r in point.report.results}
    assert FailureKind.COMPILE_ERROR in kinds


class _CountingTitan(TitanHarness):
    """Counts every node/stack check, triage re-checks included."""

    checked = 0

    def check_node(self, node, stack, config=None, unit=None):
        self.checked += 1
        return super().check_node(node, stack, config=config, unit=unit)


def _titan_sweep(suite, tmp_path) -> None:
    """Degraded stacks, flagged checks and their triage re-checks,
    traced."""
    config = replace(_sample(suite), iterations=1, run_cross=False,
                     languages=("c",))
    cluster = TitanCluster(num_nodes=6, degraded_fraction=0.5, seed=7)
    harness = _CountingTitan(cluster, suite, config=config, tracer=Tracer())
    checks = harness.sweep(sample_size=6, seed=7)
    assert any(check.flagged for check in checks)
    assert harness.checked > len(checks)  # re-checks ran


_ASYNC_CRASH = """
int main() {
  int a[4];
  int z = 0;
  #pragma acc parallel async(1) copy(a[0:4])
  { a[0] = 1 / z; }
  #pragma acc parallel async(2) copy(a[0:4])
  { a[1] = 2; }
  return 1;
}
"""

_FORTRAN_CRASH = """
program crash
  integer :: z
  z = 0
  main = 1 / z
end program crash
"""

_FORTRAN_FOREVER = """
program forever
  integer :: x
  x = 1
  do while (x == 1)
    x = 1
  end do
  main = x
end program forever
"""


def _failing_programs(suite, tmp_path) -> None:
    """Run-time crashes (one in a deferred async region, with more work
    still queued) and step-budget overruns, in C and Fortran."""
    runner = ValidationRunner(config=HarnessConfig(iterations=2,
                                                   max_steps=2000))
    programs = [
        ("c", "int main(){ int z = 0; return 1 / z; }",
         FailureKind.RUNTIME_CRASH),
        ("c", _ASYNC_CRASH, FailureKind.RUNTIME_CRASH),
        ("c", "int main(){ int x = 1; while (x) x = 1; return 0; }",
         FailureKind.TIMEOUT),
        ("fortran", _FORTRAN_CRASH, FailureKind.RUNTIME_CRASH),
        ("fortran", _FORTRAN_FOREVER, FailureKind.TIMEOUT),
    ]
    for language, code, kind in programs:
        name = "t.c" if language == "c" else "t.f90"
        template = parse_template(template_text(
            name=name, feature="loop", language=language, code=code))
        assert runner.run_template(template).failure_kind is kind, code


def _faulty_campaign(suite, tmp_path) -> None:
    """Injected compile and run-time crashes, retried: some heal, some
    use up the retry budget and become harness errors."""
    plan = FaultPlan(seed=3, compile_crash=0.3, iteration_crash=0.3,
                     max_fires=2)
    config = replace(_sample(suite), iterations=2, retries=1,
                     retry_backoff_s=0.0, fault_plan=plan)
    report = ValidationRunner(None, config).run_suite(suite)
    kinds = [r.failure_kind for r in report.results]
    assert FailureKind.HARNESS_ERROR in kinds
    assert kinds.count(FailureKind.HARNESS_ERROR) < len(kinds)


_CAMPAIGNS = [_reference_campaign, _caps_sweep, _titan_sweep,
              _failing_programs, _faulty_campaign]


@pytest.mark.parametrize("campaign", _CAMPAIGNS,
                         ids=[c.__name__.strip("_") for c in _CAMPAIGNS])
def test_campaign_is_freed_by_reference_counting(campaign, suite10, tmp_path,
                                                 lifetimes, collector_off):
    gc.collect()
    debug = gc.get_debug()
    try:
        campaign(suite10, tmp_path)
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [_describe(obj) for obj in gc.garbage if _from_repro(obj)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    gc.collect()  # the stdlib's own cycles, saved above
    assert lifetimes.outcomes and lifetimes.phases
    assert lifetimes.alive == []
    assert cyclic == []


def test_live_streamed_campaign_leaves_no_cyclic_garbage(suite10, tmp_path,
                                                          collector_off):
    """Not even the stdlib's: the live stream's final snapshot goes
    through the C JSON encoder, not the pure-Python one (an indented dump)
    whose closures form cycles."""
    gc.collect()
    debug = gc.get_debug()
    try:
        _reference_campaign(suite10, tmp_path)
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [_describe(obj) for obj in gc.garbage]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert (tmp_path / "live.ndjson.snapshot.json").exists()
    assert cyclic == []
