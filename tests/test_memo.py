"""The execute memo: a compiled program runs once per distinct set of
behaviour answers, and every other behaviour that answers alike reuses the
outcome.

The differential oracle here turns the memo off (by making every lookup
miss) and requires byte-identical reports over a vendor sample, on the
interpreter and on the reference tree walker.  The remaining tests pin the
fail-closed recording surface (a new field, ``label``, iterating a set,
pickling, the RNG), what a memo hit still does once per iteration, and
what the memo never stores.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
from dataclasses import dataclass, replace

import pytest

from repro.accsim.errors import AccRuntimeError
from repro.compiler import Compiler, CompilerBehavior
from repro.compiler.behavior import BehaviorRecorder, BehaviorTrace
from repro.compiler.cache import CompileCache
from repro.compiler.exec_model import AccExecutor
from repro.compiler.interp import _require_routine
from repro.compiler.vendors import vendor_version, vendor_versions
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import InjectedRuntimeCrash
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_metrics_csv,
    render_metrics_text,
    render_text,
)
from repro.harness.runner import TemplateTimeout
from repro.harness.titan import default_degradation, default_stacks
from repro.journal import decode_result, encode_result
from repro.obs import Tracer
from repro.obs.sink import TraceData
from repro.obs.summary import render_summary_text, summarize_trace
from repro.spec.devices import ACC_DEVICE_HOST, ACC_DEVICE_NONE
from repro.suite.builders import template_text
from repro.templates import parse_template

#: the replication differential's sample: every verdict the sampled
#: vendors give, with conclusive crosses
_FEATURES = [
    "parallel", "parallel.num_gangs", "parallel.async", "kernels",
    "kernels.if", "kernels.copy", "loop.reduction.int_add", "loop.private",
    "loop.collapse", "update.host", "update.device", "runtime.acc_on_device",
    "runtime.acc_async_test", "wait", "data.create", "declare.copy",
]


#: the Titan differential's sample: every template that can tell the ten
#: Titan behaviours apart (device types, and each degradation's construct)
#: beside constructs whose behaviour reads are now guarded
_TITAN_FEATURES = [
    "parallel", "runtime.acc_set_device_type", "env.ACC_DEVICE_TYPE",
    "runtime.acc_on_device", "runtime.acc_get_num_devices",
    "runtime.acc_shutdown", "update.host", "update.device", "update.async",
    "parallel.async", "kernels.async", "runtime.acc_async_test",
    "data.copyout", "parallel.copyout", "data.present_or_copyout",
    "kernels.copy", "data.copyin", "declare.copy", "parallel.private",
    "parallel.firstprivate", "loop.private", "parallel.reduction",
    "loop.reduction.int_add", "loop.reduction.double_mul",
]


def _titan_behaviors():
    """A Titan node's ten possible stacks: both healthy ones and each of
    their four degradations."""
    out = []
    for healthy in default_stacks().values():
        out.append(healthy)
        out.extend(default_degradation(healthy, k) for k in range(4))
    return out


def _template(code: str, feature: str = "parallel"):
    return parse_template(template_text(
        name="t.c", feature=feature, language="c", code=code))


def _sample_runs(suite, config, cache=None):
    """Every third CAPS/PGI/Cray version in both languages, sharing one
    cache (a fresh one unless given)."""
    cache = cache if cache is not None else CompileCache()
    reports = []
    for vendor in ("caps", "pgi", "cray"):
        for vv in vendor_versions(vendor)[::3]:
            for language in ("c", "fortran"):
                runner = ValidationRunner(
                    vv.behavior(language),
                    replace(config, languages=(language,)), cache=cache)
                reports.append(runner.run_suite(suite))
    return reports


def _memo_hits(reports):
    return sum(r.metrics.memo_hits for r in reports)


# ---------------------------------------------------------------------------
# the differential oracle: memo on vs off
# ---------------------------------------------------------------------------


def test_vendor_sample_identical_without_the_memo(suite10, memo_off):
    config = HarnessConfig(iterations=3, features=_FEATURES)
    served = _sample_runs(suite10, config)
    with memo_off():
        executed = _sample_runs(suite10, config)
    assert len(served) == 18
    for fast, slow in zip(served, executed):
        assert render_csv(fast) == render_csv(slow)
        assert render_text(fast) == render_text(slow)
    assert _memo_hits(served) > 0
    assert _memo_hits(executed) == 0
    # without the memo every verdict iteration runs its program
    iterations = sum(r.metrics.iterations_run for r in executed)
    assert sum(r.metrics.programs_executed for r in executed) == iterations
    assert sum(r.metrics.programs_executed for r in served) < iterations


def test_titan_stacks_identical_without_the_memo(suite10, memo_off):
    config = HarnessConfig(iterations=2, features=_TITAN_FEATURES)

    def run_all():
        cache = CompileCache()
        return [ValidationRunner(behavior, replace(config, languages=(lang,)),
                                 cache=cache).run_suite(suite10)
                for behavior in _titan_behaviors()
                for lang in ("c", "fortran")]

    served = run_all()
    with memo_off():
        executed = run_all()
    assert len(served) == 20
    for fast, slow in zip(served, executed):
        assert render_csv(fast) == render_csv(slow)
        assert render_text(fast) == render_text(slow)
        for quick, ran in zip(fast.results, slow.results):
            assert quick.functional.iterations == ran.functional.iterations
            if ran.cross is not None:
                assert quick.cross.iterations == ran.cross.iterations
    assert _memo_hits(executed) == 0
    # each OpenCL stack runs after its CUDA twin, which differs only in
    # the device type: served wherever the run never asked for it
    assert all(r.metrics.memo_hits > 0 for r in served[10:])


def test_the_second_healthy_stack_runs_only_the_device_type_templates(
        suite10):
    config = HarnessConfig(iterations=1, run_cross=False)
    cache = CompileCache()
    first, second = [ValidationRunner(stack, config, cache=cache)
                     .run_suite(suite10)
                     for stack in default_stacks().values()]
    assert first.metrics.programs_executed == len(suite10)
    ran = sorted((r.template.feature, r.template.language)
                 for r in second.results if r.functional.executed)
    assert ran == [("env.ACC_DEVICE_TYPE", "c"),
                   ("env.ACC_DEVICE_TYPE", "fortran"),
                   ("runtime.acc_set_device_type", "c"),
                   ("runtime.acc_set_device_type", "fortran")]
    assert second.metrics.programs_executed == 4


def test_tree_oracle_identical_without_the_memo(suite10, tree_oracle,
                                                memo_off):
    # two PGI versions sharing a cache: the second is served by the first
    config = HarnessConfig(iterations=3, languages=("c",),
                           features=_FEATURES)
    versions = [vendor_version("pgi", v).behavior("c")
                for v in ("13.2", "13.4")]

    def run_both():
        cache = CompileCache()
        return [ValidationRunner(b, config, cache=cache).run_suite(suite10)
                for b in versions]

    with tree_oracle():
        served = run_both()
    with memo_off():
        executed = run_both()
    for fast, slow in zip(served, executed):
        assert render_csv(fast) == render_csv(slow)
        assert render_text(fast) == render_text(slow)
    assert served[1].metrics.memo_hits > 0


# ---------------------------------------------------------------------------
# the recording surface fails closed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Extended(CompilerBehavior):
    """A behaviour with a field the recorder has never heard of."""

    new_toggle: bool = False


def test_a_new_field_is_recorded_whole(monkeypatch):
    original = AccExecutor._exec_compute

    def consulting(self, plan, env):
        self.behavior.new_toggle  # a decision point added later
        return original(self, plan, env)

    monkeypatch.setattr(AccExecutor, "_exec_compute", consulting)
    recorder = BehaviorRecorder(_Extended())
    assert recorder.new_toggle is False
    assert ("new_toggle", False) in recorder.trace().reads

    cache = CompileCache()
    config = HarnessConfig(iterations=1, run_cross=False)
    template = _template("int main(){ int a = 0;\n"
                         "#pragma acc parallel num_gangs(1)\n"
                         "{ a = 1; }\n return a; }")

    def phase(behavior):
        runner = ValidationRunner(behavior, config, cache=cache)
        return runner.run_template(template).functional

    assert phase(_Extended()).executed == 1
    # another answer to the new field's question: runs again
    flipped = phase(_Extended(new_toggle=True))
    assert flipped.executed == 1 and not flipped.memo_hit
    # a different name is never asked for: served
    renamed = phase(_Extended(name="other"))
    assert renamed.executed == 0 and renamed.memo_hit


class _Run:
    """Just enough interpreter for a runtime binding."""

    def __init__(self, behavior):
        self.behavior = behavior


def test_label_in_an_error_keys_on_the_whole_behaviour():
    behavior = CompilerBehavior(unsupported_routines=frozenset({"acc_init"}))
    recorder = BehaviorRecorder(behavior)
    _require_routine(_Run(recorder), "acc_on_device", None)
    trace = recorder.trace()
    assert trace.whole is None
    assert trace.queries == (("unsupported_routines", "acc_on_device",
                              False),)
    with pytest.raises(AccRuntimeError, match="not provided by reference"):
        _require_routine(_Run(recorder), "acc_init", None)
    trace = recorder.trace()
    assert trace.whole == behavior
    assert trace.answers_alike(behavior)
    assert not trace.answers_alike(behavior.with_(version="1.1"))


def test_iterating_or_sizing_a_set_records_the_whole_set():
    behavior = CompilerBehavior(broken_reductions=frozenset({"+"}))
    recorder = BehaviorRecorder(behavior)
    assert "*" not in recorder.broken_reductions
    assert recorder.trace().reads == ()
    assert [op for op in recorder.broken_reductions] == ["+"]
    trace = recorder.trace()
    assert ("broken_reductions", frozenset({"+"})) in trace.reads
    # a behaviour that agrees on "*" but not on the whole set differs
    assert not trace.answers_alike(
        behavior.with_(broken_reductions=frozenset({"+", "max"})))

    sized = BehaviorRecorder(behavior)
    assert len(sized.ignored_loop_levels) == 0
    assert ("ignored_loop_levels", frozenset()) in sized.trace().reads


def test_repeated_reads_are_plain_attributes():
    recorder = BehaviorRecorder(CompilerBehavior())
    first = recorder.ignore_async
    assert "ignore_async" in vars(recorder)
    assert recorder.ignore_async is first
    assert recorder.trace().reads == (("ignore_async", False),)
    assert recorder.broken_reductions is recorder.broken_reductions


def test_a_recorder_never_pickles():
    behavior = vendor_version("pgi", "13.2").behavior("c")
    compiled = Compiler(behavior).compile(
        "int main(){ return 1; }", "c", "t.c")
    runner = compiled.runner()
    runner.run()
    with pytest.raises(TypeError, match="never pickled"):
        pickle.dumps(BehaviorRecorder(behavior))
    # what crosses to a pool worker carries the real behaviour
    clone = pickle.loads(pickle.dumps(compiled))
    assert type(clone.behavior) is CompilerBehavior
    assert clone.behavior == behavior


def test_an_rng_program_hits_only_under_the_same_seed():
    cache = CompileCache()
    template = _template("int main(){ int r = rand(); return 1 + r - r; }")
    config = HarnessConfig(iterations=2, run_cross=False)

    def phase(behavior, cfg=config):
        runner = ValidationRunner(behavior, cfg, cache=cache)
        return runner.run_template(template).functional

    first = phase(CompilerBehavior())
    assert first.executed == 2 and not first.memo_hit
    again = phase(CompilerBehavior(name="other"))
    assert again.executed == 0 and again.memo_hit
    reseeded = phase(CompilerBehavior(name="other"),
                     replace(config, rng_seed=config.rng_seed + 7))
    assert reseeded.executed == 2 and not reseeded.memo_hit


def test_default_sizes_are_read_only_where_a_clause_is_absent():
    sized = ("int main(){ int a = 0;\n"
             "#pragma acc parallel num_gangs(2) num_workers(1) "
             "vector_length(1) copy(a)\n{ a = 1; }\n return a; }")
    compiled = Compiler().compile(sized, "c", "t.c")
    runner = compiled.runner()
    assert runner.run().value == 1
    read = dict(runner.trace.reads)
    for name in ("default_num_gangs", "default_num_workers",
                 "default_vector_length", "mapping_description",
                 "worker_ignored"):
        assert name not in read
    # so a vendor mapping with other defaults shares the run
    assert runner.trace.answers_alike(CompilerBehavior(
        default_num_gangs=64, default_vector_length=128,
        mapping_description="gang->block, vector->threads"))

    bare = Compiler().compile(sized.replace(
        " num_gangs(2) num_workers(1) vector_length(1)", ""), "c", "t.c")
    runner = bare.runner()
    runner.run()
    assert dict(runner.trace.reads)["default_num_gangs"] == 16
    assert not runner.trace.answers_alike(CompilerBehavior(
        default_num_gangs=64))


def test_the_worker_count_is_read_only_where_a_worker_loop_runs():
    loop = ("int main(){ int a[8]; int i;\n"
            "#pragma acc parallel loop gang vector copyout(a)\n"
            "for (i = 0; i < 8; i++) a[i] = i;\n return a[7] - 6; }")
    pgi = vendor_version("pgi", "13.2").behavior("c")
    assert pgi.worker_ignored
    runner = Compiler(pgi).compile(loop, "c", "t.c").runner()
    assert runner.run().value == 1
    # PGI ignores worker, which only a worker loop can show: this run
    # is the reference compiler's
    assert runner.trace.answers_alike(CompilerBehavior())

    worker = loop.replace("gang vector", "gang worker")
    runner = Compiler(pgi).compile(worker, "c", "t.c").runner()
    assert runner.run().value == 1
    assert dict(runner.trace.reads)["worker_ignored"] is True
    assert not runner.trace.answers_alike(CompilerBehavior())


def _reads(code: str, behavior=None):
    """The fields one run of ``code`` read, with their answers."""
    compiled = Compiler(behavior or CompilerBehavior()).compile(
        code, "c", "t.c")
    runner = compiled.runner()
    runner.run()
    return dict(runner.trace.reads)


def test_the_device_type_is_read_only_where_a_request_names_one():
    region = ("int main(){ int a = 0, h = 0, d = 0, n = 0;\n"
              "acc_set_device_type(acc_device_not_host);\n"
              "n = acc_get_num_devices(acc_device_not_host);\n"
              "h = acc_on_device(acc_device_host);\n"
              "#pragma acc parallel num_gangs(1) copy(a, d)\n"
              "{ a = 1; d = acc_on_device(acc_device_not_host); }\n"
              " return a + d + n - h; }")
    assert "concrete_device_type" not in _reads(region)
    named = ("int main(){\n"
             " return acc_get_device_type() == acc_device_host; }")
    read = _reads(named)
    assert read["concrete_device_type"] == CompilerBehavior().concrete_device_type
    vendor = ("int main(){ int d = 0;\n"
              "#pragma acc parallel num_gangs(1) copy(d)\n"
              "{ d = acc_on_device(acc_device_nvidia); }\n return d; }")
    assert "concrete_device_type" in _reads(vendor)


def test_a_host_device_type_is_rejected():
    for device_type in (ACC_DEVICE_HOST, ACC_DEVICE_NONE):
        with pytest.raises(ValueError, match="not an accelerator type"):
            CompilerBehavior(concrete_device_type=device_type)
    with pytest.raises(ValueError, match="not an accelerator type"):
        CompilerBehavior().with_(concrete_device_type=ACC_DEVICE_HOST)


def test_fault_fields_are_read_only_under_their_construct():
    plain = ("int main(){ int a[4]; int s = 0; int i;\n"
             "for (i = 0; i < 4; i++) a[i] = i;\n"
             "#pragma acc parallel num_gangs(2) copyin(a) async(1)\n"
             "{ s = a[1]; }\n"
             "#pragma acc wait\n return 1; }")
    read = _reads(plain)
    for name in ("copyout_not_copied", "eliminate_copy_only_regions",
                 "ignore_private_clause", "firstprivate_uninitialized",
                 "skip_scalar_data_transfers"):
        assert name not in read
    assert read["copyin_as_create"] is False
    assert read["async_wedged_by_compute_data_clauses"] is False

    copyout = ("int main(){ int a[4]; int s = 1; int i;\n"
               "#pragma acc parallel num_gangs(1) copyout(a) "
               "copy(s) private(i) firstprivate(s)\n"
               "{ for (i = 0; i < 4; i++) a[i] = s; }\n return a[0]; }")
    read = _reads(copyout)
    for name in ("copyout_not_copied", "ignore_private_clause",
                 "firstprivate_uninitialized", "skip_scalar_data_transfers"):
        assert read[name] is False
    assert "copyin_as_create" not in read
    assert "async_wedged_by_compute_data_clauses" not in read


# ---------------------------------------------------------------------------
# per iteration as before; nothing unfinished is stored
# ---------------------------------------------------------------------------


class _FiringInjector(FaultInjector):
    """Fires exactly the (site, key) pairs it is told to."""

    def __init__(self, plan, fire=()):
        super().__init__(plan, sleeper=self._sleep)
        self.keys = []
        self.fire = set(fire)
        self.slept = 0.0

    def _sleep(self, seconds):
        self.slept += seconds

    def fires(self, site, rate, key, attempt=None):
        return (site, key) in self.fire

    def iteration_site(self, key):
        self.keys.append(key)
        super().iteration_site(key)


_PKEY = "parallel:c:functional"


def test_a_hit_still_runs_the_fault_site_and_events_per_iteration():
    cache = CompileCache()
    config = HarnessConfig(iterations=3, run_cross=False)
    template = _template("int main(){ return 0; }")
    ValidationRunner(config=config, cache=cache).run_template(template)
    tracer = Tracer()
    runner = ValidationRunner(CompilerBehavior(name="other"), config,
                              cache=cache, tracer=tracer)
    runner.faults = _FiringInjector(FaultPlan(seed=0))
    phase = runner.run_template(template).functional
    assert (phase.executed, phase.memo_hit) == (0, True)
    assert len(phase.iterations) == 3
    assert runner.faults.keys == [f"{_PKEY}:{k}" for k in range(3)]
    names = [e.name for e in tracer.events]
    assert names.count("iteration.failed") == 3
    # lookups raise no events: the execute span's attributes count them
    assert not [name for name in names if name.startswith("execute.memo")]
    # the second behaviour compiles from the first one's parse
    assert names.count("compile.cache_hit") == 1
    summary = summarize_trace(TraceData(meta={}, spans=tracer.spans,
                                        events=tracer.events))
    assert (summary.memo_hits, summary.memo_misses) == (3, 0)
    assert "execute memo       : 3 hits / 0 misses" in \
        render_summary_text(summary)


def test_an_injected_crash_stores_nothing():
    cache = CompileCache()
    runner = ValidationRunner(
        config=HarnessConfig(iterations=3, run_cross=False), cache=cache)
    runner.faults = _FiringInjector(FaultPlan(seed=0, iteration_crash=1.0),
                                    fire=[("iteration", f"{_PKEY}:0")])
    with pytest.raises(InjectedRuntimeCrash):
        runner.run_template(_template("int main(){ return 1; }"))
    # the next run of the phase finds no stored iteration 0
    again = ValidationRunner(
        config=HarnessConfig(iterations=3, run_cross=False), cache=cache,
    ).run_template(_template("int main(){ return 1; }")).functional
    assert (again.memo_hit, again.executed) == (False, 1)


def test_a_stall_that_trips_the_deadline_stores_nothing(monkeypatch):
    import repro.harness.runner as runner_module

    faults = _FiringInjector(FaultPlan(seed=0, stall=1.0, stall_s=60.0),
                             fire=[("stall", f"{_PKEY}:0")])
    real = time.monotonic
    monkeypatch.setattr(runner_module.time, "monotonic",
                        lambda: real() + faults.slept)
    cache = CompileCache()
    runner = ValidationRunner(config=HarnessConfig(
        iterations=2, run_cross=False, template_timeout_s=30.0), cache=cache)
    runner.faults = faults
    with pytest.raises(TemplateTimeout):
        runner.run_template(_template("int main(){ return 1; }"))
    # the next run of the phase finds no stored iteration 0
    again = ValidationRunner(
        config=HarnessConfig(iterations=2, run_cross=False), cache=cache,
    ).run_template(_template("int main(){ return 1; }")).functional
    assert (again.memo_hit, again.executed) == (False, 1)


def test_served_outcomes_are_copies():
    cache = CompileCache()
    config = HarnessConfig(iterations=2, run_cross=False)
    template = _template("int main(){ return 1; }")
    first = ValidationRunner(config=config, cache=cache) \
        .run_template(template).functional
    second = ValidationRunner(CompilerBehavior(name="other"), config,
                              cache=cache).run_template(template).functional
    assert second.memo_hit and second.iterations == first.iterations
    second.iterations[0].value = 99
    assert second.iterations[1].value == 1
    third = ValidationRunner(CompilerBehavior(name="third"), config,
                             cache=cache).run_template(template).functional
    assert [it.value for it in third.iterations] == [1, 1]


def test_memo_is_bounded():
    cache = CompileCache(maxsize=2)
    trace = BehaviorTrace()
    for i in range(3):
        cache.remember(("src", i), trace, None, i)
    stored = cache.recall(("src", 2), CompilerBehavior(), 1)
    cache.remember(("src", 2), trace, None, "again")  # already stored
    # the oldest key was evicted; the two newest stay, each with the run
    # stored first
    assert cache.recall(("src", 0), CompilerBehavior(), 1) is None
    assert cache.recall(("src", 1), CompilerBehavior(), 1).outcome == 1
    assert cache.recall(("src", 2), CompilerBehavior(), 1) is stored
    assert stored.outcome == 2


def test_memo_counters_survive_racing_threads():
    cache = CompileCache()
    behavior = CompilerBehavior()
    trace = BehaviorTrace(reads=(("ignore_async", False),))
    lookups, workers = 300, 8
    #: per thread: (key, entry served) of every hit, and the misses
    served, misses = [], []

    def work():
        hits, missed = [], 0
        for j in range(lookups):
            key = ("src", j % 7)
            entry = cache.recall(key, behavior, 0)
            if entry is None:
                missed += 1
                cache.remember(key, trace, None, j % 7)
            else:
                hits.append((key, entry))
        served.append(hits)
        misses.append(missed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    hits = [hit for per_thread in served for hit in per_thread]
    assert len(hits) + sum(misses) == lookups * workers
    # racing threads get the run stored first: each key serves one entry
    entries = {}
    for key, entry in hits:
        assert entries.setdefault(key, entry) is entry
    assert sorted(entries) == [("src", i) for i in range(7)]
    assert all(entry.outcome == key[1] for key, entry in entries.items())


def test_no_compile_cache_shares_no_run_across_phases(suite10):
    # each phase gets a private memo: it serves the phase's own repeats of
    # a seed-free iteration 0, never a run of an earlier phase
    runner = ValidationRunner(vendor_version("caps", "3.3.4").behavior("c"),
                              HarnessConfig(iterations=3, run_cross=False,
                                            languages=("c",),
                                            features=["parallel"],
                                            compile_cache=False))
    for _ in range(2):
        metrics = runner.run_suite(suite10).metrics
        assert (metrics.iterations_run, metrics.programs_executed,
                metrics.memo_hits) == (3, 1, 0)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def _served_report(suite):
    cache = CompileCache()
    config = HarnessConfig(iterations=3, languages=("c",),
                           features=["parallel", "kernels"])
    ValidationRunner(config=config, cache=cache).run_suite(suite)
    return ValidationRunner(CompilerBehavior(name="other"), config,
                            cache=cache).run_suite(suite)


def test_metrics_render_memo_hits(suite10):
    report = _served_report(suite10)
    m = report.metrics
    assert (m.iterations_run, m.programs_executed, m.memo_hits) == (12, 0, 4)
    assert "execute memo       : 4 phases served" in \
        render_metrics_text(report)
    assert "memo_hits,4" in render_metrics_csv(report).splitlines()


@pytest.mark.parametrize("policy, workers", [("serial", 1), ("process", 2)])
def test_trace_summary_memo_line_matches_run_metrics(suite10, policy,
                                                     workers):
    # the summary reads the memo off the execute spans: served iterations
    # are hits, programs run are misses, under every policy
    tracer = Tracer()
    config = HarnessConfig(iterations=2, languages=("c",),
                           feature_prefixes=["update", "parallel.if"],
                           policy=policy, workers=workers)
    report = ValidationRunner(vendor_version("pgi", "13.2").behavior("c"),
                              config, tracer=tracer).run_suite(suite10)
    m = report.metrics
    summary = summarize_trace(TraceData(meta={}, spans=tracer.spans,
                                        events=tracer.events))
    assert summary.memo_misses == m.programs_executed > 0
    assert summary.memo_hits == m.iterations_run - m.programs_executed > 0
    assert (f"execute memo       : {summary.memo_hits} hits / "
            f"{summary.memo_misses} misses") in render_summary_text(summary)


def test_journal_round_trips_memo_hit(suite10):
    report = _served_report(suite10)
    for result in report.results:
        payload = encode_result(result)
        assert decode_result(payload, result.template).functional.memo_hit
        del payload["functional"]["memo_hit"]
        old = decode_result(payload, result.template).functional
        assert old.memo_hit is False
