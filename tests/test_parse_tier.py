"""Tests for the compile cache's parse tier and fact-based validation.

A sweep shares one :class:`CompileCache`: its parse tier parses each
source once for every behaviour, ``Compiler.validate`` scans the parse's
precomputed facts instead of walking the tree, and the parse's region
plans and device code serve every behaviour's runs.  The checks here
hold all three to the per-run results they replace: a shared-cache sweep
renders byte-identical reports to fresh per-version runners, the
fact-based validation agrees with the tree walk it replaced on every
corpus source under every vendor and Titan behaviour, and shared plans
neither change a run nor outlive their parse.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys
import threading
import weakref
from contextlib import nullcontext
from dataclasses import replace
from typing import List, Set

import pytest

import repro.minic
import repro.minifort
from repro.analysis import vendor_pass_rates
from repro.compiler import (
    CompileCache,
    CompileError,
    Compiler,
    CompilerBehavior,
)
from repro.compiler.behavior import REFERENCE_BEHAVIOR
from repro.compiler.closures import RegionCode, _Lowerer
from repro.compiler.exec_model import ComputePlan, LoopPlan
from repro.compiler.frontend import parse_front
from repro.compiler.interp import builtin_names
from repro.compiler.pipeline import _KNOWN_ROUTINES
from repro.compiler.errors import UnsupportedFeatureError
from repro.compiler.vendors import VENDORS, vendor_versions
from repro.faults import FaultInjector, FaultPlan, FaultyCompiler
from repro.harness import HarnessConfig, ValidationRunner, render_csv
from repro.harness.titan import (
    TitanCluster,
    TitanHarness,
    default_degradation,
    default_stacks,
)
from repro.obs import Tracer
from repro.obs.live import read_live
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Call,
    IntLit,
    Node,
    child_fields,
    children,
    walk,
)
from repro.spec.versions import ACC_20
from repro.templates import generate_cross, generate_functional
from tests.treewalk import oracle

_SWEEP = HarnessConfig(iterations=1, run_cross=False)

#: a feature sample that every vendor's versions split on (compile errors,
#: wrong code and passes alike)
_SAMPLE_FEATURES = (
    "kernels", "kernels loop", "loop.collapse", "loop.gang", "loop.private",
    "parallel.async", "parallel.num_gangs", "parallel.reduction",
    "update.host", "runtime.acc_async_test", "runtime.acc_get_num_devices",
    "declare.copy", "wait",
)

_BAD_SOURCE = "int main() {\n  return 1 +;\n}\n"


class _CountingInjector:
    """Counts ``compile`` site firings; never fails."""

    def __init__(self):
        self.fired = 0

    def compile_site(self, key: str) -> None:
        self.fired += 1


@pytest.fixture()
def parse_counter(monkeypatch):
    """Counts frontend runs per (source, language)."""
    calls: List[tuple] = []
    for module, language in ((repro.minic, "c"), (repro.minifort, "fortran")):
        real = module.parse_program

        def counting(source, *args, _real=real, _language=language, **kwargs):
            calls.append((source, _language))
            return _real(source, *args, **kwargs)

        monkeypatch.setattr(module, "parse_program", counting)
    return calls


def _sample_config(suite) -> HarnessConfig:
    features = sorted({t.feature for t in suite if t.feature in _SAMPLE_FEATURES})
    assert len(features) == len(_SAMPLE_FEATURES)
    return replace(_SWEEP, features=features)


def _fresh_runs(vendor: str, suite, config: HarnessConfig) -> List[str]:
    """render_csv of every (version, language) run, each with a fresh
    runner and cache."""
    out = []
    for vv in vendor_versions(vendor):
        for language in ("c", "fortran"):
            runner = ValidationRunner(vv.behavior(language),
                                      replace(config, languages=(language,)))
            out.append(render_csv(runner.run_suite(suite)))
    return out


def _shared_runs(vendor: str, suite, config: HarnessConfig) -> List[str]:
    points = vendor_pass_rates(vendor, suite, config)
    return [render_csv(points[language][i].report)
            for i in range(len(vendor_versions(vendor)))
            for language in ("c", "fortran")]


def _titan_harness(suite, tracer=None, **config) -> TitanHarness:
    """A small Titan sweep whose degraded nodes trigger triage re-checks;
    ``config`` overrides the harness config's fields."""
    cluster = TitanCluster(num_nodes=6, degraded_fraction=0.34, seed=3)
    return TitanHarness(
        cluster, suite,
        config=HarnessConfig(
            iterations=1, run_cross=False, languages=("c",),
            feature_prefixes=["update", "parallel.reduction", "kernels"],
            **config),
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# sharing changes no report
# ---------------------------------------------------------------------------


class TestSharedSweep:
    @pytest.mark.parametrize("vendor", ["caps", "pgi", "cray"])
    def test_shared_sweep_renders_like_fresh_runners(self, suite10, vendor):
        config = _sample_config(suite10)
        assert _shared_runs(vendor, suite10, config) == \
            _fresh_runs(vendor, suite10, config)

    def test_shared_sweep_parses_each_source_once(self, suite10,
                                                  parse_counter):
        config = _sample_config(suite10)
        points = vendor_pass_rates("caps", suite10, config)
        assert len(parse_counter) == len(set(parse_counter))
        # every source of the sample, each language once
        assert len(parse_counter) == sum(p.tests for p in
                                         (points["c"][0], points["fortran"][0]))

    def test_no_cache_sweep_parses_under_every_version(self, suite10,
                                                       parse_counter):
        config = replace(_sample_config(suite10), compile_cache=False)
        points = vendor_pass_rates("caps", suite10, config)
        versions = len(vendor_versions("caps"))
        runs = [p for language in ("c", "fortran") for p in points[language]]
        assert all(p.report.metrics.cache_hits == 0 for p in runs)
        # every program is compiled (and so parsed) under every version
        compiles = sum(p.report.metrics.cache_misses for p in runs)
        assert compiles == versions * (points["c"][0].tests
                                       + points["fortran"][0].tests)
        assert len(parse_counter) == compiles
        assert len(set(parse_counter)) == compiles // versions

    def test_titan_shared_cache_equals_fresh_caches(self, suite10,
                                                    parse_counter):
        def sweep(shared: bool):
            harness = _titan_harness(suite10)
            if not shared:
                harness.cache = None  # each check's runner builds its own
            checks = harness.sweep(sample_size=6, seed=4)
            return ([(c.node_id, c.stack, render_csv(c.report))
                     for c in checks],
                    sorted(harness.quarantined),
                    sum(c.report.metrics.cache_hits for c in checks))

        shared_checks, shared_quarantine, shared_hits = sweep(True)
        shared_parses = list(parse_counter)
        fresh_checks, fresh_quarantine, _ = sweep(False)
        assert shared_checks == fresh_checks
        assert shared_quarantine == fresh_quarantine
        assert shared_quarantine  # the triage re-checks ran
        # every node and re-check compiles from the one parse of a source
        assert shared_hits > 0
        assert len(shared_parses) == len(set(shared_parses))

    def test_titan_compile_site_fires_once_per_compiled_phase(
            self, suite10, monkeypatch):
        fired = []
        real = FaultInjector.compile_site

        def counting(self, key):
            fired.append(key)
            real(self, key)

        monkeypatch.setattr(FaultInjector, "compile_site", counting)
        tracer = Tracer()
        # an active plan wraps every check's compiler in FaultyCompiler;
        # its only site (the journal) never runs in this sweep
        harness = _titan_harness(suite10, tracer=tracer,
                                 fault_plan=FaultPlan(seed=0,
                                                      journal_torn=1.0))
        harness.sweep(sample_size=6, seed=4)
        assert harness.quarantined  # the triage re-checks ran
        compiled = [s.key for s in tracer.spans
                    if s.name == "compile"]
        # identical stacks and re-checks compile the same sources again:
        # every one of those phases reaches the compiler and its fault site
        assert len(compiled) > len(set(compiled))
        assert len(fired) == len(compiled)

    def test_titan_transient_compile_crashes_heal(self, suite10):
        def sweep(tracer=None, **config):
            harness = _titan_harness(suite10, tracer=tracer, **config)
            checks = harness.sweep(sample_size=6, seed=4)
            return ([(c.node_id, c.stack, render_csv(c.report))
                     for c in checks], sorted(harness.quarantined))

        clean = sweep()
        assert clean[1]  # the triage re-checks ran
        tracer = Tracer()
        assert sweep(tracer=tracer, retries=2, retry_backoff_s=0.0,
                     fault_plan=FaultPlan(seed=11, compile_crash=0.5)) == clean
        names = [e.name for e in tracer.events]
        assert names.count("compile.crashed") > 0
        assert names.count("engine.retry") == names.count("compile.crashed")

    def test_titan_without_compile_cache_shares_nothing(self, suite10):
        harness = TitanHarness(
            TitanCluster(num_nodes=2, seed=1), suite10,
            config=HarnessConfig(iterations=1, run_cross=False,
                                 languages=("c",), compile_cache=False),
        )
        assert harness.cache is None


# ---------------------------------------------------------------------------
# the compile-cache hit: a compile that took its parse from the parse tier
# ---------------------------------------------------------------------------


def _traced_caps_sweep(suite, config, tmp_path):
    """A shared-cache CAPS sweep, one runner per (version, language), all
    reporting to one tracer and each streaming live telemetry; returns
    the reports, the tracer and the folded stream tallies."""
    cache, tracer = CompileCache(), Tracer()
    reports, tallies = [], []
    for vv in vendor_versions("caps"):
        for language in ("c", "fortran"):
            stream = str(tmp_path / f"{vv.version}-{language}.ndjson")
            runner = ValidationRunner(
                vv.behavior(language),
                replace(config, languages=(language,), live_stream=stream),
                cache=cache, tracer=tracer)
            reports.append(runner.run_suite(suite))
            tallies.append(read_live(stream).tally())
    return reports, tracer, tallies


def _compile_keys(report) -> List[tuple]:
    """(source, language, name) of every phase that reached the compiler."""
    return [(phase.source, result.template.language, result.template.name)
            for result in report.results
            for phase in (result.functional, result.cross)
            if phase is not None and phase.static_error is None
            and phase.harness_error is None]


class TestCompileHits:
    @pytest.mark.parametrize("policy,workers", [("serial", 1), ("process", 2)])
    def test_hits_reconcile_with_trace_and_stream(self, suite10, tmp_path,
                                                  policy, workers):
        config = replace(_sample_config(suite10), run_cross=True,
                         policy=policy, workers=workers)
        reports, tracer, tallies = _traced_caps_sweep(suite10, config,
                                                      tmp_path)
        if policy == "serial":
            # one cache for the sweep: every compile after a source's
            # first takes its parse from the parse tier
            keys = [k for report in reports for k in _compile_keys(report)]
            expected = len(keys) - len(set(keys))
            assert expected > 0
        else:
            # each run's pool workers build private caches, and no source
            # repeats within one run (functional and cross sources differ):
            # every compile parses afresh
            expected = sum(len(keys) - len(set(keys)) for keys in
                           map(_compile_keys, reports))
            assert expected == 0
        hits = sum(report.metrics.cache_hits for report in reports)
        lookups = hits + sum(report.metrics.cache_misses
                             for report in reports)
        assert lookups == sum(len(_compile_keys(r)) for r in reports)
        assert hits == expected
        names = [e.name for e in tracer.events]
        assert names.count("compile.cache_hit") == expected
        assert names.count("compile.cache_miss") == lookups - expected
        assert sum(t.compile_cache_hits for t in tallies) == expected
        assert sum(t.compile_cache_misses for t in tallies) == \
            lookups - expected


# ---------------------------------------------------------------------------
# the parse tier's own contract
# ---------------------------------------------------------------------------


class TestParseTier:
    def test_parse_error_identical_under_two_behaviours(self, parse_counter):
        cache = CompileCache()
        errors, hits = [], []
        for behavior in (REFERENCE_BEHAVIOR,
                         CompilerBehavior(name="other", version="1")):
            outcome = cache.get_or_compile(Compiler(behavior, frontend=cache),
                                           _BAD_SOURCE, "c", "bad.c")
            assert type(outcome.error) is CompileError
            errors.append(str(outcome.error))
            hits.append(outcome.hit)
        assert len(parse_counter) == 1
        assert hits == [False, True]
        assert errors[0] == errors[1]
        assert errors[0] == str(_uncached_error(_BAD_SOURCE))

    def test_lint_parse_raises_a_copy_of_the_cached_error(self):
        from repro.frontend import FrontendError

        cache = CompileCache()
        raised = []
        for _ in range(2):
            with pytest.raises(FrontendError) as info:
                cache.parse(_BAD_SOURCE, "c", "bad.c")
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert (raised[0].message, raised[0].loc) == \
            (raised[1].message, raised[1].loc)
        assert cache.parsed(_BAD_SOURCE, "c", "bad.c").error.__traceback__ \
            is None

    def test_compile_site_fires_on_every_compile(self, suite10):
        cache = CompileCache()
        injector = _CountingInjector()
        template = suite10.get("parallel.copy", "c")
        source = generate_functional(template).source
        behaviours = [REFERENCE_BEHAVIOR,
                      REFERENCE_BEHAVIOR.with_(ignore_update=True)]
        hits = []
        for _ in range(3):
            for behavior in behaviours:
                compiler = FaultyCompiler(Compiler(behavior, frontend=cache),
                                          injector)
                outcome = cache.get_or_compile(compiler, source, "c",
                                               template.name)
                assert outcome.error is None
                hits.append(outcome.hit)
        # every compile reaches the compiler; only the parse is shared
        assert injector.fired == 3 * len(behaviours)
        assert hits == [False] + [True] * (3 * len(behaviours) - 1)

    def test_behaviours_share_one_program(self, suite10):
        cache = CompileCache()
        template = suite10.get("parallel.copy", "c")
        source = generate_functional(template).source
        programs = {
            id(cache.get_or_compile(Compiler(b, frontend=cache), source, "c",
                                    template.name).program.program)
            for b in (REFERENCE_BEHAVIOR,
                      REFERENCE_BEHAVIOR.with_(ignore_update=True))
        }
        assert len(programs) == 1

    def test_language_checks_run_before_the_tier(self, parse_counter):
        cache = CompileCache()
        c_only = Compiler(CompilerBehavior(languages=("c",)), frontend=cache)
        with pytest.raises(UnsupportedFeatureError, match="no fortran"):
            c_only.compile("program p\nend program p\n", "fortran", "p.f90")
        odd = Compiler(CompilerBehavior(languages=("c", "cobol")),
                       frontend=cache)
        with pytest.raises(UnsupportedFeatureError, match="unknown language"):
            odd.compile("", "cobol", "p.cob")
        assert parse_counter == []

    def test_lru_bounds_the_parse_tier(self, parse_counter):
        cache = CompileCache(maxsize=2)
        sources = [f"int main() {{ return {k}; }}\n" for k in range(3)]
        for source in sources:
            cache.parsed(source, "c", "t.c")
        # the two newest stay; the oldest was evicted: parsed again
        for source in (sources[2], sources[1], sources[0]):
            cache.parsed(source, "c", "t.c")
        assert [source for source, _ in parse_counter] == \
            sources + [sources[0]]

    def test_racing_behaviours_share_one_parse_per_source(self, monkeypatch):
        import time

        import repro.compiler.cache as cache_module

        real_parse_front = cache_module.parse_front
        parses = []

        def slow_parse_front(*args):
            parses.append(args[0])
            time.sleep(0.01)  # every racer is inside the parse at once
            return real_parse_front(*args)

        monkeypatch.setattr(cache_module, "parse_front", slow_parse_front)
        cache = CompileCache()
        sources = [f"int main() {{ int a = {k}; return a; }}\n"
                   for k in range(4)]
        n_threads = 8
        programs = {k: set() for k in range(len(sources))}
        lock = threading.Lock()
        start = threading.Barrier(n_threads, timeout=30)

        def worker(i):
            compiler = Compiler(CompilerBehavior(name=f"b{i}", version="1"),
                                frontend=cache)
            start.wait()
            for k, source in enumerate(sources):
                outcome = cache.get_or_compile(compiler, source, "c", "t.c")
                with lock:
                    programs[k].add(id(outcome.program.program))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # racers each parse, but every behaviour of a source gets the one
        # program stored first
        assert all(len(ids) == 1 for ids in programs.values())
        assert len(parses) > len(sources)  # the race did happen
        # every source is stored: a later compile hits without a parse
        raced = len(parses)
        assert all(cache.get_or_compile(Compiler(frontend=cache), source,
                                        "c", "t.c").hit
                   for source in sources)
        assert len(parses) == raced

    def test_lint_gate_parses_once(self, suite10, parse_counter):
        template = suite10.get("parallel.copy", "c")
        config = HarnessConfig(iterations=1, run_cross=False, lint=True,
                               languages=("c",))
        runner = ValidationRunner(None, config)
        result = runner.run_template(template)
        assert result.passed
        assert len(parse_counter) == 1


def _uncached_error(source: str) -> CompileError:
    with pytest.raises(CompileError) as info:
        Compiler().compile(source, "c", "bad.c")
    return info.value


# ---------------------------------------------------------------------------
# fact-based validation against the tree walk it replaced
# ---------------------------------------------------------------------------


def _walk_validate(compiler: Compiler, program) -> List[str]:
    """The reference: validation as one tree walk per check, visiting
    nodes in the order the fact lists must reproduce."""
    behavior = compiler.behavior
    user_functions = {fn.name for fn in program.functions}
    routine_functions: Set[str] = set()
    if behavior.spec_version >= ACC_20:
        routine_functions = {fn.name for fn in program.functions
                             if any(d.kind == "routine" for d in fn.declares)}
    builtin = set(builtin_names())
    for fn in program.functions:
        for directive in fn.declares:
            compiler._check_directive(directive)
        for node in walk(fn.body):
            if isinstance(node, (AccConstruct, AccLoop, AccStandalone)):
                compiler._check_directive(node.directive)
            if isinstance(node, (AccConstruct, AccLoop)) and \
                    node.directive.kind in ("parallel", "kernels",
                                            "parallel loop", "kernels loop"):
                body = node.body if isinstance(node, AccConstruct) else node.loop
                for inner in walk(body):
                    if isinstance(inner, Call) and inner.name in user_functions:
                        if inner.name not in routine_functions:
                            raise UnsupportedFeatureError(
                                f"call to user procedure {inner.name!r} "
                                "inside a compute region (OpenACC 1.0 has "
                                "no `routine` directive)", inner.loc)
                    elif isinstance(inner, Call) and inner.name not in builtin:
                        raise CompileError(
                            f"call to unknown function {inner.name!r}",
                            inner.loc)
                compiler._check_default_none(node.directive, body, program)
    for fn in program.functions:
        for node in walk(fn.body):
            if isinstance(node, Call) and node.name.startswith("acc_"):
                if node.name not in _KNOWN_ROUTINES:
                    raise CompileError(
                        f"unknown runtime routine {node.name}", node.loc)
                if node.name in behavior.unsupported_routines:
                    raise UnsupportedFeatureError(
                        f"{behavior.label} does not provide {node.name}",
                        node.loc)
    return []


def _outcome(validate):
    try:
        return ("ok", validate())
    except CompileError as err:
        return (type(err).__name__, err.message, err.loc)


def _oracle_behaviours() -> List[CompilerBehavior]:
    """Every distinct CAPS/PGI/Cray version behaviour, every Titan stack
    and degradation, and a 2.0 compiler (routine, default(none)).

    Behaviours that differ only in name and version validate alike (the
    label only appears in messages), so each is checked once, under its
    first version."""
    behaviours = [vv.behavior(language) for vendor in VENDORS
                  for vv in vendor_versions(vendor)
                  for language in ("c", "fortran")]
    for healthy in default_stacks().values():
        behaviours.append(healthy)
        behaviours.extend(default_degradation(healthy, k) for k in range(4))
    behaviours.append(CompilerBehavior(spec_version=ACC_20))
    distinct = {}
    for behavior in behaviours:
        distinct.setdefault(replace(behavior, name="", version=""), behavior)
    return list(distinct.values())


def _corpus_sources(*suites):
    for suite in suites:
        for template in suite:
            yield template, generate_functional(template).source
            if template.has_cross:
                yield template, generate_cross(template).source


class TestValidationFactsOracle:
    def test_facts_match_the_tree_walk(self, suite10, suite20):
        compilers = [Compiler(b) for b in _oracle_behaviours()]
        checked = errors = 0
        for template, source in _corpus_sources(suite10, suite20):
            parsed = parse_front(source, template.language, template.name)
            assert parsed.error is None, template.name
            for compiler in compilers:
                expected = _outcome(
                    lambda: _walk_validate(compiler, parsed.program))
                actual = _outcome(
                    lambda: compiler.validate(parsed.program, parsed.facts))
                assert actual == expected, (template.name, compiler.behavior)
                checked += 1
                errors += expected[0] != "ok"
        # the corpus drives both the clean path and the diagnostics
        assert checked > 10_000 and errors > 1_000

    def test_validate_without_facts_collects_them(self, suite10):
        template = suite10.get("parallel.copy", "c")
        program = parse_front(generate_functional(template).source, "c",
                              template.name).program
        assert Compiler().validate(program) == []


# ---------------------------------------------------------------------------
# region plans and device code: built once per parse, for every behaviour
# ---------------------------------------------------------------------------


@pytest.fixture()
def plan_counter(monkeypatch):
    """Records the statement of every plan built and the plan of every
    region body lowered to device code (the lists pin them, so no id is
    recycled while a test runs)."""
    built = {"plans": [], "regions": []}
    for cls in (ComputePlan, LoopPlan):
        def planning(self, stmt, _real=cls.__init__):
            built["plans"].append(stmt)
            _real(self, stmt)
        monkeypatch.setattr(cls, "__init__", planning)
    real_lower = _Lowerer.lower_region

    def lowering(self, plan):
        built["regions"].append(plan)
        return real_lower(self, plan)
    monkeypatch.setattr(_Lowerer, "lower_region", lowering)
    return built


def _built_once(objects) -> bool:
    return len({id(obj) for obj in objects}) == len(objects)


class TestSharedPlans:
    def test_caps_sweep_plans_and_lowers_each_region_once(self, suite10,
                                                          plan_counter):
        config = _sample_config(suite10)
        vendor_pass_rates("caps", suite10, config)
        shared = {k: len(v) for k, v in plan_counter.items()}
        assert shared["plans"] and shared["regions"]
        assert _built_once(plan_counter["plans"])
        assert _built_once(plan_counter["regions"])
        # without a cache every version parses, plans and lowers afresh
        for built in plan_counter.values():
            built.clear()
        vendor_pass_rates("caps", suite10,
                          replace(config, compile_cache=False))
        for k, count in shared.items():
            assert len(plan_counter[k]) > 2 * count, k

    def test_titan_sweep_plans_and_lowers_each_region_once(self, suite10,
                                                           plan_counter):
        harness = _titan_harness(suite10)
        harness.sweep(sample_size=6, seed=4)
        assert harness.quarantined  # the triage re-checks ran
        assert plan_counter["plans"] and plan_counter["regions"]
        assert _built_once(plan_counter["plans"])
        assert _built_once(plan_counter["regions"])


_ROUTINE_SRC = """
#pragma acc routine
int bump(int x) { return x + 1; }
int main() {
  int i, s = 0;
  int a[16];
  for (i = 0; i < 16; i++) a[i] = i;
  #pragma acc parallel copy(s) copy(a[0:16])
  {
    s = bump(s);
    #pragma acc loop gang
    for (i = 0; i < 16; i++) a[i] = bump(a[i]) * 2;
  }
  return s * 1000 + a[15];
}
"""

#: two 2.0 behaviours whose runs of _ROUTINE_SRC differ (one increment of
#: ``s`` per redundantly executing gang)
_ROUTINE_BEHAVIOURS = (
    CompilerBehavior(name="a", spec_version=ACC_20, default_num_gangs=4),
    CompilerBehavior(name="b", spec_version=ACC_20, default_num_gangs=8),
)


def _run_phase(compiled, backend: str = "closures"):
    """One phase run; ``backend="tree"`` runs it on the tree walker."""
    with oracle() if backend == "tree" else nullcontext():
        return compiled.runner().run()


def _device_codes(compiled) -> List[RegionCode]:
    return [plan.device_code for _node, plan in compiled.plans.values()
            if isinstance(plan, ComputePlan)]


class TestPlanLifetimes:
    def test_routine_calls_run_alike_on_shared_device_code(self):
        cache = CompileCache()
        values, codes = [], []
        for behavior in _ROUTINE_BEHAVIOURS:
            compiled = Compiler(behavior, frontend=cache).compile(
                _ROUTINE_SRC, "c", "routine_call.c")
            closures = _run_phase(compiled)
            assert closures == _run_phase(compiled, "tree"), behavior.name
            values.append(closures.value)
            codes.append(_device_codes(compiled))
        assert values == [4032, 8032]
        # the second behaviour ran the first one's device code
        assert codes[0] and all(code is not None for code in codes[0])
        assert codes[0] == codes[1]

    def test_phase_lowering_dies_while_the_cache_lives(self, collector_off):
        cache = CompileCache()
        outcome = cache.get_or_compile(
            Compiler(_ROUTINE_BEHAVIOURS[0], frontend=cache), _ROUTINE_SRC,
            "c", "routine_call.c")
        compiled = outcome.program
        runner = compiled.runner()
        runner.run()
        lowered = weakref.ref(compiled._lowered)
        # the region calls bump: its host closure must not be pinned by
        # the shared device code
        bump = weakref.ref(compiled._lowered.functions["bump"].body)
        del outcome, compiled, runner
        # the cache holds no compiled program, so the phase's lowering
        # dies with it, freed by reference counting (the collector is
        # off); the parse keeps its plans and device code
        assert lowered() is None and bump() is None
        parsed = cache.parsed(_ROUTINE_SRC, "c", "routine_call.c")
        codes = [plan.device_code for _node, plan in parsed.plans.values()
                 if isinstance(plan, ComputePlan)]
        assert codes and all(code is not None for code in codes)

    def test_no_lowering_outlives_its_phase(self, suite10, monkeypatch,
                                            collector_off):
        import repro.compiler.closures as closures

        lowerings = []
        real_lower = closures.lower_program

        def recording(program, plans=None):
            lowered = real_lower(program, plans)
            lowerings.append(weakref.ref(lowered))
            return lowered

        monkeypatch.setattr(closures, "lower_program", recording)
        live_after_phase = []
        real_phase = ValidationRunner._run_phase

        def phase_then_count(self, *args, **kwargs):
            phase = real_phase(self, *args, **kwargs)
            live_after_phase.append(sum(ref() is not None
                                        for ref in lowerings))
            return phase

        monkeypatch.setattr(ValidationRunner, "_run_phase",
                            phase_then_count)
        cache = CompileCache()
        config = replace(_sample_config(suite10), run_cross=True,
                         languages=("c",))
        runners = [ValidationRunner(vv.behavior("c"), config, cache=cache)
                   for vv in vendor_versions("caps")[:3]]
        reports = [runner.run_suite(suite10) for runner in runners]
        # the runners and their shared cache are still alive: neither
        # holds a compiled program, so each lowering died with its phase,
        # freed by reference counting (the collector is off)
        assert lowerings and live_after_phase
        assert set(live_after_phase) == {0}
        # while the cache kept the parses the later runners compiled from
        assert sum(report.metrics.cache_hits for report in reports) > 0

    def test_parse_plans_and_device_code_die_with_the_cache(self):
        def sweep():
            cache = CompileCache()
            for behavior in _ROUTINE_BEHAVIOURS:
                compiled = Compiler(behavior, frontend=cache).compile(
                    _ROUTINE_SRC, "c", "routine_call.c")
                _run_phase(compiled)
            plans = [plan for _node, plan in compiled.plans.values()]
            codes = _device_codes(compiled)
            assert plans and codes
            return (weakref.ref(compiled.program),
                    [weakref.ref(code.body) for code in codes],
                    {id(obj) for obj in plans + codes})

        program, bodies, ids = sweep()
        gc.collect()
        assert program() is None
        assert all(body() is None for body in bodies)
        # plans and RegionCodes take no weak references; nothing builds
        # new ones after sweep(), so a surviving id would be a survivor
        assert not [obj for obj in gc.get_objects()
                    if type(obj) in (ComputePlan, LoopPlan, RegionCode)
                    and id(obj) in ids]

    def test_compiled_program_pickles_without_its_plans(self):
        cache = CompileCache()
        compiled = Compiler(_ROUTINE_BEHAVIOURS[1], frontend=cache).compile(
            _ROUTINE_SRC, "c", "routine_call.c")
        expected = _run_phase(compiled)
        assert compiled.plans
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.plans == {} and clone._lowered is None
        assert compiled.plans  # the shared table is left alone
        assert _run_phase(clone) == expected
        assert clone.run() == expected
        assert clone.plans and all(
            code is not None for code in _device_codes(clone))


# ---------------------------------------------------------------------------
# children(): per-class child fields against the field-by-field oracle
# ---------------------------------------------------------------------------


def _oracle_children(node):
    """The traversal children() replaced: every dataclass field, read on
    every call."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    yield item


def _oracle_walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(_oracle_children(current))))


def _node_classes() -> List[type]:
    import repro.ir.acc  # noqa: F401 - defines the directive payload nodes

    classes, todo = [], [Node]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


class TestChildrenOracle:
    def test_children_yield_in_field_order(self):
        classes = _node_classes()
        names = {cls.__name__ for cls in classes}
        assert {"Program", "AccLoop", "Directive", "DataRef"} <= names
        for cls in classes:
            kept = child_fields(cls)
            node = object.__new__(cls)
            markers = []
            for i, f in enumerate(dataclasses.fields(cls)):
                if f.name not in kept:
                    # a skipped field is never annotated with a node type
                    assert not any(n in str(f.type) for n in names), \
                        (cls.__name__, f.name)
                    value = "leaf"
                elif i % 2:
                    value = [IntLit(i), None, IntLit(-i)]
                else:
                    value = IntLit(i)
                markers.extend(value if isinstance(value, list) else [value])
                setattr(node, f.name, value)
            expected = [m for m in markers if isinstance(m, Node)]
            assert list(children(node)) == expected, cls.__name__
            assert list(children(node)) == list(_oracle_children(node))

    def test_walk_matches_the_oracle_on_the_corpus(self, suite10):
        checked = 0
        for template, source in _corpus_sources(suite10):
            program = parse_front(source, template.language,
                                  template.name).program
            assert [id(n) for n in walk(program)] == \
                [id(n) for n in _oracle_walk(program)], template.name
            checked += 1
        assert checked > 300
