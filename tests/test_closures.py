"""Tests for the closure lowering (:mod:`repro.compiler.closures`), the
one interpreter, and the interpreter correctness fixes that shipped with it.

The lowering's contract is observable equivalence with the reference tree
walker (``tests/treewalk.py``): same :class:`ExecutionResult` (value,
output, steps, device counters), same error strings, over every template
the suite ships.  The differential below enforces that over the full
corpus, and the engine-level tests assert byte-identical report renderings
against the tree walker under every execution policy.  Parametrised cases
named ``tree`` run the tree walker, ``closures`` the production interpreter.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.machine import Machine
from repro.compiler import (
    CompileCache,
    Compiler,
    ExecutionLimits,
    Interpreter,
    InterpreterReuseError,
)
from repro.compiler.behavior import REFERENCE_BEHAVIOR
from repro.compiler.exec_model import AccExecutor
from repro.compiler.vendors import VENDORS, vendor_versions
from repro.harness import HarnessConfig, ValidationRunner, render_csv, render_text
from repro.harness.titan import default_degradation, default_stacks
from repro.ir.astnodes import IntLit
from repro.spec.versions import ACC_20
from repro.templates import generate_cross, generate_functional
from tests.treewalk import TreeInterpreter, oracle

#: interpreter per parametrised case name
_INTERPRETERS = {"tree": TreeInterpreter, "closures": Interpreter}

#: a program whose result exercises host compute, an acc region (device
#: counters move) and function calls — if any per-run state leaks between
#: run() calls, one of the result fields diverges
_STATEFUL_SRC = """
int scale(int x) { return x * 2 + 1; }
int main() {
  int n = 64;
  int a[64];
  int total = 0;
  #pragma acc parallel loop copy(a[0:64])
  for (int i = 0; i < n; i = i + 1) {
    a[i] = i * i;
  }
  for (int i = 0; i < n; i = i + 1) {
    total = total + a[i];
  }
  return scale(total % 1000);
}
"""


def _compile(source: str, name: str = "t.c"):
    return Compiler().compile(source, "c", name)


def _outcomes(compiled, errors=Exception, **run_kwargs):
    """``compiled.run(**run_kwargs)`` on production and on the tree walker,
    by case name; a run that raises one of ``errors`` yields its type name
    and message instead of a result."""
    outcomes = {}
    for backend in ("closures", "tree"):
        with oracle() if backend == "tree" else nullcontext():
            try:
                outcomes[backend] = compiled.run(**run_kwargs)
            except errors as exc:  # noqa: BLE001 - differential
                outcomes[backend] = (type(exc).__name__, str(exc))
    return outcomes


# ---------------------------------------------------------------------------
# run contract: an Interpreter runs once, a compiled program any number of
# times, each run on a fresh interpreter and machine
# ---------------------------------------------------------------------------


def _backend(backend: str):
    return oracle() if backend == "tree" else nullcontext()


class TestRunReuse:
    @pytest.mark.parametrize("backend", sorted(_INTERPRETERS))
    def test_owned_machine_run_twice_is_identical(self, backend):
        compiled = _compile(_STATEFUL_SRC)
        with _backend(backend):
            first = compiled.run()
            second = compiled.run()
        # the regression: globals/output/device counters leaked across
        # runs, so the second result double-counted bytes_to_device
        assert first == second
        assert second.bytes_to_device == first.bytes_to_device

    @pytest.mark.parametrize("backend", sorted(_INTERPRETERS))
    def test_second_run_raises(self, backend):
        compiled = _compile(_STATEFUL_SRC)
        interp = _INTERPRETERS[backend](compiled.program, compiled.behavior)
        first = interp.run()
        with pytest.raises(InterpreterReuseError):
            interp.run()
        with _backend(backend):
            assert first == compiled.run()
        with pytest.raises(TypeError):
            _INTERPRETERS[backend](compiled.program, compiled.behavior,
                                   machine=Machine())

    def test_reuse_error_is_not_a_simulated_crash(self):
        # InterpreterReuseError is a harness-usage bug, and must never be
        # classified as the simulated program crashing (AccRuntimeError)
        assert not issubclass(InterpreterReuseError, AccRuntimeError)
        assert issubclass(InterpreterReuseError, RuntimeError)

    @pytest.mark.parametrize("backend", sorted(_INTERPRETERS))
    def test_reset_covers_limits_and_output(self, backend):
        compiled = _compile(_STATEFUL_SRC)
        with _backend(backend):
            first = compiled.run()
            # a second run under a tighter budget must time out: proof the
            # budget is read per run, not frozen at first-run state
            with pytest.raises(ExecutionTimeout):
                compiled.run(limits=ExecutionLimits(max_steps=10))
            # and a third full run recovers the original result exactly
            assert compiled.run(
                limits=ExecutionLimits(max_steps=2_000_000)) == first


# ---------------------------------------------------------------------------
# lazy iteration values (the huge-trip-count regression)
# ---------------------------------------------------------------------------


class TestLazyIterationValues:
    def test_iteration_values_returns_lazy_range(self, monkeypatch):
        # the executor's iteration-space helper, asked at a real loop site
        # on both interpreters (production evaluates the bounds through the
        # site's closures, the tree walker through its Env)
        compiled = _compile("""
int main() {
  #pragma acc loop
  for (int i = 0; i < 2000000000; i = i + 1) { }
  return 0;
}
""")
        spaces = []

        def capture(executor, stmt, env):
            spaces.append(executor._iteration_values(stmt.loop, env))
        monkeypatch.setattr(AccExecutor, "exec_acc_loop", capture)
        _outcomes(compiled)
        assert len(spaces) == 2
        for values in spaces:
            # the regression materialised this as list(range(...)) — ~16 GB
            # for a 2e9 trip count; a lazy range is O(1) whatever the bounds
            assert isinstance(values, range)
            assert len(values) == 2_000_000_000

    @pytest.mark.parametrize("backend", sorted(_INTERPRETERS))
    def test_huge_trip_count_hits_step_budget_not_allocator(self, backend):
        # 2e9 iterations materialised as a list is ~16 GB; lazily it is an
        # O(1) range and the step budget stops the loop almost immediately
        source = """
        int main() {
          int acc = 0;
          #pragma acc parallel loop
          for (int i = 0; i < 2000000000; i = i + 1) { acc = acc + 1; }
          return acc;
        }
        """
        interp = _INTERPRETERS[backend](_compile(source).program)
        with pytest.raises(ExecutionTimeout):
            interp.run(limits=ExecutionLimits(max_steps=5_000))


# ---------------------------------------------------------------------------
# cross-backend differential over the full shipped corpus
# ---------------------------------------------------------------------------


class TestCrossBackendCorpus:
    def test_every_template_runs_identically(self, suite10,
                                             reference_compiler):
        """Both backends must produce the same ExecutionResult — or raise
        the same error with the same message — for every generated source
        (functional and cross) of every template in the corpus."""
        checked = 0
        for template in suite10.select():
            generated = [generate_functional(template)]
            if template.has_cross:
                generated.append(generate_cross(template))
            for gen in generated:
                try:
                    compiled = reference_compiler.compile(
                        gen.source, template.language, template.name)
                except Exception:
                    continue  # compile errors never reach a backend
                outcomes = _outcomes(compiled,
                                     env_vars=template.environment or None,
                                     rng_seed=20140519)
                assert outcomes["closures"] == outcomes["tree"], (
                    f"backend divergence on {template.name} "
                    f"({template.language}, {gen.mode})"
                )
                checked += 1
        # the corpus ships hundreds of programs; a collapsed selection
        # would make this test pass vacuously
        assert checked > 300

    def test_lowered_program_is_shared_and_pure(self):
        compiled = _compile(_STATEFUL_SRC)
        lowered = compiled.lowered()
        assert compiled.lowered() is lowered  # cached on the instance
        a = Interpreter(compiled.program, compiled.behavior, lowered=lowered)
        b = Interpreter(compiled.program, compiled.behavior, lowered=lowered)
        assert a.run() == b.run()  # shared lowering, independent state

    def test_lowering_survives_pickling_boundary(self):
        import pickle

        compiled = _compile(_STATEFUL_SRC)
        compiled.lowered()
        clone = pickle.loads(pickle.dumps(compiled))
        # closures are not picklable: the clone must drop the lowering and
        # rebuild it on demand, not fail
        assert clone._lowered is None
        with oracle():
            tree = compiled.run()
        assert clone.run() == tree

    def test_interpreter_choice_is_not_an_option(self):
        # the removed backend option: no config field, no parameter
        compiled = _compile(_STATEFUL_SRC)
        with pytest.raises(TypeError):
            HarnessConfig(backend="closures")
        with pytest.raises(TypeError):
            Interpreter(compiled.program, compiled.behavior,
                        backend="closures")
        with pytest.raises(TypeError):
            compiled.run(backend="closures")
        with pytest.raises(TypeError):
            compiled.runner(backend="closures")


# ---------------------------------------------------------------------------
# engine-level byte identity with the tree walker, under every policy
# ---------------------------------------------------------------------------


def _engine_run(suite, **config_kwargs):
    defaults = dict(iterations=1, languages=("c", "fortran"))
    defaults.update(config_kwargs)
    runner = ValidationRunner(config=HarnessConfig(**defaults))
    return runner.run_suite(suite)


class TestReportByteIdentity:
    @pytest.fixture(scope="class")
    def tree_report(self, suite10):
        with oracle():
            return _engine_run(suite10)

    def test_serial_full_corpus(self, suite10, tree_report):
        report = _engine_run(suite10)
        assert render_csv(report) == render_csv(tree_report)
        assert render_text(report) == render_text(tree_report)

    @pytest.mark.parametrize("policy,workers", [("process", 2)])
    def test_pooled_closures_match_serial_tree(self, suite10, policy,
                                               workers, tree_oracle):
        prefixes = ["parallel", "loop", "data"]
        with tree_oracle():
            serial = _engine_run(suite10, feature_prefixes=prefixes)
        pooled = _engine_run(suite10, policy=policy,
                             workers=workers, feature_prefixes=prefixes)
        assert render_csv(pooled) == render_csv(serial)
        assert render_text(pooled) == render_text(serial)


# ---------------------------------------------------------------------------
# tree-walker differential under every vendor behaviour
# ---------------------------------------------------------------------------

#: features whose templates reach the vendor decision points the static
#: region plans feed — Cray's copy-only region elimination, kernels
#: auto-parallelisation, collapse, privatisation and reductions — plus the
#: async/update/if paths the injected bugs act on, and every construct
#: site kind whose clauses the executor evaluates
_VENDOR_SAMPLE_FEATURES = (
    "kernels", "kernels loop", "kernels.copy", "loop.collapse",
    "loop.private", "loop.vector", "parallel.copy", "parallel.copyout",
    "parallel.firstprivate", "parallel.reduction", "parallel.async",
    "parallel.if", "update.host", "runtime.acc_async_test",
    # every other site the executor evaluates a clause at: update/wait
    # tags and conditions, data-construct conditions and sections, pending
    # declares, host_data, and the parallelism sizes
    "update.async", "update.if", "update.device", "wait", "data.if",
    "declare.create", "host_data.use_device", "parallel.num_gangs",
    "kernels.if",
)


def _vendor_behaviours():
    """Every CAPS/PGI/Cray version behaviour (per language it compiles),
    the four Titan degradations of each healthy stack, and the reference
    with each unshipped wrong-code toggle.  Versions whose
    behaviours differ only in name and version run every program alike,
    so each distinct behaviour is checked once, under its first version."""
    cases, seen = [], set()

    def add(behavior, language, case_id):
        key = (language, replace(behavior, name="", version=""))
        if key not in seen:
            seen.add(key)
            cases.append(pytest.param(behavior, language, id=case_id))

    for vendor in VENDORS:
        for vv in vendor_versions(vendor):
            for language in ("c", "fortran"):
                behavior = vv.behavior(language)
                if behavior.supports_language(language):
                    add(behavior, language, f"{vendor}-{vv.version}-{language}")
    for stack, healthy in default_stacks().items():
        for k in range(4):
            add(default_degradation(healthy, k), "c",
                f"titan-{stack}-degraded{k}")
    # the wrong-code toggles no shipped version sets, each on its own:
    # they reach the frames' aliasing paths and the sequential run of a
    # device loop site (ignore_loop_directive)
    for toggle in _UNSHIPPED_TOGGLES:
        add(REFERENCE_BEHAVIOR.with_(**toggle), "c",
            "reference+" + "+".join(toggle))
    return cases


_UNSHIPPED_TOGGLES = (
    dict(ignore_loop_directive=True),
    dict(ignore_private_clause=True),
    dict(firstprivate_uninitialized=True),
    dict(ignore_collapse=True),
    dict(copyin_as_create=True),
    dict(ignore_if_clause=True),
    dict(ignore_async=True),
    dict(ignored_loop_levels=frozenset({"gang"})),
)


class TestCrossBackendVendors:
    @pytest.mark.parametrize("behavior,language", _vendor_behaviours())
    def test_reports_identical(self, suite10, behavior, language,
                               tree_oracle):
        sample = [t for t in suite10.for_language(language)
                  if t.feature in _VENDOR_SAMPLE_FEATURES]
        assert len(sample) == len(_VENDOR_SAMPLE_FEATURES)
        cache = CompileCache()  # both interpreters run the same compiles
        config = HarnessConfig(iterations=1, languages=(language,))

        def render():
            runner = ValidationRunner(behavior, config, cache=cache)
            return render_csv(runner.run_suite(suite10, templates=sample))
        closures = render()
        with tree_oracle():
            assert closures == render()


# ---------------------------------------------------------------------------
# slot-frame scoping corners, checked against the tree walker
# ---------------------------------------------------------------------------

#: programs whose scoping the frames must reproduce exactly; each result
#: (or error) must match the tree walker's
_FRAME_CORNERS = {
    # each deferred region must see its own iteration's `v`, not the frame
    # slot's latest cell: 1 + 11 + 21 + 31
    "async_region_in_loop": ("""
int main() {
  int s = 0;
  for (int k = 0; k < 4; k = k + 1) {
    int v = k * 10;
    #pragma acc parallel num_gangs(1) async(1) copy(s)
    {
      s = s + v + 1;
    }
  }
  #pragma acc wait
  return s;
}
""", 64),
    # a name the region never binds is undefined inside it
    "undefined_in_region": ("""
int main() {
  int a[4];
  #pragma acc parallel loop copy(a[0:4])
  for (int i = 0; i < 4; i = i + 1) {
    a[i] = zz;
  }
  return a[0];
}
""", None),
    # a name declared anywhere in the region is no implicit candidate
    "declared_inside_region": ("""
int main() {
  int x = 5;
  int a[4];
  #pragma acc parallel num_gangs(2) copy(a[0:4])
  {
    int y = x;
    #pragma acc loop
    for (int i = 0; i < 4; i = i + 1) {
      int x = i * 2;
      a[i] = x + y;
    }
  }
  return a[3];
}
""", None),
    # if(false) combined construct: the loop runs on the host
    "iffalse_combined": ("""
int main() {
  int a[8];
  int n = 8;
  #pragma acc parallel loop if(n < 0) copy(a[0:8])
  for (int i = 0; i < n; i = i + 1) { a[i] = i; }
  return a[7];
}
""", 7),
    # a deferred update keeps the site's bindings, not their values: its
    # section length reads n at the wait, after n = 8, so all 8 elements
    # come back (8 * 2; 4 * 2 had it captured n's value)
    "async_update_sees_later_value": ("""
int main() {
  int n = 4;
  int a[8] = 0;
  #pragma acc data copyin(a[0:8])
  {
    #pragma acc parallel loop present(a[0:8])
    for (int i = 0; i < 8; i = i + 1) { a[i] = 2; }
    #pragma acc update host(a[0:n]) async(1)
    n = 8;
    #pragma acc wait(1)
  }
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
  return s;
}
""", 16),
    # ... and a later rebinding of the slot is not seen: each deferred
    # update keeps its own iteration's `s` (1 * 10 + 5)
    "async_update_in_loop": ("""
int main() {
  int a[8] = 0;
  #pragma acc data copyin(a[0:8])
  {
    #pragma acc parallel loop present(a[0:8])
    for (int i = 0; i < 8; i = i + 1) { a[i] = i + 1; }
    for (int k = 0; k < 2; k = k + 1) {
      int s = k * 4;
      #pragma acc update host(a[s:1]) async(1)
    }
    #pragma acc wait(1)
  }
  return a[0] * 10 + a[4];
}
""", 15),
    # a declare naming a later local stays pending at function entry and
    # resolves at the next construct site, over that site's scope
    "declare_pending_until_region": ("""
int main() {
  int n = 8;
  int a[8];
  #pragma acc declare create(a[0:n])
  #pragma acc parallel loop present(a[0:n])
  for (int i = 0; i < n; i = i + 1) { a[i] = i; }
  return 0;
}
""", 0),
    # global declarations: a scalar, and an array filled by its initialiser
    "global_declarations": ("""
int n = 3;
int g[6] = 2;
int main() {
  return n + g[5];
}
""", 5),
}


class TestFrameCorners:
    @pytest.mark.parametrize("name", sorted(_FRAME_CORNERS))
    def test_matches_tree_walker(self, name):
        source, expected = _FRAME_CORNERS[name]
        compiled = _compile(source, name + ".c")
        outcomes = _outcomes(compiled, errors=AccRuntimeError)
        assert outcomes["closures"] == outcomes["tree"]
        if expected is not None:
            assert outcomes["tree"].value == expected


#: constructs the executor meets away from the frames' usual sites, each
#: (source, behaviour, expected value): a 2.0 routine's loop run inside a
#: region (lanes on a host frame), a computed collapse depth, and two
#: nestings OpenACC forbids but the compiler accepts — a data construct in
#: the sequential run of a device loop whose directive the behaviour
#: ignores, and an if(false) compute construct inside a region (a device
#: frame's host run)
_BODY_CORNERS = {
    "routine_loop_in_region": ("""
#pragma acc routine
int bump(int *a, int n) {
  #pragma acc loop
  for (int j = 0; j < n; j = j + 1) { a[j] = a[j] + 1; }
  return 0;
}
int main() {
  int a[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = i; }
  #pragma acc parallel copy(a[0:8])
  {
    bump(a, 8);
  }
  return a[7];
}
""", REFERENCE_BEHAVIOR.with_(spec_version=ACC_20), 8),
    "computed_collapse": ("""
int main() {
  int c = 2;
  int a[16];
  #pragma acc parallel copy(a[0:16]) num_gangs(1)
  {
    #pragma acc loop collapse(c)
    for (int i = 0; i < 4; i = i + 1)
      for (int j = 0; j < 4; j = j + 1) { a[i * 4 + j] = i + j; }
  }
  return a[15];
}
""", REFERENCE_BEHAVIOR, 6),
    "data_in_sequential_loop": ("""
int main() {
  int a[8];
  int b[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = i; b[i] = 0; }
  #pragma acc parallel copy(a[0:8]) copy(b[0:8]) num_gangs(1)
  {
    #pragma acc loop
    for (int i = 0; i < 8; i = i + 1) {
      #pragma acc data copy(b[0:8])
      { b[i] = a[i]; }
    }
  }
  return b[7];
}
""", REFERENCE_BEHAVIOR.with_(ignore_loop_directive=True), None),
    "iffalse_compute_in_region": ("""
int main() {
  int a[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = i; }
  #pragma acc parallel copy(a[0:8]) num_gangs(1)
  {
    #pragma acc parallel if(0)
    { a[1] = 5; }
  }
  return a[1];
}
""", REFERENCE_BEHAVIOR, 5),
}


class TestConstructBodies:
    @pytest.mark.parametrize("name", sorted(_BODY_CORNERS))
    def test_matches_tree_walker(self, name):
        source, behavior, expected = _BODY_CORNERS[name]
        compiled = Compiler(behavior).compile(source, "c", name + ".c")
        outcomes = _outcomes(compiled, errors=AccRuntimeError)
        assert outcomes["closures"] == outcomes["tree"]
        if expected is not None:
            assert outcomes["tree"].value == expected

    def test_site_without_a_closure_raises(self, monkeypatch):
        # the executor reaches code only through its site: a closure the
        # lowering did not attach is a lowering bug, never a name walk
        compiled = _compile("""
int main() {
  int n = 4;
  #pragma acc wait(1)
  return n;
}
""")
        probed = []

        def probe(executor, stmt, env):
            assert executor._eval(stmt.directive.clause("wait").expr, env) == 1
            with pytest.raises(RuntimeError, match="lowering bug"):
                executor._eval(IntLit(value=1), env)
            with pytest.raises(RuntimeError, match="lowering bug"):
                executor._run_scoped(stmt, env, {})
            probed.append(stmt)
        monkeypatch.setattr(AccExecutor, "exec_standalone", probe)
        assert compiled.run().value == 4
        assert len(probed) == 1


# ---------------------------------------------------------------------------
# region plans: built once, and never outliving their parse
# ---------------------------------------------------------------------------


class TestRegionPlans:
    def test_plans_and_region_code_are_built_once(self):
        compiled = _compile(_STATEFUL_SRC)
        compiled.run()
        lowered = compiled.lowered()
        plans = dict(lowered.plans)
        codes = {k: plan.device_code for k, (_node, plan) in plans.items()
                 if hasattr(plan, "device_code")}
        assert plans and any(code is not None for code in codes.values())
        compiled.run()
        assert lowered.plans == plans
        for k, (_node, plan) in lowered.plans.items():
            assert plans[k][1] is plan
            if k in codes:
                assert plan.device_code is codes[k]

    @pytest.mark.parametrize("backend", sorted(_INTERPRETERS))
    def test_program_dies_with_its_lowering(self, backend):
        import gc
        import weakref

        compiled = _compile(_STATEFUL_SRC)
        runner = compiled.runner()
        with oracle() if backend == "tree" else nullcontext():
            runner.run()
        program = weakref.ref(compiled.program)
        lowered = weakref.ref(compiled._lowered)
        del compiled, runner
        gc.collect()
        # no module-level cache may pin the AST: plans live on the parse
        # (shared through the compiled program, here its only owner), and
        # the lowering on its compiled program
        assert program() is None
        assert lowered() is None
