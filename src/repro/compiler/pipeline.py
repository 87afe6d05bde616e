"""Compilation pipeline: frontend -> validation -> executable.

``Compiler.compile`` parses the source with the language's frontend and runs
a semantic validation pass that produces the paper's *compile-time* error
class: unknown or version-gated directives/clauses, features the simulated
vendor does not support, the CAPS constant-expression restriction (Fig. 9),
missing runtime routines, user procedure calls inside compute regions (1.0
has no ``routine`` directive — Section V-C "Procedure calls"), and
``default(none)`` violations (2.0).

A successful compile yields a :class:`CompiledProgram` that can be run many
times — each run gets a fresh simulated machine, matching the harness's
repeat-M-iterations methodology (which executes only the iterations that
can differ: see :class:`ProgramRunner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR
from repro.compiler.errors import CompileError, UnsupportedFeatureError
from repro.compiler.frontend import (
    ComputeRegion,
    ValidationFacts,
    parse_front,
    validation_facts,
)
from repro.compiler.interp import (
    ExecutionLimits,
    ExecutionResult,
    Interpreter,
    builtin_names,
)
from repro.frontend.dispatch import LANGUAGES
from repro.ir.acc import Directive
from repro.ir.astnodes import IntLit, Program, walk
from repro.spec.versions import ACC_20

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.cache import CompileCache

# ---------------------------------------------------------------------------
# clause allowance table — owned by the static checker so the simulated
# compilers and `repro lint` can never disagree about legality
# ---------------------------------------------------------------------------

from repro.staticcheck.legality import (  # noqa: E402
    ALLOWED_CLAUSES,
    V20_CLAUSES as _V20_CLAUSES,
    V20_DIRECTIVES as _V20_DIRECTIVES,
)

_PARALLELISM_SIZE_CLAUSES = ("num_gangs", "num_workers", "vector_length")

#: runtime routines known to the 1.0 runtime library
_KNOWN_ROUTINES = {
    "acc_get_num_devices", "acc_set_device_type", "acc_get_device_type",
    "acc_set_device_num", "acc_get_device_num", "acc_async_test",
    "acc_async_test_all", "acc_async_wait", "acc_async_wait_all",
    "acc_init", "acc_shutdown", "acc_on_device", "acc_malloc", "acc_free",
}

#: names a program may call without defining them
_BUILTINS = frozenset(builtin_names())


@dataclass
class CompiledProgram:
    """The output of a successful compile: runnable any number of times."""

    program: Program
    behavior: CompilerBehavior
    source: str = ""
    warnings: List[str] = field(default_factory=list)
    #: the program's static construct plans, node id -> (node, plan): the
    #: parse's table (ParsedSource.plans), so every behaviour compiled from
    #: one cached parse shares the plans and their device code.  Never
    #: pickled (device code is closures) and never compared
    plans: Dict[int, tuple] = field(default_factory=dict, repr=False,
                                    compare=False)
    #: lazily lowered closure program (repro.compiler.closures), attached to
    #: this instance so later runs reuse it (the harness detaches it after
    #: each phase: see ProgramRunner.close) — never pickled (closures
    #: aren't picklable) and never compared
    _lowered: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def lowered(self, tracer=None, name: Optional[str] = None):
        """The closure-lowered form, computed once per compiled program.

        Benign data race under the thread policy: two threads may lower
        concurrently and one result wins; lowering is pure, so both are
        interchangeable.

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives
        ``lower.cache_hit``/``lower.cache_miss`` events,
        mirroring the compile cache's ``compile.cache_hit/miss``: a hit
        means a previous phase/iteration (or a compile-cache hit carrying
        the lowering along) already paid the lowering cost.
        """
        observe = tracer is not None and tracer.enabled
        lowered = self._lowered
        if lowered is None:
            if observe:
                tracer.event("lower.cache_miss", template=name or "?")
            from repro.compiler.closures import lower_program

            lowered = lower_program(self.program, self.plans)
            self._lowered = lowered
        elif observe:
            tracer.event("lower.cache_hit", template=name or "?")
        return lowered

    def __getstate__(self):
        state = self.__dict__.copy()
        # closures don't pickle: re-plan and re-lower on use
        state["plans"] = {}
        state["_lowered"] = None
        return state

    def runner(self, tracer=None,
               name: Optional[str] = None) -> "ProgramRunner":
        """A per-phase batched executor (see :class:`ProgramRunner`)."""
        return ProgramRunner(self, tracer=tracer, name=name)

    def run(
        self,
        env_vars: Optional[Dict[str, str]] = None,
        limits: Optional[ExecutionLimits] = None,
        rng_seed: int = 12345,
    ) -> ExecutionResult:
        """Execute on a fresh simulated machine (one harness iteration)."""
        interp = Interpreter(
            self.program,
            behavior=self.behavior,
            env_vars=env_vars,
            rng_seed=rng_seed,
            lowered=self.lowered(),
        )
        return interp.run(limits=limits)


class ProgramRunner:
    """Batched per-phase executor for one compiled program.

    The harness runs every phase M times.  Everything that is a pure
    function of (program, behavior) is built here once and shared across
    those iterations: the lowered closure program and the machine's
    :class:`ExecProfile` (read-only at runtime).  Every :meth:`run` gets a
    *fresh* :class:`Machine` and interpreter, so device counters, globals
    and RNG state match a cold run exactly.

    Not every iteration reaches :meth:`run`: after each run, ``rng_used``
    says whether the program called ``rand``/``srand``, the only way the
    iteration's seed reaches execution.  When iteration 0 did not, the
    harness reuses its outcome for iterations 1..M-1 instead of running
    the program again (``ValidationRunner._run_phase``).
    """

    def __init__(self, compiled: CompiledProgram, tracer=None,
                 name: Optional[str] = None):
        from repro.accsim.device import ExecProfile

        self.compiled = compiled
        behavior = compiled.behavior
        self._profile = ExecProfile(
            default_num_gangs=behavior.default_num_gangs,
            default_num_workers=behavior.default_num_workers,
            default_vector_length=behavior.default_vector_length,
            worker_ignored=behavior.worker_ignored,
            mapping=behavior.mapping_description,
        )
        #: whether the lowering was already attached to the compiled
        #: program; instrumentation only — mirrors PhaseResult.cache_hit
        #: for the compile cache
        self.lower_hit = compiled._lowered is not None
        self._lowered = compiled.lowered(tracer=tracer, name=name)
        #: whether the last run called ``rand``/``srand`` (also when it
        #: raised); True before the first run, so nothing is reused unseen
        self.rng_used = True

    def close(self) -> None:
        """Detach a lowering this runner attached to the compiled program.

        A campaign keeps every compiled program in its compile cache, and
        a lowering's host closures weigh about as much again as
        the parse, while a program rarely runs in a second phase.  So the
        harness drops the lowering after the phase; a later phase of the
        same program lowers afresh.  The region plans and their device
        code are not the lowering's: they stay with the parse
        (``CompiledProgram.plans``), shared by every behaviour and phase.
        """
        if not self.lower_hit:
            self.compiled._lowered = None

    def run(
        self,
        env_vars: Optional[Dict[str, str]] = None,
        limits: Optional[ExecutionLimits] = None,
        rng_seed: int = 12345,
    ) -> ExecutionResult:
        from repro.accsim.machine import Machine

        behavior = self.compiled.behavior
        machine = Machine(
            accel_count=1,
            accel_device_type=behavior.concrete_device_type,
            profile=self._profile,
        )
        interp = Interpreter(
            self.compiled.program,
            behavior=behavior,
            machine=machine,
            env_vars=env_vars,
            rng_seed=rng_seed,
            lowered=self._lowered,
        )
        try:
            return interp.run(limits=limits)
        finally:
            self.rng_used = interp.rng_used


class Compiler:
    """An OpenACC implementation: frontends + validation + simulator.

    ``frontend`` is where compiles get their parses: a
    :class:`~repro.compiler.cache.CompileCache`, whose parse tier shares
    them across every compiler of a sweep, or None to parse afresh.
    """

    def __init__(self, behavior: CompilerBehavior = REFERENCE_BEHAVIOR,
                 frontend: Optional["CompileCache"] = None):
        self.behavior = behavior
        self.frontend = frontend

    # ------------------------------------------------------------- compile

    def compile(self, source: str, language: str = "c", name: str = "<test>") -> CompiledProgram:
        if not self.behavior.supports_language(language):
            raise UnsupportedFeatureError(
                f"{self.behavior.label} has no {language} frontend"
            )
        if language not in LANGUAGES:
            raise UnsupportedFeatureError(f"unknown language {language!r}")
        if self.frontend is not None:
            parsed = self.frontend.parsed(source, language, name)
        else:
            parsed = parse_front(source, language, name)
        if parsed.error is not None:
            raise CompileError(str(parsed.error)) from parsed.error
        warnings = self.validate(parsed.program, parsed.facts)
        return CompiledProgram(
            program=parsed.program, behavior=self.behavior, source=source,
            warnings=warnings, plans=parsed.plans,
        )

    # ------------------------------------------------------------ validation

    def validate(self, program: Program,
                 facts: Optional[ValidationFacts] = None) -> List[str]:
        """Check ``program`` against this behaviour; raise the first error.

        ``facts`` are the program's :func:`validation_facts` (collected
        here when not given), so a sweep that validates one parse under
        many behaviours scans lists instead of walking the tree again.
        """
        if facts is None:
            facts = validation_facts(program)
        behavior = self.behavior
        routine_functions = (facts.routine_functions
                             if behavior.spec_version >= ACC_20
                             else frozenset())
        for check in facts.checks:
            if isinstance(check, ComputeRegion):
                self._check_region_calls(check.calls, facts.user_functions,
                                         routine_functions)
                self._check_default_none(check.directive, check.body, program)
            else:
                self._check_directive(check)
        # link check: runtime routines must exist in this implementation
        for call in facts.acc_calls:
            if call.name not in _KNOWN_ROUTINES:
                raise CompileError(
                    f"unknown runtime routine {call.name}", call.loc
                )
            if call.name in behavior.unsupported_routines:
                raise UnsupportedFeatureError(
                    f"{behavior.label} does not provide {call.name}",
                    call.loc,
                )
        return []

    def _check_directive(self, d: Directive) -> None:
        behavior = self.behavior
        if d.kind in _V20_DIRECTIVES and behavior.spec_version < ACC_20:
            raise UnsupportedFeatureError(
                f"`{d.kind}` requires OpenACC 2.0 "
                f"({behavior.label} implements {behavior.spec_version})",
                d.loc,
            )
        if d.kind in behavior.unsupported_directives:
            raise UnsupportedFeatureError(
                f"{behavior.label} does not support the `{d.kind}` directive",
                d.loc,
            )
        allowed = ALLOWED_CLAUSES.get(d.kind)
        if allowed is None:
            raise CompileError(f"unknown directive `{d.kind}`", d.loc)
        for clause in d.clauses:
            if clause.name in _V20_CLAUSES and behavior.spec_version < ACC_20:
                raise UnsupportedFeatureError(
                    f"clause `{clause.name}` requires OpenACC 2.0", clause.loc
                )
            if clause.name not in allowed and clause.name not in _V20_CLAUSES:
                raise CompileError(
                    f"clause `{clause.name}` is not valid on `{d.kind}`",
                    clause.loc,
                )
            if (d.kind, clause.name) in behavior.unsupported_clauses:
                raise UnsupportedFeatureError(
                    f"{behavior.label} does not support `{clause.name}` on "
                    f"`{d.kind}`",
                    clause.loc,
                )
            if (
                behavior.require_constant_parallelism_exprs
                and clause.name in _PARALLELISM_SIZE_CLAUSES
                and clause.expr is not None
                and not isinstance(clause.expr, IntLit)
            ):
                # CAPS < 3.1.0 (Section V-B, Fig. 9)
                raise CompileError(
                    f"{behavior.label}: `{clause.name}` requires a constant "
                    "expression",
                    clause.loc,
                )
            if clause.name == "reduction" and clause.op is None:
                raise CompileError("reduction clause without operator", clause.loc)

    @staticmethod
    def _check_region_calls(
        calls, user_functions: Set[str], routine_functions: Set[str]
    ) -> None:
        """1.0 cannot call user procedures inside compute regions."""
        for node in calls:
            if node.name in user_functions:
                if node.name not in routine_functions:
                    raise UnsupportedFeatureError(
                        f"call to user procedure {node.name!r} inside a compute "
                        "region (OpenACC 1.0 has no `routine` directive)",
                        node.loc,
                    )
            elif node.name not in _BUILTINS:
                raise CompileError(
                    f"call to unknown function {node.name!r}", node.loc
                )

    def _check_default_none(self, d: Directive, body, program: Program) -> None:
        """2.0 `default(none)`: every referenced outer variable needs an
        explicit data attribute."""
        clause = d.clause("default")
        if clause is None or clause.op != "none":
            return
        from repro.ir.astnodes import DeclStmt, Ident

        explicit: Set[str] = set()
        for c in d.clauses:
            explicit.update(c.var_names)
        declared = {
            decl.name
            for node in walk(body)
            if isinstance(node, DeclStmt)
            for decl in node.decls
        }
        loop_vars = {
            node.var for node in walk(body) if hasattr(node, "var") and hasattr(node, "bound")
        }
        known_globals = {g.name for g in program.globals}
        for node in walk(body):
            if isinstance(node, Ident):
                name = node.name
                if (
                    name not in explicit
                    and name not in declared
                    and name not in loop_vars
                    and not name.startswith("acc_device_")
                    and name not in known_globals
                ):
                    raise CompileError(
                        f"default(none): variable {name!r} lacks an explicit "
                        "data attribute",
                        node.loc,
                    )
