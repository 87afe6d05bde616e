"""Compiler behaviour model — the bug-injection surface.

A :class:`CompilerBehavior` instance describes everything about a compiler
implementation that the validation suite can observe.  The conforming
reference compiler uses the defaults; simulated vendor versions
(:mod:`repro.compiler.vendors`) patch fields to reproduce the paper's
documented bug classes, e.g.:

* ``require_constant_parallelism_exprs`` — CAPS < 3.1.0 only accepted
  constant expressions in ``num_gangs``/``num_workers``/``vector_length``
  (Section V-B, Fig. 9) and raised a compile error otherwise;
* ``async_wedged_by_compute_data_clauses`` — PGI 13.x async family: an
  ``async`` on a compute construct carrying data clauses blocked the
  asynchronous activity and made ``acc_async_test`` misbehave (Fig. 10);
* ``skip_scalar_data_transfers`` — Cray did not copy scalars in ``copy``
  (Section V-B "Data copy for scalar variables");
* ``eliminate_copy_only_regions`` — Cray deleted compute regions it proved
  free of computation, breaking the copyout test design (Fig. 11);
* ``unsupported_directives`` / ``unsupported_clauses`` — features rejected
  at compile time (e.g. CAPS 3.1.x ``declare``);
* wrong-code toggles (``broken_reductions``, ``firstprivate_uninitialized``,
  ``ignore_private_clause``, ``ignore_loop_directive``, ...) — silent
  wrong-result bugs, the class the paper says dominates.

Everything downstream (lowering, runtime) consults only this object, never
vendor identity, so new vendor models are pure data.

A run consults it through a :class:`BehaviorRecorder`, which notes every
question the run asks (a field read, or a membership query on a set field)
and its answer.  The resulting :class:`BehaviorTrace` says which other
behaviours would have steered the run down the same path: the compile
cache's execute memo (:mod:`repro.compiler.cache`) reuses the run's outcome
for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.spec.devices import ACC_DEVICE_NVIDIA, DeviceType
from repro.spec.versions import ACC_10, SpecVersion


@dataclass(frozen=True)
class CompilerBehavior:
    """Observable behaviour of a (possibly buggy) OpenACC implementation."""

    # ---- identification ----------------------------------------------------
    name: str = "reference"
    version: str = "1.0"
    spec_version: SpecVersion = ACC_10
    languages: Tuple[str, ...] = ("c", "fortran")

    # ---- execution model (Section II: implementation-defined mapping) ------
    default_num_gangs: int = 16
    default_num_workers: int = 4
    default_vector_length: int = 8
    worker_ignored: bool = False
    mapping_description: str = "gang->block, worker->warp, vector->threads"
    concrete_device_type: DeviceType = ACC_DEVICE_NVIDIA

    # ---- compile-time restrictions -----------------------------------------
    #: directives rejected with a compile error, e.g. frozenset({"declare"})
    unsupported_directives: FrozenSet[str] = frozenset()
    #: (directive, clause) pairs rejected, e.g. {("parallel", "firstprivate")}
    unsupported_clauses: FrozenSet[Tuple[str, str]] = frozenset()
    #: runtime routines missing from the implementation
    unsupported_routines: FrozenSet[str] = frozenset()
    #: CAPS<3.1.0: num_gangs/num_workers/vector_length must be literals
    require_constant_parallelism_exprs: bool = False

    # ---- silent wrong-code toggles -----------------------------------------
    #: loop directives in this set are accepted but have no scheduling effect
    ignored_loop_levels: FrozenSet[str] = frozenset()  # subset of {gang,worker,vector}
    #: `#pragma acc loop` entirely ignored (body runs redundantly per gang)
    ignore_loop_directive: bool = False
    #: reduction clauses compute garbage (treated as shared, no combine)
    broken_reductions: FrozenSet[str] = frozenset()  # operator symbols, or {"*"} etc.
    #: firstprivate behaves like private (no host-value initialisation)
    firstprivate_uninitialized: bool = False
    #: private clauses ignored (variable stays shared)
    ignore_private_clause: bool = False
    #: collapse clause ignored (only outer loop associated)
    ignore_collapse: bool = False
    #: copyin behaves like create (no host->device transfer)
    copyin_as_create: bool = False
    #: copyout behaves like create (no device->host transfer)
    copyout_not_copied: bool = False
    #: update directives are no-ops
    ignore_update: bool = False
    #: scalars in copy/copyin/copyout clauses are not transferred (Cray)
    skip_scalar_data_transfers: bool = False
    #: compute regions containing only array-copy statements are deleted (Cray)
    eliminate_copy_only_regions: bool = False
    #: `if` clauses on compute/data constructs are ignored (always offload)
    ignore_if_clause: bool = False

    # ---- async behaviour -----------------------------------------------------
    #: PGI 13.x: async on a compute construct that itself carries data
    #: clauses executes synchronously AND wedges acc_async_test (returns -1)
    async_wedged_by_compute_data_clauses: bool = False
    #: async clauses entirely ignored (synchronous execution)
    ignore_async: bool = False

    # ---- runtime-library behaviour ------------------------------------------
    #: value acc_async_test returns when wedged
    wedged_async_test_value: int = -1

    # -------------------------------------------------------------- helpers

    @property
    def label(self) -> str:
        return f"{self.name} {self.version}"

    def supports_language(self, language: str) -> bool:
        return language in self.languages

    def with_(self, **changes) -> "CompilerBehavior":
        """Functional update (bug patches compose through this)."""
        return replace(self, **changes)


#: The conforming implementation every vendor is validated against.
REFERENCE_BEHAVIOR = CompilerBehavior()


# ---------------------------------------------------------------------------
# recording view
# ---------------------------------------------------------------------------

#: set fields a run asks only ``item in field``: each query is recorded
#: with its answer instead of the whole field
_QUERY_FIELDS = frozenset({
    "unsupported_directives", "unsupported_clauses", "unsupported_routines",
    "ignored_loop_levels", "broken_reductions",
})


@dataclass(frozen=True)
class BehaviorTrace:
    """The questions one run asked a behaviour, with the answers it got.

    ``reads`` are whole field values, ``queries`` are ``(field, item,
    answer)`` membership queries.  ``whole`` is set when the run used the
    behaviour in any other way (its ``label``, a method, ``==``): then
    only an equal behaviour answers alike.
    """

    reads: Tuple[Tuple[str, object], ...] = ()
    queries: Tuple[Tuple[str, object, bool], ...] = ()
    whole: Optional[CompilerBehavior] = None

    def answers_alike(self, behavior: CompilerBehavior) -> bool:
        """Would ``behavior`` answer every recorded question the same way?"""
        if self.whole is not None:
            return behavior == self.whole
        for name, value in self.reads:
            if getattr(behavior, name) != value:
                return False
        for name, item, answer in self.queries:
            if (item in getattr(behavior, name)) != answer:
                return False
        return True


class BehaviorRecorder:
    """A recording view of one :class:`CompilerBehavior`, for one run.

    It reads like the behaviour.  The first read of a name goes through
    ``__getattr__``, which records it and stores the value (or, for a
    query field, a :class:`_Membership` view) on the instance, so every
    later read is a plain attribute hit.  Fail closed: a name that is not
    a dataclass field (``label``, a method), ``==``, ``hash`` or ``repr``
    records the whole behaviour; iterating or sizing a query field records
    the whole field.  A field added to the dataclass later is recorded
    whole unless it joins ``_QUERY_FIELDS``.  A recorder belongs to the
    run that made it and never pickles.
    """

    def __init__(self, behavior: CompilerBehavior):
        self._behavior = behavior
        self._reads: Dict[str, object] = {}
        self._views: List["_Membership"] = []
        self._whole = False

    def __getattr__(self, name: str):
        behavior = self._behavior
        if name in _QUERY_FIELDS:
            value = _Membership(self, name, getattr(behavior, name))
            self._views.append(value)
        elif name in type(behavior).__dataclass_fields__:
            value = self._reads[name] = getattr(behavior, name)
        else:
            self._whole = True
            return getattr(behavior, name)
        self.__dict__[name] = value
        return value

    def _as_whole(self) -> CompilerBehavior:
        self._whole = True
        return self._behavior

    def __eq__(self, other) -> bool:
        return self._as_whole() == other

    def __hash__(self) -> int:
        return hash(self._as_whole())

    def __repr__(self) -> str:
        return repr(self._as_whole())

    def __reduce_ex__(self, protocol):
        raise TypeError("a BehaviorRecorder belongs to one run and is never "
                        "pickled: pickle its behaviour instead")

    def trace(self) -> BehaviorTrace:
        """Everything recorded so far."""
        if self._whole:
            return BehaviorTrace(whole=self._behavior)
        return BehaviorTrace(
            reads=tuple(self._reads.items()),
            queries=tuple((view.name, item, answer)
                          for view in self._views
                          for item, answer in view.answers.items()),
        )


class _Membership:
    """A query field seen through a recorder: ``item in view`` records
    the query and its answer; any other use records the whole field."""

    __slots__ = ("_recorder", "name", "_values", "answers")

    def __init__(self, recorder: BehaviorRecorder, name: str,
                 values: FrozenSet):
        self._recorder = recorder
        self.name = name
        self._values = values
        self.answers: Dict[object, bool] = {}

    def __contains__(self, item) -> bool:
        answer = item in self._values
        self.answers[item] = answer
        return answer

    def _as_whole(self) -> FrozenSet:
        self._recorder._reads[self.name] = self._values
        return self._values

    def __iter__(self):
        return iter(self._as_whole())

    def __len__(self) -> int:
        return len(self._as_whole())

    def __eq__(self, other) -> bool:
        return self._as_whole() == other

    def __hash__(self) -> int:
        return hash(self._as_whole())

    def __repr__(self) -> str:
        return repr(self._as_whole())

    def __getattr__(self, name: str):
        return getattr(self._as_whole(), name)
