"""Compile cache: share compile and run work across the phases of one campaign.

A Fig. 8 sweep compiles the same 200 generated sources under 16 vendor
behaviours, and a Titan sweep compiles them again for every node and
re-check.  A :class:`CompileCache` holds two stores:

* the **parse tier**, keyed on ``(source, language, name)``, holds the
  behaviour-independent half of a compile
  (:class:`~repro.compiler.frontend.ParsedSource`): the parsed program,
  its validation facts and its region plans table (plans and device code,
  filled lazily as the program's regions first run), or the frontend
  error (negative caching: a source that does not parse fails identically
  under every behaviour).  Every behaviour of a sweep reads the same
  entry, so each source is parsed, and each of its regions planned and
  lowered to device code, once per sweep.  The behaviour-dependent half,
  ``Compiler.validate`` over the parse's facts, is a scan of short lists:
  every phase runs it afresh (:meth:`CompileCache.get_or_compile`) and
  gets a fresh :class:`~repro.compiler.pipeline.CompiledProgram`, which
  dies with its phase, lowering and all;
* the **execute memo**, keyed on ``(source, language, name, env_vars,
  max_steps)``.  Each key holds a short list of finished runs: the
  :class:`~repro.compiler.behavior.BehaviorTrace` of the questions the run
  asked its behaviour (field reads, and ``item in field`` queries on the
  set fields, each with its answer), the seed when the run read the RNG,
  and the run's outcome.  A run is deterministic given the program, the
  seed and those answers, so a behaviour that answers every recorded
  question the same way (under the same seed, if the run read the RNG)
  would repeat the run exactly: the harness takes the stored outcome and
  skips lowering, machine construction and interpretation.  Recording
  fails closed: reading ``label`` or calling a method records the whole
  behaviour, and iterating or sizing a set field records the whole field.
  The memo stores traces and outcomes only, never programs or lowerings.
  Only finished iterations are stored: an injected fault, a tripped
  deadline or any exception out of a run stores nothing.

Both stores are bounded by ``maxsize`` keys (LRU) and emptied by
:meth:`CompileCache.clear`.

The cache lives as long as its owner: one sweep (``vendor_pass_rates``),
one :class:`~repro.harness.titan.TitanHarness`, one runner, or, under
``compile_cache=False`` (``--no-compile-cache``), one phase.  It is
never process-wide: a process-wide cache would keep every campaign's
parses alive in a long-running process.  A phase-private cache shares
nothing across phases: its compiler has no frontend, so every compile
parses afresh, and its memo serves only the phase's own repeats of a
seed-free iteration 0.

One lock guards all of the cache, so callers may share one across their
own threads.  Neither store is single-flight: racing threads may each
parse (or run) the same key, every racer gets the entry stored first,
and a run that is already stored is not stored twice.  Under the
``process`` policy each worker process holds its own cache and parses
and runs for itself; the engine aggregates hit counters from the
per-phase flags carried by the results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.compiler.errors import CompileError, CompilerCrashError
from repro.compiler.frontend import ParsedSource, parse_front

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.behavior import BehaviorTrace, CompilerBehavior
    from repro.compiler.pipeline import CompiledProgram, Compiler
    from repro.ir.astnodes import Program

#: default number of keys kept per store (LRU beyond this); one full-suite
#: run against one behaviour needs ~2 keys per template (functional +
#: cross)
DEFAULT_MAXSIZE = 4096


@dataclass
class CacheOutcome:
    """Result of a compile through the cache: exactly one of program/error
    is set.  ``hit``: the compile took its parse from the parse tier."""

    program: Optional["CompiledProgram"]
    error: Optional[CompileError]
    hit: bool


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache counters.

    Taken under the cache lock, so ``hits + misses == lookups`` always
    holds *within one snapshot* for each store — reading the counter
    attributes separately while other threads use the cache can tear (one
    counter from before a concurrent update, the other from after) and
    report totals that don't sum to the number of lookups.

    The ``parse_`` fields count the parse tier, where a miss is one
    frontend run; the ``memo_`` fields count the execute memo, where
    ``memo_entries`` is the number of stored outcomes.
    """

    parse_hits: int = 0
    parse_misses: int = 0
    parse_entries: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_entries: int = 0


@dataclass(frozen=True)
class MemoEntry:
    """One run stored in the execute memo.

    ``seed`` is None when the run never read the RNG (its outcome holds
    for every seed), else the seed it ran under.  ``outcome`` is opaque
    to the cache: the harness stores its ``IterationOutcome``.
    """

    trace: "BehaviorTrace"
    seed: Optional[int]
    outcome: object


class CompileCache:
    """Two bounded LRU stores, the parse tier and the execute memo; see
    the module docstring."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._parses: "OrderedDict[tuple, ParsedSource]" = OrderedDict()
        self.parse_hits = 0
        self.parse_misses = 0
        self._memo: "OrderedDict[tuple, List[MemoEntry]]" = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0

    def stats(self) -> CacheStats:
        """Snapshot every counter atomically (see CacheStats)."""
        with self._lock:
            return CacheStats(
                parse_hits=self.parse_hits, parse_misses=self.parse_misses,
                parse_entries=len(self._parses),
                memo_hits=self.memo_hits, memo_misses=self.memo_misses,
                memo_entries=sum(len(runs) for runs in self._memo.values()),
            )

    def clear(self) -> None:
        with self._lock:
            self._parses.clear()
            self.parse_hits = 0
            self.parse_misses = 0
            self._memo.clear()
            self.memo_hits = 0
            self.memo_misses = 0

    # ----------------------------------------------------------- parse tier

    def parsed(self, source: str, language: str, name: str) -> ParsedSource:
        """The parse tier: ``source`` parsed once, with its validation
        facts, or its cached frontend error.

        Exceptions other than a frontend error (an unknown language, a
        frontend crash) propagate and are not cached.
        """
        k = (source, language, name)
        with self._lock:
            entry = self._parses.get(k)
            if entry is not None:
                self._parses.move_to_end(k)
                self.parse_hits += 1
                return entry
        fresh = parse_front(source, language, name)
        with self._lock:
            self.parse_misses += 1
            # a racing thread may have stored first: everyone shares its entry
            entry = self._parses.setdefault(k, fresh)
            self._parses.move_to_end(k)
            while len(self._parses) > self.maxsize:
                self._parses.popitem(last=False)
        return entry

    def parse(self, source: str, language: str, name: str) -> "Program":
        """The parse tier as a frontend: the program, or the cached
        :class:`~repro.frontend.errors.FrontendError` raised (a copy)."""
        entry = self.parsed(source, language, name)
        err = entry.error
        if err is not None:
            # a copy: the shared error must not collect its raisers' tracebacks
            raise type(err)(err.message, err.loc)
        return entry.program

    # -------------------------------------------------------------- compile

    def get_or_compile(
        self,
        compiler: "Compiler",
        source: str,
        language: str,
        name: str,
        tracer=None,
    ) -> CacheOutcome:
        """Compile one phase's source; never raises.

        Every call reaches ``compiler.compile`` (so the ``compile`` fault
        site and any test double fire on every phase), which takes its
        parse from this cache's parse tier when the compiler's frontend
        is this cache (as it is in the harness with a shared cache).  The
        outcome's ``hit`` says the parse was already in the parse tier when
        the compile began.

        A :class:`CompileError` (a frontend error or a rejection by
        ``Compiler.validate``) comes back as the outcome's error.  A
        *non*-``CompileError`` exception (an internal compiler crash) is
        wrapped in :class:`CompilerCrashError` and surfaced as the
        outcome's error — never raised.

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives a
        ``compile.cache_hit`` or ``compile.cache_miss`` event (and
        ``compile.crashed`` for a crash).  A compile error shows in the
        runner's ``compile`` span as an ``error`` attribute.
        """
        with self._lock:
            hit = (source, language, name) in self._parses
        observe = tracer is not None and tracer.enabled
        if observe:
            tracer.event("compile.cache_hit" if hit else "compile.cache_miss",
                         template=name, language=language)
        # an error comes back without its traceback, as the parse tier
        # stores frontend errors: the traceback's frames reach the
        # caller's, which holds the outcome, a reference cycle
        try:
            program = compiler.compile(source, language, name)
        except CompileError as err:
            return CacheOutcome(program=None, error=err.with_traceback(None),
                                hit=hit)
        except Exception as err:
            if observe:
                tracer.event("compile.crashed", template=name,
                             language=language, error=repr(err))
            crash = CompilerCrashError(
                f"internal compiler crash: {err!r}",
                cause=err.with_traceback(None),
            )
            return CacheOutcome(program=None, error=crash, hit=hit)
        return CacheOutcome(program=program, error=None, hit=hit)

    # ---------------------------------------------------------- execute memo

    @staticmethod
    def memo_key(source: str, language: str, name: str,
                 env_vars: Optional[Dict[str, str]], max_steps: int) -> tuple:
        env = tuple(sorted(env_vars.items())) if env_vars else ()
        return (source, language, name, env, max_steps)

    def recall(self, key: tuple, behavior: "CompilerBehavior", seed: int,
               tracer=None) -> Optional[MemoEntry]:
        """A stored run of ``key`` that ``behavior`` and ``seed`` would
        repeat exactly, or None (a miss).

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives an
        ``execute.memo_hit`` or ``execute.memo_miss`` event.
        """
        found = None
        with self._lock:
            runs = self._memo.get(key)
            if runs is not None:
                self._memo.move_to_end(key)
                for entry in runs:
                    if ((entry.seed is None or entry.seed == seed)
                            and entry.trace.answers_alike(behavior)):
                        found = entry
                        break
            if found is None:
                self.memo_misses += 1
            else:
                self.memo_hits += 1
        if tracer is not None and tracer.enabled:
            tracer.event("execute.memo_miss" if found is None
                         else "execute.memo_hit",
                         template=key[2], language=key[1])
        return found

    def remember(self, key: tuple, trace: "BehaviorTrace",
                 seed: Optional[int], outcome: object) -> None:
        """Store a finished run: its behaviour trace, the seed it ran under
        (None when it never read the RNG) and its outcome.  Racing threads
        that ran the same path store it once."""
        entry = MemoEntry(trace, seed, outcome)
        with self._lock:
            runs = self._memo.setdefault(key, [])
            self._memo.move_to_end(key)
            if not any(run.trace == trace and run.seed == seed
                       for run in runs):
                runs.append(entry)
            while len(self._memo) > self.maxsize:
                self._memo.popitem(last=False)
