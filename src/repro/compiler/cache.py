"""Compile cache: share compile work across the runs of one campaign.

A Fig. 8 sweep compiles the same 200 generated sources under 16 vendor
behaviours, and a Titan sweep compiles them again for every node and
re-check.  A :class:`CompileCache` has two tiers:

* the **parse tier**, keyed on ``(source, language, name)``, holds the
  behaviour-independent half of a compile
  (:class:`~repro.compiler.frontend.ParsedSource`): the parsed program,
  its validation facts and its region plans table (plans and device code,
  filled lazily as the program's regions first run), or the frontend
  error.  Every behaviour of a sweep reads the same entry, so each source
  is parsed, and each of its regions planned and lowered to device code,
  once per sweep;
* the **compile tier**, keyed on ``(source, language, name, behavior)``,
  holds whole compile results.  ``CompilerBehavior`` is a frozen
  (hashable) dataclass, so keying on the whole behaviour, not just its
  label, guarantees two implementations never alias each other's entries.
  It hits when the same behaviour compiles a source again: repeated
  phases, Titan nodes carrying identical stacks, triage re-checks.

Both tiers cache errors (negative caching): a source that does not parse,
or a vendor version that rejects a directive, fails identically on every
attempt, and the error-heavy beta sweeps benefit the most.

The cache lives as long as its owner: one sweep (``vendor_pass_rates``),
one :class:`~repro.harness.titan.TitanHarness`, or one runner.  It is
never process-wide: a process-wide cache would keep every campaign's
programs alive in a long-running process.  ``compile_cache=False``
(``--no-compile-cache``) builds none, and every compile parses afresh.

The cache is thread-safe (the ``thread`` execution policy shares one
runner).  The compile tier is single-flight: threads that miss the same
key while it is being compiled wait for that one compile and count as
hits, so a key is compiled (and counted as a miss) once however many
threads race for it.  The parse tier is locked but not single-flight:
racing threads may each parse, and all of them get the entry stored
first.  Under the ``process`` policy each worker process holds its own
cache and parses for itself; the engine aggregates hit counters from the
per-phase flags carried by the results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.compiler.errors import CompileError, CompilerCrashError
from repro.compiler.frontend import ParsedSource, parse_front

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.behavior import CompilerBehavior
    from repro.compiler.pipeline import CompiledProgram, Compiler
    from repro.ir.astnodes import Program

#: default number of entries kept per tier (LRU beyond this); one full-suite
#: run against one behaviour needs ~2 entries per template (functional +
#: cross)
DEFAULT_MAXSIZE = 4096


@dataclass
class CacheOutcome:
    """Result of a cached compile: exactly one of program/error is set."""

    program: Optional["CompiledProgram"]
    error: Optional[CompileError]
    hit: bool


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache counters.

    Taken under the cache lock, so ``hits + misses == lookups`` always
    holds *within one snapshot* — reading the ``hits``/``misses``
    attributes separately under the thread policy can tear (one counter
    from before a concurrent update, the other from after) and report
    totals that don't sum to the number of lookups.

    ``hits``/``misses``/``entries`` count the compile tier; the ``parse_``
    fields count the parse tier, where a miss is one frontend run.
    """

    hits: int
    misses: int
    entries: int
    parse_hits: int = 0
    parse_misses: int = 0
    parse_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Flight:
    """One in-progress compile of a key; ``entry`` is its cached result,
    or None when the compile crashed (crashes are never cached)."""

    __slots__ = ("done", "entry")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[Tuple[object, object]] = None


class CompileCache:
    """Two bounded LRU tiers: parses, and compile results (successes and
    errors); see the module docstring."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, Tuple[object, object]]" = OrderedDict()
        self._lock = threading.Lock()
        #: keys being compiled right now -> their flight
        self._inflight: Dict[tuple, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self._parses: "OrderedDict[tuple, ParsedSource]" = OrderedDict()
        self.parse_hits = 0
        self.parse_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        return self.stats().hit_rate

    def stats(self) -> CacheStats:
        """Snapshot hits/misses/entries atomically (see CacheStats)."""
        with self._lock:
            return CacheStats(
                hits=self.hits, misses=self.misses, entries=len(self._entries),
                parse_hits=self.parse_hits, parse_misses=self.parse_misses,
                parse_entries=len(self._parses),
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self._parses.clear()
            self.parse_hits = 0
            self.parse_misses = 0

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

    # --------------------------------------------------------- compile tier

    @staticmethod
    def key(source: str, language: str, name: str,
            behavior: "CompilerBehavior") -> tuple:
        return (source, language, name, behavior)

    def get_or_compile(
        self,
        compiler: "Compiler",
        source: str,
        language: str,
        name: str,
        tracer=None,
    ) -> CacheOutcome:
        """Compile through the cache; never raises.

        A cached :class:`CompileError` counts as a hit — the second
        rejection is exactly as informative as the first and much cheaper.
        A *non*-``CompileError`` exception (an internal compiler crash) is
        accounted as a miss, wrapped in :class:`CompilerCrashError` and
        surfaced as the outcome's error — never cached, never raised.

        A miss on a key another thread is compiling waits for that compile
        and takes its result as a hit.  If that compile crashed, the waiter
        tries again itself: a crash is never shared, as it is never cached.

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives
        ``compile.cache_hit``/``compile.cache_miss`` events (and
        ``compile.crashed`` for a crash); cached errors are hits.  A fresh
        compile error shows in the runner's ``compile`` span: an ``error``
        attribute with ``cache_hit`` false.
        """
        k = self.key(source, language, name, compiler.behavior)
        observe = tracer is not None and tracer.enabled
        while True:
            with self._lock:
                entry = self._entries.get(k)
                if entry is not None:
                    self._entries.move_to_end(k)
                    self.hits += 1
                    break
                flight = self._inflight.get(k)
                if flight is None:
                    flight = self._inflight[k] = _Flight()
                    break
            flight.done.wait()
            with self._lock:
                entry = flight.entry
                if entry is not None:
                    self.hits += 1
                    break
        if entry is not None:
            program, error = entry
            if observe:
                tracer.event("compile.cache_hit", template=name,
                             language=language)
            return CacheOutcome(program=program, error=error, hit=True)
        if observe:
            tracer.event("compile.cache_miss", template=name,
                         language=language)
        try:
            program = compiler.compile(source, language, name)
        except CompileError as err:
            self._store(k, (None, err), flight)
            return CacheOutcome(program=None, error=err, hit=False)
        except BaseException as err:
            # Account the miss (the attempt really went to the compiler) but
            # cache nothing: a transient crash must not poison future
            # compiles of the same source the way a negative-cached
            # diagnostic would.  Waiters wake and compile for themselves.
            self._store(k, None, flight)
            if not isinstance(err, Exception):
                raise  # interrupts are not compiler crashes
            if observe:
                tracer.event("compile.crashed", template=name,
                             language=language, error=repr(err))
            crash = CompilerCrashError(
                f"internal compiler crash: {err!r}", cause=err
            )
            return CacheOutcome(program=None, error=crash, hit=False)
        self._store(k, (program, None), flight)
        return CacheOutcome(program=program, error=None, hit=False)

    def _store(self, k: tuple, entry: Optional[Tuple[object, object]],
               flight: _Flight) -> None:
        """Count the miss, cache ``entry`` (None: a crash, not cached) and
        hand it to the flight's waiters."""
        with self._lock:
            self.misses += 1
            if entry is not None:
                self._entries[k] = entry
                self._entries.move_to_end(k)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            flight.entry = entry
            del self._inflight[k]
        flight.done.set()
