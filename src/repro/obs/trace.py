"""Span-based tracing for the harness: the run's one event stream.

A :class:`Span` is one timed region of work (a template, a phase, a
compile, a Titan node check) with a parent link, free-form attributes and a
worker label.  A :class:`Tracer` collects spans and typed events for one
run and is the single object threaded through the runner, the execution
engines, the compile cache, the journal and the Titan harness.

Design points that matter to the rest of the system:

* **One call per fact.**  :meth:`Tracer.event` is the only way code in
  ``src/`` reports that something happened.  Counts are counts of those
  events (``compile.cache_miss``, ``engine.retry``, ...) or aggregates of
  span attributes (``template`` spans carry ``failure_kind``, ``execute``
  spans carry iterations and the per-phase profile sums and maxima).
* **Subscribers see events as they happen.**  The live-telemetry pipeline
  (:class:`repro.obs.live.LiveTelemetry`) subscribes to the run's tracer
  rather than being fed by a second call beside each event, so the trace
  and the live stream cannot drift apart.  A live-only run uses an
  :class:`EventTracer`, which forwards events and records no spans.
* **Deterministic IDs.**  A span's ID is ``name[key]`` where the key is
  derived from stable identity (template feature+language, phase mode,
  node id) — never from scheduling.  Serial and parallel runs of the same
  configuration therefore produce spans with *identical IDs*, so traces
  are diffable/joinable across policies.  Repeated (name, key) pairs are
  disambiguated with a ``~n`` suffix in creation order; adopted worker
  spans go through the same rule.
* **Spans are the timers.**  ``Span.__enter__``/``__exit__`` take the
  ``perf_counter`` readings, and the runner copies ``span.duration`` into
  ``PhaseResult.compile_s``/``run_s``.  One reading means the trace and
  :class:`~repro.harness.engine.RunMetrics` reconcile *exactly*, not just
  approximately.
* **Disabled tracing is free.**  :data:`NULL_TRACER` returns
  :class:`NullSpan` objects that still time (the runner needs the
  durations regardless) but record nothing and allocate nothing else.
* **Worker marshalling.**  Process-pool workers run their own tracer and
  :meth:`Tracer.drain` the collected spans/events into a plain picklable
  payload after each work unit.  The parent hands the payload's events to
  its subscribers the moment the unit completes (:meth:`Tracer.relay`),
  and later adopts the payloads in template order (:meth:`Tracer.adopt`)
  — relabelling the worker, re-deriving span IDs and renumbering event
  sequence numbers.  Spans without a parent are then attached under the
  suite-run root span by :meth:`Tracer.reparent_orphans`, so one trace
  covers the whole run.

Span parentage is tracked per-thread (a thread-local stack), which makes
nesting automatic in serial code and keeps it isolated when a caller
shares one tracer across its own threads.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: an event subscriber: called with (name, fields) for every event
Subscriber = Callable[[str, Dict[str, object]], None]

#: format tag written into trace metadata and checked by the reader
TRACE_FORMAT = "repro.obs/v1"


class Span:
    """One timed, attributed region of work."""

    __slots__ = ("span_id", "name", "key", "parent_id", "worker",
                 "t0", "t1", "attrs", "_tracer")

    def __init__(self, span_id: str, name: str, key: Optional[str],
                 parent_id: Optional[str], worker: str,
                 tracer: Optional["Tracer"] = None,
                 attrs: Optional[Dict[str, object]] = None):
        self.span_id = span_id
        self.name = name
        self.key = key
        self.parent_id = parent_id
        self.worker = worker
        self.t0 = 0.0
        self.t1 = 0.0
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self._tracer = tracer

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = perf_counter()
        tracer = self._tracer
        if tracer is not None:
            # a closed span is recorded once and then belongs to the
            # tracer, which holds it: it keeps no link back, which would
            # make every traced campaign a reference cycle
            self._tracer = None
            tracer._pop(self)
            tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.span_id!r}, parent={self.parent_id!r}, dur={self.duration:.6f})"

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "key": self.key,
            "parent": self.parent_id,
            "worker": self.worker,
            "t0": self.t0,
            "dur_s": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data.get("key"),
                   data.get("parent"), data.get("worker", ""),
                   attrs=dict(data.get("attrs") or {}))
        span.t0 = data.get("t0", 0.0)
        span.t1 = span.t0 + data.get("dur_s", 0.0)
        return span


class Event:
    """A typed point-in-time record (e.g. ``iteration.failed``)."""

    __slots__ = ("seq", "name", "span_id", "fields")

    def __init__(self, seq: int, name: str, span_id: Optional[str],
                 fields: Dict[str, object]):
        self.seq = seq
        self.name = name
        self.span_id = span_id
        self.fields = fields

    def to_dict(self) -> dict:
        return {"seq": self.seq, "name": self.name, "span": self.span_id,
                "fields": self.fields}

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(data.get("seq", 0), data["name"], data.get("span"),
                   dict(data.get("fields") or {}))


class Tracer:
    """Collects spans and events for one run."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self.events: List[Event] = []
        #: called with (name, fields) for every event, as it is reported;
        #: replaced (never mutated) so event() can iterate without the lock
        self.subscribers: tuple = ()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._used_ids: set = set()
        self._seq = 0

    # ------------------------------------------------------------- span api

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def span(self, name: str, key: Optional[str] = None,
             parent: Optional[object] = None, worker: Optional[str] = None,
             **attrs) -> Span:
        """Create a span; use as a context manager to time and record it.

        ``parent`` may be a :class:`Span`, an explicit parent ID string, or
        None (the current thread's innermost open span, if any).
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if parent_id is None:
            current = self.current()
            parent_id = current.span_id if current is not None else None
        if worker is None:
            worker = threading.current_thread().name
        with self._lock:
            span_id = self._claim_id(name, key)
        return Span(span_id, name, key, parent_id, worker,
                    tracer=self, attrs=dict(attrs) if attrs else None)

    def event(self, name: str, **fields) -> None:
        """Record one fact and hand it to every subscriber."""
        current = self.current()
        span_id = current.span_id if current is not None else None
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.events.append(Event(seq, name, span_id, fields))
        for subscriber in self.subscribers:
            subscriber(name, fields)

    # ---------------------------------------------------------- subscribers

    def subscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            self.subscribers = self.subscribers + (subscriber,)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            self.subscribers = tuple(
                s for s in self.subscribers if s != subscriber)

    # ------------------------------------------------------------ internals

    def _claim_id(self, name: str, key: Optional[str]) -> str:
        """The next free ID for (name, key); the caller holds the lock."""
        base = f"{name}[{key}]" if key is not None else name
        if base not in self._used_ids:
            self._used_ids.add(base)
            return base
        n = 2
        while f"{base}~{n}" in self._used_ids:
            n += 1
        span_id = f"{base}~{n}"
        self._used_ids.add(span_id)
        return span_id

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ----------------------------------------------------------- marshalling

    def drain(self) -> dict:
        """Snapshot everything recorded so far as a picklable payload and
        reset (used by process-pool workers after each work unit)."""
        with self._lock:
            payload = {
                "spans": [span.to_dict() for span in self.spans],
                "events": [event.to_dict() for event in self.events],
            }
            self.spans = []
            self.events = []
            self._used_ids = set()
            self._seq = 0
        return payload

    def relay(self, payload: dict) -> None:
        """Hand a drained payload's events to the subscribers without
        recording them — the parent calls this when a worker's unit
        completes; :meth:`adopt` records the payload later."""
        subscribers = self.subscribers
        if not subscribers:
            return
        for record in payload.get("events", ()):
            fields = record.get("fields") or {}
            for subscriber in subscribers:
                subscriber(record["name"], fields)

    def adopt(self, payload: dict, worker: Optional[str] = None) -> None:
        """Merge a drained payload from another tracer (another process).

        Adopted spans are relabelled with ``worker`` (the pool's name for
        the process) and get their IDs from this tracer's (name, key)
        rule, with parent links and event span links rewritten to match:
        workers reset their ID set after every unit, so two runs sharing
        one tracer would otherwise collide.  Event sequence numbers are
        renumbered into this tracer's stream so ordering stays total.
        Subscribers are not notified (see :meth:`relay`).
        """
        spans = [Span.from_dict(d) for d in payload.get("spans", [])]
        events = [Event.from_dict(d) for d in payload.get("events", [])]
        events.sort(key=lambda e: e.seq)
        with self._lock:
            renamed: Dict[str, str] = {}
            for span in spans:
                new_id = self._claim_id(span.name, span.key)
                renamed[span.span_id] = new_id
                span.span_id = new_id
            for span in spans:
                span.parent_id = renamed.get(span.parent_id, span.parent_id)
                if worker is not None:
                    span.worker = worker
                self.spans.append(span)
            for event in events:
                event.span_id = renamed.get(event.span_id, event.span_id)
                event.seq = self._seq
                self._seq += 1
                self.events.append(event)

    def reparent_orphans(self, root: Span) -> None:
        """Attach every recorded parentless span under ``root`` — the step
        that stitches worker-local traces into one run-wide tree."""
        with self._lock:
            for span in self.spans:
                if span.parent_id is None and span is not root:
                    span.parent_id = root.span_id


class EventTracer(Tracer):
    """A span-free tracer for runs with live telemetry and no trace.

    It records no spans.  An event goes to the subscribers when there are
    any — the coordinating process, where the live pipeline listens — and
    is kept for :meth:`drain` only when there are none: a process-pool
    worker, whose drained events the parent relays.  A long live-only
    campaign therefore holds no per-event state.
    """

    def span(self, name: str, key: Optional[str] = None,
             parent: Optional[object] = None, worker: Optional[str] = None,
             **attrs) -> "NullSpan":
        return NullSpan()

    def event(self, name: str, **fields) -> None:
        subscribers = self.subscribers
        if not subscribers:
            super().event(name, **fields)
        for subscriber in subscribers:
            subscriber(name, fields)

    def adopt(self, payload: dict, worker: Optional[str] = None) -> None:
        pass  # relay() handed the events on; nothing here records them


# ---------------------------------------------------------------------------
# disabled tracing
# ---------------------------------------------------------------------------


class NullSpan:
    """Times (the runner reads ``duration`` either way) but records nothing."""

    __slots__ = ("t0", "t1")

    span_id = ""
    name = ""
    key = None
    parent_id = None
    worker = ""
    attrs: Dict[str, object] = {}

    def __init__(self) -> None:
        self.t0 = 0.0
        self.t1 = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = perf_counter()
        return False


class NullTracer:
    """The default tracer: every operation is a no-op (modulo two
    ``perf_counter`` reads per span, which the untraced runner paid for
    its timing instrumentation already)."""

    enabled = False
    spans: List[Span] = []
    events: List[Event] = []
    subscribers: tuple = ()

    def current(self) -> None:
        return None

    def span(self, name: str, key: Optional[str] = None,
             parent: Optional[object] = None, worker: Optional[str] = None,
             **attrs) -> NullSpan:
        return NullSpan()

    def event(self, name: str, **fields) -> None:
        pass

    def subscribe(self, subscriber: Subscriber) -> None:
        pass  # the shared null tracer never gains subscribers

    def unsubscribe(self, subscriber: Subscriber) -> None:
        pass

    def drain(self) -> dict:
        return {"spans": [], "events": []}

    def relay(self, payload: dict) -> None:
        pass

    def adopt(self, payload: dict, worker: Optional[str] = None) -> None:
        pass

    def reparent_orphans(self, root) -> None:
        pass


NULL_TRACER = NullTracer()
