"""Pass 5: async/wait happens-before analysis (ACC5xx).

OpenACC ``async(q)`` puts compute constructs and ``update`` transfers on
device queues that run concurrently with the host thread and with each
other; only ``wait`` (directive, clause, or ``acc_async_wait*`` runtime
call) and data-region exit impose ordering.  This pass replays each
function's :mod:`~repro.staticcheck.dataenv` flow-event stream, keeping
the set of *pending* async operations per queue — the frontier of the
happens-before DAG — and diagnoses:

``ACC501``
    two operations on provably different queues touch the same array and
    at least one writes (write-write or read-write, no ordering edge);
``ACC502``
    a ``wait`` that names a queue no ``async`` clause in the function
    ever uses (the wait is dead — usually a wrong tag);
``ACC503``
    the host thread reads or writes an array with pending async work on
    it, or observes completion state (``acc_async_test``) of a busy
    queue, before any wait edge — behaviour then depends on scheduling.

Queue ids are resolved with a one-shot constant propagation
(:func:`~repro.staticcheck.dataenv.scalar_constants`), so the idiomatic
``int tag = 2; ... async(tag) ... wait(tag)`` chains resolve to concrete
queues.  Two queue ids only count as *different* when both are known
(concrete integers or the bare-``async`` default queue); symbolic or
unresolved tags never produce ACC501 — the pass prefers silence to a
speculative race report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.ir.astnodes import (
    Expr,
    Function,
    Ident,
    IntLit,
    Program,
    SourceLocation,
    Unary,
)
from repro.staticcheck.dataenv import (
    FlowOp,
    declared_arrays,
    flow_events,
    scalar_constants,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity, sort_diagnostics

#: the bare-``async`` queue (its own queue, distinct from every numbered one)
DEFAULT_QUEUE = "default"

#: queue key: concrete int, the default queue, a symbolic tag, or unknown
QueueKey = Union[int, str, Tuple[str, str]]
UNKNOWN = "unknown"

_WAIT_CALLS = frozenset({"acc_async_wait", "acc_wait"})
_WAIT_ALL_CALLS = frozenset({"acc_async_wait_all", "acc_wait_all"})
_TEST_CALLS = frozenset({"acc_async_test"})
_TEST_ALL_CALLS = frozenset({"acc_async_test_all"})


@dataclass
class PendingOp:
    """One enqueued-but-not-awaited async operation."""

    label: str  # 'compute' | 'update'
    queue: QueueKey
    loc: SourceLocation
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def touches(self) -> FrozenSet[str]:
        return self.reads | self.writes


def _queue_name(key: QueueKey) -> str:
    if key == DEFAULT_QUEUE:
        return "the default async queue"
    if isinstance(key, tuple):
        return f"queue '{key[1]}'"
    return f"queue {key}"


def _resolve(expr: Optional[Expr],
             consts: Dict[str, int]) -> QueueKey:
    """Resolve an async/wait tag expression to a queue key."""
    if expr is None:
        return DEFAULT_QUEUE
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Unary) and expr.op in ("-", "+") and \
            isinstance(expr.operand, IntLit):
        value = expr.operand.value
        return -value if expr.op == "-" else value
    if isinstance(expr, Ident):
        if expr.name in consts:
            return consts[expr.name]
        return ("sym", expr.name)
    return UNKNOWN


def _definitely_different(a: QueueKey, b: QueueKey) -> bool:
    """True only when the two keys provably name different queues."""
    if a == UNKNOWN or b == UNKNOWN:
        return False
    if a == b:
        return False
    known_a = isinstance(a, int) or a == DEFAULT_QUEUE
    known_b = isinstance(b, int) or b == DEFAULT_QUEUE
    return known_a and known_b


class _FunctionAsync:
    def __init__(self, fn: Function):
        self.fn = fn
        self.arrays = declared_arrays(fn)
        self.consts = scalar_constants(fn)
        self.events = flow_events(fn, self.arrays)
        self.pending: Dict[QueueKey, List[PendingOp]] = {}
        self.escaped: Set[str] = set()
        self.diags: List[Diagnostic] = []
        self.reported: Set[tuple] = set()
        #: every queue an async clause targets anywhere in the function
        self.ever_async: Set[QueueKey] = set()
        for op in self.events:
            if op.directive is not None and op.directive.has_clause("async"):
                cl = op.directive.clause("async")
                self.ever_async.add(_resolve(cl.expr, self.consts))

    # ------------------------------------------------------------- helpers

    def _report(self, code: str, message: str, loc: SourceLocation,
                dedup: tuple, hint: str = "") -> None:
        key = (code,) + dedup
        if key in self.reported:
            return
        self.reported.add(key)
        self.diags.append(Diagnostic(
            code, message, severity=(
                Severity.ERROR if code == "ACC501" else Severity.WARNING
            ),
            loc=loc, hint=hint,
        ))

    def _live(self, names: FrozenSet[str]) -> FrozenSet[str]:
        return frozenset(n for n in names if n not in self.escaped)

    def _drain(self, queue: Optional[QueueKey]) -> None:
        if queue is None:
            self.pending.clear()
        else:
            self.pending.pop(queue, None)
            if isinstance(queue, int):
                # a concrete wait also covers a symbolic tag that constant
                # propagation resolved to the same value elsewhere
                for key in [k for k in self.pending
                            if isinstance(k, tuple)
                            and self.consts.get(k[1]) == queue]:
                    self.pending.pop(key, None)

    def _all_pending(self) -> List[PendingOp]:
        return [op for ops in self.pending.values() for op in ops]

    # ------------------------------------------------------- device ops

    def _device_op(self, label: str, flow: FlowOp,
                   reads: FrozenSet[str], writes: FrozenSet[str]) -> None:
        directive = flow.directive
        assert directive is not None
        for cl in directive.clauses_named("wait"):
            # wait *clause*: join edge before this op launches
            self._wait_tag(cl.expr, flow.loc, from_clause=True)
        async_clause = directive.clause("async")
        queue = (
            _resolve(async_clause.expr, self.consts)
            if async_clause is not None else None
        )
        reads, writes = self._live(reads), self._live(writes)
        op = PendingOp(label=label, queue=queue if queue is not None
                       else "sync", loc=flow.loc,
                       reads=reads, writes=writes)
        for other in self._all_pending():
            if queue is not None and \
                    not _definitely_different(queue, other.queue):
                continue
            # a synchronous device op overlaps every pending queue
            conflicts = sorted(
                (writes & other.touches()) | (other.writes & reads)
            )
            for name in conflicts:
                self._report(
                    "ACC501",
                    f"array '{name}' is accessed from "
                    f"{_queue_name(other.queue)} and "
                    + (f"{_queue_name(queue)}" if queue is not None
                       else f"a synchronous {label}")
                    + " with no ordering wait (at least one access "
                      "writes)",
                    flow.loc,
                    dedup=(name, frozenset((queue, other.queue))),
                    hint=f"add wait({_queue_name(other.queue).split()[-1]})"
                         " or put both operations on one queue",
                )
        if queue is not None:
            self.pending.setdefault(queue, []).append(op)

    # ---------------------------------------------------------- wait edges

    def _wait_tag(self, expr: Optional[Expr], loc: SourceLocation,
                  from_clause: bool = False) -> None:
        if expr is None:
            # bare wait: join every queue
            if not self.ever_async and not from_clause:
                self._report(
                    "ACC502",
                    "wait but the function never enqueues async work",
                    loc, dedup=("bare",),
                    hint="drop the wait or add the intended async clause",
                )
            self._drain(None)
            return
        queue = _resolve(expr, self.consts)
        if queue == UNKNOWN:
            self._drain(None)  # can't tell which queue: assume it joins all
            return
        unresolved_async = any(
            isinstance(q, tuple) or q == UNKNOWN for q in self.ever_async
        )
        if queue not in self.ever_async and not unresolved_async:
            self._report(
                "ACC502",
                f"wait targets {_queue_name(queue)} but no async clause "
                "ever uses it",
                loc, dedup=(queue,),
                hint="the tag is probably wrong; async work on other "
                     "queues stays unsynchronized",
            )
        self._drain(queue)

    def _wait_directive(self, flow: FlowOp) -> None:
        directive = flow.directive
        assert directive is not None
        tags = directive.clauses_named("wait")
        if not tags:
            self._wait_tag(None, flow.loc)
            return
        for cl in tags:
            self._wait_tag(cl.expr, flow.loc)

    # ------------------------------------------------------------ host ops

    def _host(self, flow: FlowOp) -> None:
        self.escaped.update(flow.escapes)
        for name, args in flow.calls:
            lowered = name.lower()
            if lowered in _WAIT_ALL_CALLS:
                self._drain(None)
            elif lowered in _WAIT_CALLS:
                self._wait_tag(args[0] if args else None, flow.loc)
            elif lowered in _TEST_ALL_CALLS:
                if self._all_pending():
                    self._report(
                        "ACC503",
                        "host observes completion state of pending async "
                        "work (acc_async_test_all before any wait)",
                        flow.loc, dedup=("test", "all"),
                        hint="the result depends on scheduling; wait "
                             "first if a fixed answer is expected",
                    )
            elif lowered in _TEST_CALLS:
                queue = _resolve(args[0] if args else None, self.consts)
                busy = [
                    q for q in self.pending
                    if q == queue or not _definitely_different(q, queue)
                ]
                if busy:
                    self._report(
                        "ACC503",
                        f"host observes completion state of "
                        f"{_queue_name(queue)} while its async work is "
                        "pending (acc_async_test before wait)",
                        flow.loc, dedup=("test", queue),
                        hint="the result depends on scheduling; wait "
                             "first if a fixed answer is expected",
                    )
        reads = self._live(flow.reads)
        writes = self._live(flow.writes)
        if not reads and not writes:
            return
        for other in self._all_pending():
            conflicts = sorted(
                (reads & other.writes)
                | (writes & other.touches())
            )
            for name in conflicts:
                access = "writes" if name in writes else "reads"
                self._report(
                    "ACC503",
                    f"host {access} array '{name}' while a pending "
                    f"{other.label} on {_queue_name(other.queue)} also "
                    "touches it",
                    flow.loc, dedup=(name, other.queue),
                    hint="insert wait (or acc_async_wait) before the "
                         "host access",
                )

    # ---------------------------------------------------------------- run

    def run(self) -> List[Diagnostic]:
        for flow in self.events:
            if flow.kind == "host":
                self._host(flow)
            elif flow.kind == "compute":
                self._device_op("compute", flow, flow.reads, flow.writes)
                self.escaped.update(flow.escapes)
            elif flow.kind == "update":
                assert flow.directive is not None
                named: Set[str] = set()
                for cl in flow.directive.clauses_named("host", "device"):
                    named.update(n for n in cl.var_names
                                 if n in self.arrays)
                # a transfer reads one copy and writes the other: both
                # sides count for conflict purposes
                touched = frozenset(named)
                self._device_op("update", flow, touched, touched)
            elif flow.kind == "wait":
                self._wait_directive(flow)
            elif flow.kind == "data_exit":
                # region exit must complete outstanding work on its data:
                # an implicit join edge for everything pending
                self._drain(None)
            elif flow.kind == "escape":
                self.escaped.update(flow.escapes)
        return self.diags


def check_program_async(program: Program) -> List[Diagnostic]:
    """Run the async happens-before pass over every function."""
    diags: List[Diagnostic] = []
    for fn in program.functions:
        diags.extend(_FunctionAsync(fn).run())
    return sort_diagnostics(diags)
