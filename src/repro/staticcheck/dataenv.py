"""Pass 4: whole-program data-environment flow analysis (ACC4xx).

The ACC1xx/ACC2xx passes judge each directive or loop in isolation; this
pass reasons *across* regions.  Every function is flattened into an ordered
stream of :class:`FlowOp` events (host statements, compute constructs,
data-region entry/exit, ``update``/``wait`` directives) and a forward
dataflow walk tracks, per locally-declared array, where the freshest copy
of its data lives on a four-point memory-state lattice:

``host-only``
    no device copy exists; the host copy is authoritative.
``present``
    host and device copies exist and agree.
``stale-host``
    the device copy is newer (a compute region wrote it and the host never
    fetched it back) — a host read here is ACC401.
``stale-device``
    the host copy is newer (host wrote while present, or the copy was
    created without a transfer) — a device read here is ACC402.

Data-clause semantics follow the 1.0 spec as encoded in ``legality.py``:
``copy``/``copyin`` transfer on entry, ``copy``/``copyout`` on exit,
``create`` allocates without transfer, and the ``present_or_*`` family
only transfers when this region actually created the copy.  Compute
constructs are treated as atomic device operations (async timing is
``asyncgraph``'s concern); arrays that appear in no clause fall back to
the 1.0 implicit ``present_or_copy`` rule.

Deliberate approximations, chosen so that every *error*-severity finding
is near-certain: analysis is path-insensitive (``if`` branches and loop
bodies are walked once, in order), array granularity is whole-object, and
an array escapes (is dropped from tracking) the moment it is passed to an
unknown call, named in ``deviceptr``/``use_device``/``device_resident``,
or managed by unstructured ``enter data``/``exit data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir.acc import COMPUTE_KINDS, Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Call,
    Cast,
    Conditional,
    DeclStmt,
    Expr,
    For,
    Function,
    Ident,
    If,
    Index,
    IntLit,
    Program,
    Return,
    SourceLocation,
    Stmt,
    Unary,
    While,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity, sort_diagnostics

# ---------------------------------------------------------------------------
# the flow-event stream (shared with repro.staticcheck.asyncgraph)
# ---------------------------------------------------------------------------

#: data clauses that copy host -> device on region entry
ENTRY_TRANSFER = frozenset({
    "copy", "copyin", "present_or_copy", "present_or_copyin",
})
#: data clauses that copy device -> host on region exit
EXIT_TRANSFER = frozenset({
    "copy", "copyout", "present_or_copy", "present_or_copyout",
})
#: data clauses that allocate a device copy without an entry transfer
ALLOC_ONLY = frozenset({
    "create", "copyout", "present_or_create", "present_or_copyout",
})
#: clauses whose plain (non-present_or) spelling re-maps unconditionally
STRICT_MAPPING = frozenset({"copy", "copyin", "copyout", "create"})
#: clauses that surrender the array to opaque device-pointer handling
ESCAPE_CLAUSES = frozenset({"deviceptr", "device_resident", "use_device"})


@dataclass
class FlowOp:
    """One atomic event of a function's flattened execution order.

    ``kind`` is one of:

    * ``host`` — one host statement; ``reads``/``writes`` are the tracked
      arrays it touches, ``calls`` the runtime routines it invokes;
    * ``compute`` — a whole compute construct as one atomic device op
      (its directive carries the data clauses and any ``async``);
    * ``data_enter`` / ``data_exit`` — a structured ``data`` region;
    * ``update`` / ``wait`` — the standalone directives;
    * ``escape`` — arrays leaving the analysable world (``host_data``,
      ``enter data``/``exit data``, address-taken calls).
    """

    kind: str
    loc: SourceLocation
    directive: Optional[Directive] = None
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    escapes: FrozenSet[str] = frozenset()
    calls: Tuple[Tuple[str, tuple], ...] = ()


def declared_arrays(fn: Function) -> Set[str]:
    """Names of arrays declared in the function body (the tracked set)."""
    out: Set[str] = set()
    for node in _walk_stmts(fn.body):
        if isinstance(node, DeclStmt):
            for decl in node.decls:
                if decl.dims:
                    out.add(decl.name)
    return out


def _walk_stmts(stmt: Optional[Stmt]) -> Iterable[Stmt]:
    if stmt is None:
        return
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _walk_stmts(child)
    elif isinstance(stmt, (If,)):
        yield from _walk_stmts(stmt.then)
        yield from _walk_stmts(stmt.other)
    elif isinstance(stmt, (For, While)):
        yield from _walk_stmts(stmt.body)
    elif isinstance(stmt, AccConstruct):
        yield from _walk_stmts(stmt.body)
    elif isinstance(stmt, AccLoop):
        yield from _walk_stmts(stmt.loop)


class _Accesses:
    """Mutable collector for one statement / one region body."""

    def __init__(self, arrays: Set[str]):
        self.arrays = arrays
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.escapes: Set[str] = set()
        self.calls: List[Tuple[str, tuple]] = []

    def expr(self, e: Optional[Expr]) -> None:
        if e is None:
            return
        if isinstance(e, Index):
            if isinstance(e.base, Ident):
                if e.base.name in self.arrays:
                    self.reads.add(e.base.name)
            else:
                self.expr(e.base)
            for idx in e.indices:
                self.expr(idx)
        elif isinstance(e, Ident):
            # a bare array name (no subscript) — address taken / aliased
            if e.name in self.arrays:
                self.escapes.add(e.name)
        elif isinstance(e, Call):
            self.calls.append((e.name, tuple(e.args)))
            for arg in e.args:
                self.expr(arg)
        elif isinstance(e, Binary):
            self.expr(e.left)
            self.expr(e.right)
        elif isinstance(e, Unary):
            self.expr(e.operand)
        elif isinstance(e, Conditional):
            self.expr(e.cond)
            self.expr(e.then)
            self.expr(e.other)
        elif isinstance(e, Cast):
            self.expr(e.operand)
        # literals and slices carry no array accesses

    def assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, Index) and isinstance(target.base, Ident):
            if target.base.name in self.arrays:
                self.writes.add(target.base.name)
                if stmt.op:  # compound assignment also reads
                    self.reads.add(target.base.name)
            for idx in target.indices:
                self.expr(idx)
        else:
            # scalar target (or odd shape): indices/value still read
            if not isinstance(target, Ident):
                self.expr(target)
        self.expr(stmt.value)


def _private_arrays(directive: Directive, arrays: Set[str]) -> Set[str]:
    """Arrays privatised on a compute directive (device-private copies —
    their accesses never touch the mapped copy)."""
    out: Set[str] = set()
    for cl in directive.clauses_named("private", "firstprivate", "reduction"):
        out.update(n for n in cl.var_names if n in arrays)
    return out


def _device_accesses(stmt: Stmt, arrays: Set[str],
                     private: Set[str]) -> _Accesses:
    """Array accesses a compute construct's body performs on the device."""
    acc = _Accesses(arrays - private)
    for node in _walk_stmts(stmt):
        if isinstance(node, Assign):
            acc.assign(node)
        elif isinstance(node, DeclStmt):
            for decl in node.decls:
                acc.expr(decl.init)
        elif isinstance(node, If):
            acc.expr(node.cond)
        elif isinstance(node, While):
            acc.expr(node.cond)
        elif isinstance(node, For):
            acc.expr(node.start)
            acc.expr(node.bound)
            acc.expr(node.step)
        elif isinstance(node, Return):
            acc.expr(node.value)
        elif isinstance(node, AccLoop):
            # nested loop directives may privatise more arrays
            acc.arrays = acc.arrays - _private_arrays(node.directive, arrays)
        elif hasattr(node, "expr"):
            acc.expr(node.expr)
    return acc


def flow_events(fn: Function, arrays: Optional[Set[str]] = None) -> List[FlowOp]:
    """Flatten one function into its ordered :class:`FlowOp` stream."""
    tracked = declared_arrays(fn) if arrays is None else arrays
    ops: List[FlowOp] = []
    _flatten(fn.body, tracked, ops)
    return ops


def _host_op(loc: SourceLocation, acc: _Accesses) -> FlowOp:
    return FlowOp(
        kind="host", loc=loc,
        reads=frozenset(acc.reads), writes=frozenset(acc.writes),
        escapes=frozenset(acc.escapes), calls=tuple(acc.calls),
    )


def _flatten(stmt: Optional[Stmt], arrays: Set[str],
             ops: List[FlowOp]) -> None:
    if stmt is None:
        return
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _flatten(child, arrays, ops)
    elif isinstance(stmt, DeclStmt):
        acc = _Accesses(arrays)
        for decl in stmt.decls:
            acc.expr(decl.init)
            for dim in decl.dims:
                acc.expr(dim)
        ops.append(_host_op(stmt.loc, acc))
    elif isinstance(stmt, Assign):
        acc = _Accesses(arrays)
        acc.assign(stmt)
        ops.append(_host_op(stmt.loc, acc))
    elif isinstance(stmt, Return):
        acc = _Accesses(arrays)
        acc.expr(stmt.value)
        ops.append(_host_op(stmt.loc, acc))
    elif isinstance(stmt, If):
        acc = _Accesses(arrays)
        acc.expr(stmt.cond)
        ops.append(_host_op(stmt.loc, acc))
        _flatten(stmt.then, arrays, ops)
        _flatten(stmt.other, arrays, ops)
    elif isinstance(stmt, While):
        acc = _Accesses(arrays)
        acc.expr(stmt.cond)
        ops.append(_host_op(stmt.loc, acc))
        _flatten(stmt.body, arrays, ops)
    elif isinstance(stmt, For):
        acc = _Accesses(arrays)
        acc.expr(stmt.start)
        acc.expr(stmt.bound)
        acc.expr(stmt.step)
        ops.append(_host_op(stmt.loc, acc))
        _flatten(stmt.body, arrays, ops)
    elif isinstance(stmt, AccConstruct):
        kind = stmt.directive.kind
        if kind in COMPUTE_KINDS:
            ops.append(_compute_op(stmt.directive, stmt.body, arrays))
        elif kind == "data":
            ops.append(FlowOp(kind="data_enter", loc=stmt.directive.loc,
                              directive=stmt.directive))
            _flatten(stmt.body, arrays, ops)
            ops.append(FlowOp(kind="data_exit", loc=stmt.directive.loc,
                              directive=stmt.directive))
        else:  # host_data: device-pointer code is opaque to this analysis
            escaped: Set[str] = set()
            for cl in stmt.directive.clauses_named("use_device"):
                escaped.update(n for n in cl.var_names if n in arrays)
            body_acc = _device_accesses(stmt.body, arrays, set())
            escaped |= body_acc.reads | body_acc.writes | body_acc.escapes
            ops.append(FlowOp(kind="escape", loc=stmt.directive.loc,
                              directive=stmt.directive,
                              escapes=frozenset(escaped)))
    elif isinstance(stmt, AccLoop):
        if stmt.directive.kind in COMPUTE_KINDS:
            ops.append(_compute_op(stmt.directive, stmt.loop, arrays))
        else:
            # an orphaned `loop` directive outside any compute region
            # executes on the host
            _flatten(stmt.loop, arrays, ops)
    elif isinstance(stmt, AccStandalone):
        kind = stmt.directive.kind
        if kind == "update":
            ops.append(FlowOp(kind="update", loc=stmt.directive.loc,
                              directive=stmt.directive))
        elif kind == "wait":
            ops.append(FlowOp(kind="wait", loc=stmt.directive.loc,
                              directive=stmt.directive))
        elif kind in ("enter data", "exit data"):
            escaped = set()
            for cl in stmt.directive.data_clauses():
                escaped.update(n for n in cl.var_names if n in arrays)
            ops.append(FlowOp(kind="escape", loc=stmt.directive.loc,
                              directive=stmt.directive,
                              escapes=frozenset(escaped)))
        # cache / declare / routine: no data motion at this level
    else:
        # ExprStmt, Break, Continue and friends
        expr = getattr(stmt, "expr", None)
        acc = _Accesses(arrays)
        acc.expr(expr)
        ops.append(_host_op(stmt.loc, acc))


def _compute_op(directive: Directive, body: Stmt,
                arrays: Set[str]) -> FlowOp:
    private = _private_arrays(directive, arrays)
    acc = _device_accesses(body, arrays, private)
    return FlowOp(
        kind="compute", loc=directive.loc, directive=directive,
        reads=frozenset(acc.reads), writes=frozenset(acc.writes),
        escapes=frozenset(acc.escapes),
    )


def scalar_constants(fn: Function) -> Dict[str, int]:
    """Scalars assigned exactly one integer literal in the whole function.

    Queue tags are almost always ``int tag = 5`` — this tiny constant
    propagation lets the async pass resolve ``async(tag)``/``wait(tag)``
    to concrete queue ids.
    """
    values: Dict[str, List[int]] = {}
    for node in _walk_stmts(fn.body):
        if isinstance(node, DeclStmt):
            for decl in node.decls:
                if not decl.dims and isinstance(decl.init, IntLit):
                    values.setdefault(decl.name, []).append(decl.init.value)
                elif not decl.dims and decl.init is not None:
                    values.setdefault(decl.name, []).append(None)
        elif isinstance(node, Assign) and isinstance(node.target, Ident):
            if isinstance(node.value, IntLit) and not node.op:
                values.setdefault(node.target.name, []).append(node.value.value)
            else:
                values.setdefault(node.target.name, []).append(None)
    return {
        name: vals[0]
        for name, vals in values.items()
        if len(vals) == 1 and vals[0] is not None
    }


# ---------------------------------------------------------------------------
# the dataflow walk
# ---------------------------------------------------------------------------

HOST_ONLY = "host-only"
PRESENT = "present"
STALE_HOST = "stale-host"
STALE_DEVICE = "stale-device"


@dataclass
class _EnvEntry:
    """One array mapped by one region's data clause."""

    name: str
    clause: str
    loc: SourceLocation
    created: bool      # this region allocated the device copy
    dup: bool = False  # conflicting nested mapping (ACC404): exit no-ops
    declare: bool = False  # mapped by a declare directive (scratch idiom)
    device_written: bool = False
    device_read: bool = False


class _FunctionFlow:
    def __init__(self, fn: Function, version_label: str = "1.0"):
        self.fn = fn
        self.arrays = declared_arrays(fn)
        self.states: Dict[str, str] = {a: HOST_ONLY for a in self.arrays}
        self.escaped: Set[str] = set()
        self.virgin: Set[str] = set()  # declare-mapped, no device access yet
        self.env_stack: List[List[_EnvEntry]] = []
        self.diags: List[Diagnostic] = []
        self.reported: Set[Tuple[str, str]] = set()  # (code, array) dedup
        self._seed_declares()

    # ------------------------------------------------------------- helpers

    def _seed_declares(self) -> None:
        for directive in self.fn.declares:
            entries: List[_EnvEntry] = []
            for cl in directive.data_clauses():
                for ref in cl.refs:
                    if ref.name not in self.arrays:
                        continue
                    if cl.name in ESCAPE_CLAUSES:
                        self.escaped.add(ref.name)
                        continue
                    if cl.name in ENTRY_TRANSFER:
                        self.states[ref.name] = PRESENT
                        # the declare transfer is not observable before the
                        # first device access, so host initialisation that
                        # textually follows the declare line still reaches
                        # the device (the 1.0 testsuite relies on this)
                        self.virgin.add(ref.name)
                    else:
                        self.states[ref.name] = STALE_DEVICE
                    entries.append(_EnvEntry(
                        name=ref.name, clause=cl.name, loc=cl.loc,
                        created=True, declare=True,
                    ))
            if entries:
                self.env_stack.append(entries)

    def _tracked(self, name: str) -> bool:
        return name in self.arrays and name not in self.escaped

    def _covering(self, name: str) -> List[_EnvEntry]:
        return [
            e for env in self.env_stack for e in env
            if e.name == name and not e.dup
        ]

    def _has_device_copy(self, name: str) -> bool:
        return bool(self._covering(name))

    def _report(self, code: str, name: str, message: str,
                loc: SourceLocation, severity: Severity,
                hint: str = "") -> None:
        if (code, name) in self.reported:
            return
        self.reported.add((code, name))
        self.diags.append(Diagnostic(
            code, message, severity=severity, loc=loc, hint=hint,
        ))

    def _escape(self, names: Iterable[str]) -> None:
        for name in names:
            if name in self.arrays:
                self.escaped.add(name)

    # -------------------------------------------------------- region entry

    def _enter(self, directive: Directive) -> List[_EnvEntry]:
        entries: List[_EnvEntry] = []
        for cl in directive.data_clauses():
            if cl.name in ("host", "device", "delete"):
                continue  # update/exit-data motion clauses, not mappings
            for ref in cl.refs:
                name = ref.name
                if not self._tracked(name):
                    continue
                if cl.name in ESCAPE_CLAUSES:
                    self._escape([name])
                    continue
                already = self._has_device_copy(name)
                if already and cl.name in STRICT_MAPPING:
                    self._report(
                        "ACC404", name,
                        f"array '{name}' is already present from an "
                        f"enclosing region; nested '{cl.name}' re-maps it",
                        cl.loc, Severity.ERROR,
                        hint=f"use present or present_or_{cl.name} "
                             f"(p{cl.name}) on the inner directive",
                    )
                    entries.append(_EnvEntry(
                        name=name, clause=cl.name, loc=cl.loc,
                        created=False, dup=True,
                    ))
                    continue
                created = not already
                entries.append(_EnvEntry(
                    name=name, clause=cl.name, loc=cl.loc, created=created,
                ))
                if created:
                    if cl.name in ENTRY_TRANSFER:
                        if self.states[name] == STALE_HOST:
                            self._report(
                                "ACC401", name,
                                f"array '{name}' is copied to the device "
                                "after its previous device writes were "
                                "discarded (stale host copy)",
                                cl.loc, Severity.WARNING,
                                hint="copy the data back (copyout / update "
                                     "host) before the earlier region ends",
                            )
                        self.states[name] = PRESENT
                    else:
                        self.states[name] = STALE_DEVICE
                # present / present_or_* on an existing copy: no transfer,
                # outer state stands
        return entries

    # --------------------------------------------------------- region exit

    def _exit(self, entries: List[_EnvEntry]) -> None:
        for e in entries:
            if e.dup or not self._tracked(e.name):
                continue
            explicit_out = e.clause in ("copyout", "present_or_copyout")
            explicit_in = e.clause in ("copyin", "present_or_copyin")
            if e.created:
                if explicit_out and not e.device_written:
                    self._report(
                        "ACC403", e.name,
                        f"'{e.clause}' of array '{e.name}' but the region "
                        "never writes its device copy",
                        e.loc, Severity.WARNING,
                        hint="drop the clause or use copyin/present if the "
                             "data only flows host-to-device",
                    )
                if explicit_in and not e.device_read:
                    self._report(
                        "ACC406", e.name,
                        f"'{e.clause}' of array '{e.name}' but the device "
                        "copy is never read in the region",
                        e.loc, Severity.WARNING,
                        hint="use create if the array is only written on "
                             "the device",
                    )
                if e.clause in EXIT_TRANSFER:
                    self.states[e.name] = HOST_ONLY
                elif e.device_written:
                    # device writes are discarded with the copy
                    self.states[e.name] = STALE_HOST
                else:
                    self.states[e.name] = HOST_ONLY
            # not created: present / present_or_* over an existing copy —
            # no exit transfer, the enclosing region still owns the state

    def _mark(self, name: str, read: bool = False,
              write: bool = False) -> None:
        for e in self._covering(name):
            if read:
                e.device_read = True
            if write:
                e.device_written = True

    # ------------------------------------------------------------ visitors

    def host(self, op: FlowOp) -> None:
        self._escape(op.escapes)
        for name in sorted(op.reads):
            if not self._tracked(name):
                continue
            if self.states[name] == STALE_HOST:
                covering = self._covering(name)
                declare_only = bool(covering) and all(
                    e.declare for e in covering
                )
                if covering and not declare_only:
                    # a live device copy holds newer data and nothing will
                    # ever copy it back before this read: near-certain bug
                    self._report(
                        "ACC401", name,
                        f"host reads array '{name}' but the device copy "
                        "is newer",
                        op.loc, Severity.ERROR,
                        hint="insert update host / copyout before the "
                             "host read",
                    )
                elif declare_only:
                    # the declare scratch idiom keeps a deliberately
                    # divergent host copy; flag softly
                    self._report(
                        "ACC401", name,
                        f"host reads array '{name}' while its declare'd "
                        "device copy holds newer data",
                        op.loc, Severity.WARNING,
                        hint="insert update host if the device values "
                             "were meant to be visible here",
                    )
                else:
                    # the writes were discarded with the copy — the 1.0
                    # spec guarantees this, and tests probe it on purpose
                    self._report(
                        "ACC401", name,
                        f"host reads array '{name}' whose device writes "
                        "were discarded at region exit",
                        op.loc, Severity.WARNING,
                        hint="add copyout (or update host before exit) if "
                             "the device values were meant to survive",
                    )
                self.states[name] = PRESENT if covering else HOST_ONLY
        for name in sorted(op.writes):
            if not self._tracked(name):
                continue
            if name in self.virgin:
                continue  # declare transfer not yet materialised
            if self._has_device_copy(name):
                self.states[name] = STALE_DEVICE
            else:
                self.states[name] = HOST_ONLY

    def compute(self, op: FlowOp) -> None:
        assert op.directive is not None
        entries = self._enter(op.directive)
        self.env_stack.append(entries)
        self._escape(op.escapes)
        clause_names = {e.name for e in entries}
        implicit: List[_EnvEntry] = []
        for name in sorted((op.reads | op.writes) - clause_names):
            if not self._tracked(name):
                continue
            if not self._has_device_copy(name):
                # OpenACC 1.0 implicit rule: arrays default present_or_copy
                if self.states[name] == STALE_HOST:
                    self._report(
                        "ACC401", name,
                        f"array '{name}' is implicitly copied to the "
                        "device after its previous device writes were "
                        "discarded (stale host copy)",
                        op.loc, Severity.WARNING,
                        hint="copy the data back before the earlier "
                             "region ends",
                    )
                entry = _EnvEntry(name=name, clause="present_or_copy",
                                  loc=op.loc, created=True)
                implicit.append(entry)
                self.states[name] = PRESENT
        if implicit:
            self.env_stack[-1] = entries = entries + implicit
        for name in sorted(op.reads):
            if not self._tracked(name):
                continue
            self.virgin.discard(name)
            if self.states[name] == STALE_DEVICE and name not in op.writes:
                # reads of an array the same region writes may read its
                # own values (scratch initialisation) — only a pure read
                # of a stale copy is near-certain
                self._report(
                    "ACC402", name,
                    f"compute region reads array '{name}' but its device "
                    "copy is stale",
                    op.loc, Severity.ERROR,
                    hint=f"insert update device({name}) before the region "
                         "(or copy the data in)",
                )
                self.states[name] = PRESENT
            self._mark(name, read=True)
        for name in sorted(op.writes):
            if not self._tracked(name):
                continue
            self.virgin.discard(name)
            self._mark(name, write=True)
            self.states[name] = STALE_HOST
        self.env_stack.pop()
        self._exit(entries)

    def update(self, op: FlowOp) -> None:
        assert op.directive is not None
        for cl in op.directive.clauses_named("host"):
            for ref in cl.refs:
                name = ref.name
                if not self._tracked(name):
                    continue
                if not self._has_device_copy(name):
                    self._report(
                        "ACC405", name,
                        f"update host of array '{name}' but no device "
                        "copy is present",
                        cl.loc, Severity.WARNING,
                        hint="the update is outside any data region "
                             "holding the array",
                    )
                    continue
                self.virgin.discard(name)
                self._mark(name, read=True)
                self.states[name] = PRESENT
        for cl in op.directive.clauses_named("device"):
            for ref in cl.refs:
                name = ref.name
                if not self._tracked(name):
                    continue
                if not self._has_device_copy(name):
                    self._report(
                        "ACC405", name,
                        f"update device of array '{name}' but no device "
                        "copy is present",
                        cl.loc, Severity.WARNING,
                        hint="the update is outside any data region "
                             "holding the array",
                    )
                    continue
                self.virgin.discard(name)
                self._mark(name, write=True)
                self.states[name] = PRESENT

    # ---------------------------------------------------------------- run

    def run(self) -> List[Diagnostic]:
        pending_envs: List[List[_EnvEntry]] = []
        for op in flow_events(self.fn, self.arrays):
            if op.kind == "host":
                self.host(op)
            elif op.kind == "compute":
                self.compute(op)
            elif op.kind == "data_enter":
                assert op.directive is not None
                entries = self._enter(op.directive)
                self.env_stack.append(entries)
                pending_envs.append(entries)
            elif op.kind == "data_exit":
                if pending_envs:
                    entries = pending_envs.pop()
                    if self.env_stack and self.env_stack[-1] is entries:
                        self.env_stack.pop()
                    self._exit(entries)
            elif op.kind == "update":
                self.update(op)
            elif op.kind == "escape":
                self._escape(op.escapes)
            # wait: timing only — no data-state effect in this pass
        return self.diags


def check_program_dataenv(program: Program) -> List[Diagnostic]:
    """Run the data-environment flow pass over every function."""
    diags: List[Diagnostic] = []
    for fn in program.functions:
        diags.extend(_FunctionFlow(fn).run())
    return sort_diagnostics(diags)
