"""OpenACC construct execution (the lowering's runtime half).

This module gives directives their meaning on the simulated device:

* **parallel** — the region body executes redundantly, once per gang
  (sequentially, gang 0..G-1, so removed work-sharing directives produce
  deterministic wrong values — the cross-test mechanism of Section III);
* **kernels** — the body executes once; each ``loop`` (or auto-parallelised
  bare loop, after a simple dependence test) is distributed over gangs;
* **loop** — iterations are distributed cyclically over the named
  parallelism levels (gang/worker/vector).  Cyclic distribution makes the
  execution order differ from program order, so a loop with real carried
  dependences that is (wrongly) declared ``independent`` yields a wrong
  result, as the paper's independent test requires (Section IV-C1);
* **data / host_data / update / wait / cache / declare** — data-environment
  bookkeeping on the device present table;
* **async** — region execution (including its data movement) is enqueued
  and only runs at ``wait`` (Fig. 10 semantics).

Vendor bugs enter through :class:`~repro.compiler.behavior.CompilerBehavior`
flags consulted at the relevant decision points; this module never knows
which vendor it is simulating.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout, PresentError
from repro.accsim.memory import Mapping
from repro.accsim.values import ArrayValue, Cell, DevicePointer, coerce_scalar
# loop bounds convert as the lowered loops do (a non-number raises
# AccRuntimeError); clause values through this module's _as_int
from repro.compiler.interp import Env, _as_int as _loop_int
from repro.ir.acc import DataRef, Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Call,
    DeclStmt,
    Expr,
    For,
    Function,
    Ident,
    If,
    Index,
    IntLit,
    Stmt,
    Unary,
    While,
    walk,
)
from repro.spec.devices import ACC_DEVICE_HOST, DeviceType
from repro.spec.reductions import (
    canonical_reduction,
    reduction_combine,
    reduction_identity,
)

_DATA_ACTION_CLAUSES = (
    "copy", "copyin", "copyout", "create", "present",
    "present_or_copy", "present_or_copyin", "present_or_copyout",
    "present_or_create",
)


class _IterationSpace:
    """Lazy cartesian iteration space of one or more (collapsed) loops.

    Replaces ``list(itertools.product(*spaces))``: a 2e9-trip loop must cost
    O(1) memory so the interpreter's step budget — not the allocator — is
    what stops it.  Yields index tuples in exactly ``itertools.product``
    order (last loop varies fastest), and supports the cyclic ``[a::b]``
    sharing the gang/worker/vector schedulers use, by slicing a lazy
    ``range`` of flat indices and decoding on iteration.
    """

    __slots__ = ("_spaces", "_indices")

    def __init__(self, spaces: Sequence[Sequence[int]], indices=None):
        self._spaces = tuple(spaces)
        if indices is None:
            total = 1
            for space in self._spaces:
                total *= len(space)
            indices = range(total)
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _IterationSpace(self._spaces, self._indices[item])
        return self._decode(self._indices[item])

    def __iter__(self):
        spaces = self._spaces
        if len(spaces) == 1:
            space = spaces[0]
            for ix in self._indices:
                yield (space[ix],)
            return
        for ix in self._indices:
            yield self._decode(ix)

    def _decode(self, ix: int) -> Tuple[int, ...]:
        out = []
        for space in reversed(self._spaces):
            ix, r = divmod(ix, len(space))
            out.append(space[r])
        out.reverse()
        return tuple(out)


@dataclass
class _GangLoopReduction:
    op: str
    original: object
    acc: object


class ComputePlan:
    """Static facts of one compute construct (``parallel``/``kernels`` or
    a combined ``parallel loop``/``kernels loop``), computed once.

    Everything here is a pure function of the AST: the combined-construct
    split (with its synthetic ``AccLoop``, so the loop part is one stable
    node), the data-attribute clause lists, the Cray copy-only test and the
    ordered implicit-data candidates.  Which candidates are mapped, and how,
    still depends on the region's environment and is decided at entry.
    """

    __slots__ = ("directive", "body", "mode", "private_names",
                 "firstprivate_names", "reductions", "copy_only",
                 "implicit_names", "device_code")

    def __init__(self, stmt: Stmt):
        d = stmt.directive
        if isinstance(stmt, AccLoop):
            d, loop_d = _split_combined(d)
            body: Stmt = AccLoop(directive=loop_d, loop=stmt.loop, loc=stmt.loc)
        else:
            body = stmt.body
        self.directive = d
        self.body = body
        self.mode = d.kind
        self.private_names = _clause_names(d, "private")
        self.firstprivate_names = _clause_names(d, "firstprivate")
        self.reductions = _construct_reductions(d)
        self.copy_only = _is_copy_only_region(body)
        self.implicit_names = _implicit_candidates(body)
        #: the body lowered to a device slot frame (set lazily by
        #: repro.compiler.closures.LoweredProgram.region_code and kept as
        #: long as this plan, by every lowering sharing it)
        self.device_code = None


class LoopPlan:
    """Static facts of one ``loop`` directive: its explicit parallelism
    levels, privatisation/reduction lists, the kernels dependence test and
    the tightly nested loop chain ``collapse`` draws from."""

    __slots__ = ("levels", "seq", "independent", "dependent", "collapse",
                 "private_names", "reductions", "chain")

    def __init__(self, stmt: AccLoop):
        d = stmt.directive
        self.levels = [l for l in ("gang", "worker", "vector") if d.has_clause(l)]
        self.seq = d.has_clause("seq")
        self.independent = d.has_clause("independent")
        self.dependent = _has_loop_dependence(stmt.loop)
        self.collapse = d.clause("collapse")
        self.private_names = _clause_names(d, "private")
        self.reductions = _loop_reductions(d)
        chain = [stmt.loop]
        inner = _tightly_nested(stmt.loop)
        while inner is not None:
            chain.append(inner)
            inner = _tightly_nested(inner)
        self.chain = chain


def plan_for(plans: Dict[int, tuple], stmt: Stmt, kind):
    """The static ``kind`` plan of ``stmt`` in ``plans``, built on first
    use.  The node is pinned in the entry so a collected node can never
    recycle its ``id()``; a benign race under threads at worst builds a
    plan twice."""
    entry = plans.get(id(stmt))
    if entry is None or entry[0] is not stmt:
        entry = (stmt, kind(stmt))
        plans[id(stmt)] = entry
    return entry[1]


@dataclass
class RegionState:
    """State of the currently executing compute region."""

    mode: str  # 'parallel' | 'kernels'
    device: object
    host_env: object
    region_env: object
    num_gangs: int
    num_workers: int
    vector_length: int
    gang_id: Optional[int] = None
    worker_id: Optional[int] = None
    lane_id: Optional[int] = None
    mappings: List[Mapping] = field(default_factory=list)
    scalar_syncs: List[Tuple[Mapping, Cell]] = field(default_factory=list)
    # (loop node id, var) -> accumulated gang-level loop reduction
    gang_loop_reductions: Dict[Tuple[int, str], _GangLoopReduction] = field(
        default_factory=dict
    )


class AccExecutor:
    """Executes OpenACC statements for one :class:`Interpreter`."""

    def __init__(self, interp):
        # the interpreter owns its executor, so the link back is weak: a
        # strong one would make a cycle of every run's interpreter,
        # machine and memory, left to the cyclic collector to free
        self._interp = weakref.ref(interp)
        self.machine = interp.machine
        self.behavior = interp.behavior
        self.region: Optional[RegionState] = None
        #: >0 while executing a compute region body on the host (if(false))
        self._degraded = 0
        #: async tags wedged by the PGI async bug
        self._wedged_tags: Set[object] = set()
        self._wedged_all = False
        #: per-function processed declare mappings
        self._declare_stack: List[Tuple[Function, List[Mapping]]] = []
        #: node id -> (node, ComputePlan | LoopPlan); the interpreter
        #: hands over the dict (its lowering's, which is the parse's:
        #: plans live as long as the parse does)
        self._plans: Dict[int, tuple] = interp.plans

    @property
    def interp(self):
        """The interpreter this executor runs for."""
        return self._interp()

    def _plan(self, stmt: Stmt, kind):
        return plan_for(self._plans, stmt, kind)

    # ----------------------------------------------------------- runtime hooks

    def _skip_scalar_transfer(self) -> bool:
        """Cray's scalar-copy bug, asked by device memory only for a new
        scalar mapping whose action transfers."""
        return self.behavior.skip_scalar_data_transfers

    def hook_async_test(self, tag, result: int) -> int:
        if self._wedged_all or (tag is not None and tag in self._wedged_tags):
            return self.behavior.wedged_async_test_value
        return result

    def on_device_answer(self, requested: DeviceType) -> int:
        if self.region is not None:
            return 1 if self.region.device.matches(requested) else 0
        return 1 if ACC_DEVICE_HOST.matches(requested) else 0

    # ------------------------------------------------------ function declares

    def enter_function(self, fn: Function, env) -> None:
        processed: List[Mapping] = []
        self._declare_stack.append((fn, processed))
        # declares that reference globals can be processed immediately
        self._process_pending_declares(env)

    def exit_function(self, fn: Function) -> None:
        _fn, processed = self._declare_stack.pop()
        device = self.machine.current_device()
        for mapping in reversed(processed):
            device.memory.exit(mapping)

    def _process_pending_declares(self, env) -> None:
        """Enter declare-directive data that has become resolvable.

        Only runs in host context: inside a compute region names resolve to
        device-side cells and must not create mappings of device data.
        """
        if self.region is not None or self._degraded:
            return
        if not self._declare_stack:
            return
        fn, processed = self._declare_stack[-1]
        if not fn.declares:
            return
        device = self.machine.current_device()
        already = {id(m.cell) for m in processed}
        for directive in fn.declares:
            if directive.kind != "declare":
                continue
            for clause in directive.clauses:
                action = clause.name
                if action == "device_resident":
                    action = "create"
                if action == "deviceptr":
                    continue
                if action not in _DATA_ACTION_CLAUSES:
                    continue
                for ref in clause.refs:
                    cell = env.lookup(ref.name)
                    if cell is None or id(cell) in already:
                        continue
                    start, length = self._section_bounds(ref, cell, env)
                    mapping = device.memory.enter(
                        action, cell, start, length,
                        skip_scalar_transfer=self._skip_scalar_transfer,
                    )
                    processed.append(mapping)
                    already.add(id(cell))

    # ------------------------------------------------------------- standalone

    def exec_standalone(self, stmt: AccStandalone, env) -> None:
        self._process_pending_declares(env)
        d = stmt.directive
        if d.kind == "update":
            self._exec_update(d, env)
        elif d.kind == "wait":
            self._exec_wait(d, env)
        elif d.kind == "cache":
            pass  # a performance hint; semantics unchanged
        elif d.kind == "enter data":
            self._exec_enter_data(d, env)
        elif d.kind == "exit data":
            self._exec_exit_data(d, env)
        else:  # pragma: no cover - validated at compile time
            raise AccRuntimeError(f"unexpected standalone directive {d.kind}")

    def _exec_update(self, d: Directive, env) -> None:
        if self.behavior.ignore_update:
            return
        if_clause = d.clause("if")
        if if_clause is not None and not self.behavior.ignore_if_clause:
            if not _truthy(self._eval(if_clause.expr, env)):
                return
        device = self.machine.current_device()

        def do_update() -> None:
            for clause in d.clauses:
                if clause.name not in ("host", "device"):
                    continue
                for ref in clause.refs:
                    cell = env.lookup(ref.name)
                    if cell is None:
                        raise AccRuntimeError(
                            f"update of undefined variable {ref.name!r}"
                        )
                    start, length = self._section_bounds(ref, cell, env)
                    if clause.name == "host":
                        device.memory.update_host(cell, start, length)
                    else:
                        device.memory.update_device(cell, start, length)

        async_clause = d.clause("async")
        if async_clause is not None and not self.behavior.ignore_async:
            tag = (
                _as_int(self._eval(async_clause.expr, env))
                if async_clause.expr is not None
                else None
            )
            # the update runs at a later wait: capture the scope as it is
            # now (a live slot frame may have moved on by then)
            env = env.child()
            device.queues.enqueue(tag, do_update, "update")
        else:
            do_update()

    def _exec_wait(self, d: Directive, env) -> None:
        device = self.machine.current_device()
        wait_clause = d.clause("wait")
        if wait_clause is not None and wait_clause.expr is not None:
            device.queues.wait(_as_int(self._eval(wait_clause.expr, env)))
        else:
            device.queues.wait_all()

    def _exec_enter_data(self, d: Directive, env) -> None:
        if_clause = d.clause("if")
        if if_clause is not None and not _truthy(self._eval(if_clause.expr, env)):
            return
        device = self.machine.current_device()
        for clause in d.clauses:
            if clause.name not in ("copyin", "create", "present_or_copyin", "present_or_create"):
                continue
            for ref in clause.refs:
                cell = env.lookup(ref.name)
                if cell is None:
                    raise AccRuntimeError(f"enter data of undefined {ref.name!r}")
                start, length = self._section_bounds(ref, cell, env)
                device.memory.enter(clause.name, cell, start, length)

    def _exec_exit_data(self, d: Directive, env) -> None:
        if_clause = d.clause("if")
        if if_clause is not None and not _truthy(self._eval(if_clause.expr, env)):
            return
        device = self.machine.current_device()
        for clause in d.clauses:
            if clause.name not in ("copyout", "delete"):
                continue
            for ref in clause.refs:
                cell = env.lookup(ref.name)
                if cell is None:
                    raise AccRuntimeError(f"exit data of undefined {ref.name!r}")
                if clause.name == "copyout":
                    device.memory.force_copyout(cell)
                else:
                    device.memory.delete(cell)

    # ------------------------------------------------------------- constructs

    def exec_construct(self, stmt: AccConstruct, env) -> None:
        self._process_pending_declares(env)
        kind = stmt.directive.kind
        if self._degraded:
            # if(false) host execution: constructs degrade to plain blocks
            self._run_scoped(stmt.body, env, {})
            return
        if kind == "data":
            self._exec_data(stmt, env)
        elif kind == "host_data":
            self._exec_host_data(stmt, env)
        elif kind in ("parallel", "kernels"):
            self._exec_compute(self._plan(stmt, ComputePlan), env)
        else:  # pragma: no cover - validated at compile time
            raise AccRuntimeError(f"unexpected construct {kind}")

    def _exec_data(self, stmt: AccConstruct, env) -> None:
        d = stmt.directive
        if_clause = d.clause("if")
        active = True
        if if_clause is not None and not self.behavior.ignore_if_clause:
            active = _truthy(self._eval(if_clause.expr, env))
        device = self.machine.current_device()
        mappings: List[Mapping] = []
        deviceptr_binds: Dict[str, Cell] = {}
        if active:
            mappings, deviceptr_binds = self._enter_data_clauses(d, env, device)
        try:
            self._run_scoped(stmt.body, env, deviceptr_binds)
        finally:
            for mapping in reversed(mappings):
                device.memory.exit(mapping)

    def _exec_host_data(self, stmt: AccConstruct, env) -> None:
        d = stmt.directive
        device = self.machine.current_device()
        defs: Dict[str, Cell] = {}
        use = d.clause("use_device")
        if use is not None:
            for ref in use.refs:
                cell = env.lookup(ref.name)
                if cell is None:
                    raise AccRuntimeError(f"use_device of undefined {ref.name!r}")
                mapping = device.memory.lookup(cell)
                if mapping is None:
                    raise PresentError(
                        f"use_device of {ref.name!r} which is not present on the device"
                    )
                defs[ref.name] = Cell(
                    mapping.device_data, type=cell.type, name=ref.name
                )
        self._run_scoped(stmt.body, env, defs)

    # ------------------------------------------------------ lowered code
    # The lowering hands every OpenACC statement a FrameEnv carrying what
    # the executor may evaluate or run there (see repro.compiler.closures);
    # these seams are the only way the executor reaches that code.

    def _eval(self, expr: Expr, env):
        """The value of a clause expression or loop bound of ``env``'s
        site."""
        return env.eval(self.interp, expr)

    def _exec_for(self, loop: For, env) -> None:
        """Run ``loop`` (the loop of ``env``'s site) sequentially."""
        env.run_scoped(self.interp, {})

    def _run_scoped(self, body: Stmt, env, defs: Dict[str, Cell]) -> None:
        """Run a construct body in a child scope of ``env`` holding
        ``defs``."""
        env.run_scoped(self.interp, defs)

    # --------------------------------------------------------- compute regions

    def exec_acc_loop(self, stmt: AccLoop, env) -> None:
        """Dispatch for loop-family directives."""
        self._process_pending_declares(env)
        kind = stmt.directive.kind
        if kind in ("parallel loop", "kernels loop"):
            if self._degraded:
                self._exec_for(stmt.loop, env)
                return
            self._exec_compute(self._plan(stmt, ComputePlan), env)
            return
        # plain `loop`
        if self.region is None or self._degraded:
            # orphan loop (or if(false) region): sequential host execution
            self._exec_for(stmt.loop, env)
            return
        self._exec_device_loop(stmt, env)

    def _exec_compute(self, plan: ComputePlan, env) -> None:
        behavior = self.behavior
        d, body = plan.directive, plan.body
        if plan.copy_only and behavior.eliminate_copy_only_regions:
            return  # Cray: "deletes the full compute region" (Fig. 11)

        if_clause = d.clause("if")
        if if_clause is not None and not behavior.ignore_if_clause:
            if not _truthy(self._eval(if_clause.expr, env)):
                # region executes on the host, no data movement
                self._degraded += 1
                try:
                    if isinstance(body, AccLoop):
                        # a combined construct: its loop part runs as a
                        # statement (one step) of a degraded region
                        interp = self.interp
                        interp.steps += 1
                        if interp.steps > interp.limits.max_steps:
                            raise ExecutionTimeout(
                                f"step budget {interp.limits.max_steps} "
                                f"exceeded at {body.loc}"
                            )
                        self._exec_for(body.loop, env)
                    else:
                        self._run_scoped(body, env, {})
                finally:
                    self._degraded -= 1
                return

        device = self.machine.current_device()

        # clause expressions evaluate on the host at region entry; the
        # profile's defaults are read only for the clauses a region omits
        profile = device.profile
        num_gangs = self._clause_int(d, "num_gangs", env, None)
        if num_gangs is None:
            num_gangs = profile.default_num_gangs
        num_workers = self._clause_int(d, "num_workers", env, None)
        if profile.worker_ignored:
            num_workers = 1
        elif num_workers is None:
            num_workers = profile.default_num_workers
        vector_length = self._clause_int(d, "vector_length", env, None)
        if vector_length is None:
            vector_length = profile.default_vector_length

        async_clause = d.clause("async")
        run_async = async_clause is not None and not behavior.ignore_async
        tag: Optional[int] = None
        if async_clause is not None and async_clause.expr is not None:
            tag = _as_int(self._eval(async_clause.expr, env))

        wedged = (
            async_clause is not None
            and any(c.name in _DATA_ACTION_CLAUSES for c in d.clauses)
            and behavior.async_wedged_by_compute_data_clauses
        )
        if wedged:
            # PGI 13.x: the async activity is blocked -> synchronous execution
            # and the async-test routines misbehave for this tag
            run_async = False
            if tag is None:
                self._wedged_all = True
            else:
                self._wedged_tags.add(tag)

        def run_region() -> None:
            self._run_region_body(plan, env, device,
                                  num_gangs, num_workers, vector_length)

        if run_async:
            # the region runs at a later wait: capture the scope as it is
            # now (a live slot frame may have moved on by then)
            env = env.child()
            device.queues.enqueue(tag, run_region, f"{plan.mode} region")
        else:
            run_region()

    def _run_region_body(
        self, plan: ComputePlan, env, device,
        num_gangs: int, num_workers: int, vector_length: int,
    ) -> None:
        behavior = self.behavior
        d, mode = plan.directive, plan.mode
        device.kernels_launched += 1

        mappings, deviceptr_binds = self._enter_data_clauses(d, env, device)

        region_env = Env()
        scalar_syncs: List[Tuple[Mapping, Cell]] = []
        for mapping in mappings:
            cell = mapping.cell
            if mapping.is_scalar:
                dev_cell = Cell(mapping.device_data, type=cell.type, name=cell.name)
                region_env.define(cell.name, dev_cell)
                scalar_syncs.append((mapping, dev_cell))
            else:
                region_env.define(
                    cell.name, Cell(mapping.device_data, type=cell.type, name=cell.name)
                )
        for name, cell in deviceptr_binds.items():
            region_env.define(name, cell)

        # construct-level privatisation clauses
        private_names = plan.private_names
        firstprivate_names = plan.firstprivate_names
        reductions = plan.reductions
        explicit = (
            set(region_env.vars)
            | set(private_names)
            | set(firstprivate_names)
            | {name for _op, name in reductions}
        )

        implicit_scalars, implicit_arrays = _implicit_data(plan, env, explicit)
        for cell in implicit_arrays:
            action = "present_or_copy"
            mapping = device.memory.enter(action, cell)
            mappings.append(mapping)
            region_env.define(
                cell.name, Cell(mapping.device_data, type=cell.type, name=cell.name)
            )
        kernels_scalar_cells: Dict[str, object] = {}
        fp_snapshot: Dict[str, object] = {}
        for cell in implicit_scalars:
            if device.memory.is_present(cell):
                mapping = device.memory.lookup(cell)
                mapping.refcount += 1
                mappings.append(mapping)
                dev_cell = Cell(mapping.device_data, type=cell.type, name=cell.name)
                region_env.define(cell.name, dev_cell)
                scalar_syncs.append((mapping, dev_cell))
            elif mode == "kernels":
                # kernels: implicit scalars get copy semantics
                mapping = device.memory.enter(
                    "present_or_copy", cell,
                    skip_scalar_transfer=self._skip_scalar_transfer,
                )
                mappings.append(mapping)
                dev_cell = Cell(mapping.device_data, type=cell.type, name=cell.name)
                region_env.define(cell.name, dev_cell)
                scalar_syncs.append((mapping, dev_cell))
            else:
                # parallel: implicit firstprivate (snapshot per gang)
                fp_snapshot[cell.name] = (cell.value, cell.type)

        # explicit firstprivate snapshots (taken at region entry)
        for name in firstprivate_names:
            cell = env.lookup(name)
            if cell is None:
                raise AccRuntimeError(f"firstprivate of undefined {name!r}")
            fp_snapshot[name] = (cell.value, cell.type)

        # reduction originals + targets
        red_state: Dict[str, Tuple[str, object, List[object]]] = {}
        for op, name in reductions:
            cell = region_env.lookup(name) or env.lookup(name)
            if cell is None:
                raise AccRuntimeError(f"reduction over undefined {name!r}")
            red_state[name] = (op, cell.value, [])

        region = RegionState(
            mode=mode,
            device=device,
            host_env=env,
            region_env=region_env,
            num_gangs=num_gangs,
            num_workers=num_workers,
            vector_length=vector_length,
            mappings=mappings,
            scalar_syncs=scalar_syncs,
        )
        run_scope = self._region_scope_runner(plan, region_env)

        outer_region = self.region
        self.region = region
        try:
            if mode == "parallel":
                for g in range(num_gangs):
                    defs: Dict[str, Cell] = {}
                    if private_names and not behavior.ignore_private_clause:
                        for name in private_names:
                            defs[name] = _fresh_private(env, name)
                    for name, (value, ctype) in fp_snapshot.items():
                        if name in firstprivate_names and behavior.firstprivate_uninitialized:
                            defs[name] = _fresh_private(env, name)
                        else:
                            defs[name] = Cell(_copy_value(value), type=ctype, name=name)
                    for name, (op, _orig, partials) in red_state.items():
                        cell = env.lookup(name) or region_env.lookup(name)
                        ident = reduction_identity(op, _type_base(cell))
                        defs[name] = Cell(ident, type=cell.type, name=name)
                    region.gang_id = g
                    scope = run_scope(defs)
                    for name in red_state:
                        red_state[name][2].append(scope.lookup(name).value)
            else:
                region.gang_id = None
                run_scope({
                    name: Cell(_copy_value(value), type=ctype, name=name)
                    for name, (value, ctype) in fp_snapshot.items()
                })
        finally:
            self.region = outer_region

        # construct-level reduction combine (skipped by broken_reductions)
        for name, (op, original, partials) in red_state.items():
            if canonical_reduction(op) in behavior.broken_reductions:
                continue
            value = original
            for partial in partials:
                value = reduction_combine(op, value, partial)
            target = env.lookup(name)
            if target is not None:
                target.value = coerce_scalar(_type_base(target), value)
            dev_target = region_env.lookup(name)
            if dev_target is not None and dev_target is not target:
                dev_target.value = coerce_scalar(_type_base(dev_target), value)

        # gang-level loop reductions accumulated across gangs
        for (key, name), state in region.gang_loop_reductions.items():
            if canonical_reduction(state.op) in behavior.broken_reductions:
                continue
            final = reduction_combine(state.op, state.original, state.acc)
            dev_target = region_env.lookup(name)
            if dev_target is not None:
                dev_target.value = coerce_scalar(_type_base(dev_target), final)
            else:
                target = env.lookup(name)
                if target is not None:
                    target.value = coerce_scalar(_type_base(target), final)

        # push scalar device cells back into their mappings, then exit
        for mapping, dev_cell in scalar_syncs:
            mapping.device_data = dev_cell.value
        for mapping in reversed(mappings):
            device.memory.exit(mapping)

    # --------------------------------------------------------- loop execution

    def _exec_device_loop(self, stmt: AccLoop, env) -> None:
        region = self.region
        behavior = self.behavior
        loop = stmt.loop

        if behavior.ignore_loop_directive:
            self._exec_for(loop, env)
            return

        plan = self._plan(stmt, LoopPlan)
        levels = self._levels(plan)
        levels = [l for l in levels if l not in behavior.ignored_loop_levels]

        loops, tuples = self._iteration_space(plan, env)
        private_names = plan.private_names
        if private_names and behavior.ignore_private_clause:
            private_names = []
        reductions = plan.reductions

        gang_level = "gang" in levels
        inner_levels = [l for l in levels if l != "gang"]

        if gang_level and region.mode == "parallel":
            # this gang executes only its cyclic share; reduction partials
            # accumulate region-wide and finalise at region end
            share = tuples[region.gang_id :: region.num_gangs]
            self._run_lanes(
                stmt, loops, share, inner_levels, env, private_names, reductions,
                gang_scope=True,
            )
        elif gang_level:
            # kernels mode: iterate gangs here
            for g in range(region.num_gangs):
                region.gang_id = g
                share = tuples[g :: region.num_gangs]
                self._run_lanes(
                    stmt, loops, share, inner_levels, env, private_names, reductions,
                    gang_scope=True,
                )
            region.gang_id = None
        else:
            self._run_lanes(
                stmt, loops, tuples, inner_levels, env, private_names, reductions,
                gang_scope=False,
            )

    def _run_lanes(
        self,
        stmt: AccLoop,
        loops: List[For],
        tuples: List[Tuple[int, ...]],
        levels: List[str],
        env,
        private_names: List[str],
        reductions: List[Tuple[str, str]],
        gang_scope: bool,
    ) -> None:
        """Execute `tuples` across worker/vector lanes, then fold reductions."""
        region = self.region
        behavior = self.behavior

        # originals for reduction targets, read before any lane runs
        originals: Dict[str, object] = {}
        targets: Dict[str, Cell] = {}
        for op, name in reductions:
            cell = env.lookup(name)
            if cell is None:
                raise AccRuntimeError(f"reduction over undefined {name!r}")
            targets[name] = cell
            originals[name] = cell.value

        accum: Dict[str, object] = {
            name: reduction_identity(op, _type_base(targets[name]))
            for op, name in reductions
        }

        run_tuples = self._lane_runner(env, loops)

        def run_lane(lane_tuples: Sequence[Tuple[int, ...]]) -> None:
            defs: Dict[str, Cell] = {}
            for name in private_names:
                defs[name] = _fresh_private(env, name)
            red_cells: Dict[str, Cell] = {}
            for op, name in reductions:
                ident = reduction_identity(op, _type_base(targets[name]))
                cell = Cell(ident, type=targets[name].type, name=name)
                defs[name] = cell
                red_cells[name] = cell
            var_cells = []
            for l in loops:
                cell = Cell(0, name=l.var)
                defs[l.var] = cell
                var_cells.append(cell)
            run_tuples(defs, var_cells, lane_tuples)
            for op, name in reductions:
                accum[name] = reduction_combine(op, accum[name], red_cells[name].value)

        if "worker" in levels:
            W = max(1, region.num_workers)
            V = region.vector_length if "vector" in levels else 1
            for w in range(W):
                worker_share = tuples[w::W]
                if "vector" in levels:
                    for v in range(max(1, V)):
                        region.worker_id, region.lane_id = w, v
                        run_lane(worker_share[v::V])
                else:
                    region.worker_id = w
                    run_lane(worker_share)
            region.worker_id = region.lane_id = None
        elif "vector" in levels:
            V = max(1, region.vector_length)
            for v in range(V):
                region.lane_id = v
                run_lane(tuples[v::V])
            region.lane_id = None
        else:
            run_lane(tuples)

        # fold reductions into their targets
        for op, name in reductions:
            if canonical_reduction(op) in behavior.broken_reductions:
                continue
            if gang_scope and region.mode == "parallel":
                key = (id(stmt), name)
                state = region.gang_loop_reductions.get(key)
                if state is None:
                    host_cell = region.host_env.lookup(name)
                    original = host_cell.value if host_cell is not None else originals[name]
                    state = _GangLoopReduction(
                        op=op, original=original,
                        acc=reduction_identity(op, _type_base(targets[name])),
                    )
                    region.gang_loop_reductions[key] = state
                state.acc = reduction_combine(op, state.acc, accum[name])
            else:
                final = reduction_combine(op, originals[name], accum[name])
                targets[name].value = coerce_scalar(_type_base(targets[name]), final)

    # ------------------------------------------------------ lowered bodies

    def _region_scope_runner(self, plan: ComputePlan, region_env):
        """``run(defs)``: run the region body in a child scope of
        ``region_env`` holding a gang's (or the kernel's) private
        bindings ``defs`` — a copy of the region's device slot frame —
        and return that scope, for reading reduction partials."""
        return self.interp.lowered.region_code(plan).scope_runner(
            self.interp, region_env.vars)

    def _lane_runner(self, env, loops: List[For]):
        """``run(defs, var_cells, tuples)``: run one lane — the body of the
        innermost of ``loops`` once per iteration tuple, with the loop
        variables' ``var_cells`` set to it — in a scope holding the
        lane's bindings ``defs``.  That is the loop site's lane body at
        this collapse depth, lowered over the site's slot frame."""
        return partial(env.lane(len(loops)).run, self.interp, env.slots)

    # --------------------------------------------------------------- helpers

    def _levels(self, plan: LoopPlan) -> List[str]:
        """Parallelism levels a loop directive maps to."""
        if plan.levels:
            return plan.levels
        if plan.seq:
            return []
        region = self.region
        if region is not None and region.mode == "kernels":
            if plan.independent:
                return ["gang"]
            # auto or bare loop in kernels: compiler dependence analysis
            return [] if plan.dependent else ["gang"]
        # bare loop in a parallel region work-shares over gangs
        return ["gang"]

    def _iteration_space(
        self, plan: LoopPlan, env
    ) -> Tuple[List[For], "_IterationSpace"]:
        """Apply collapse and build the (lazy) iteration-tuple space."""
        collapse = 1
        clause = plan.collapse
        if clause is not None and not self.behavior.ignore_collapse:
            collapse = _as_int(self._eval(clause.expr, env))
        if collapse > len(plan.chain):
            raise AccRuntimeError(
                f"collapse({collapse}) requires tightly nested loops at "
                f"{plan.chain[0].loc}"
            )
        loops = plan.chain[:max(collapse, 1)]
        spaces = [self._iteration_values(l, env) for l in loops]
        return loops, _IterationSpace(spaces)

    def _iteration_values(self, loop: For, env) -> range:
        """The iteration-variable values of a canonical loop, its bounds
        evaluated at ``env``'s site.

        Returned as a lazy ``range`` — a huge trip count must cost O(1)
        memory here so the step budget (not the allocator) is what stops a
        runaway loop.
        """
        start = _loop_int(self._eval(loop.start, env))
        bound = _loop_int(self._eval(loop.bound, env))
        step = _loop_int(self._eval(loop.step, env))
        if step == 0:
            raise AccRuntimeError(f"zero loop step at {loop.loc}")
        if step > 0:
            stop = bound + 1 if loop.inclusive else bound
        else:
            stop = bound - 1 if loop.inclusive else bound
        return range(start, stop, step)

    def _clause_int(self, d: Directive, name: str, env, default):
        clause = d.clause(name)
        if clause is None or clause.expr is None:
            return default
        return _as_int(self._eval(clause.expr, env))

    def _section_bounds(self, ref: DataRef, cell: Cell, env):
        """Evaluate a data-clause section to (start, length) or (None, None)."""
        if not ref.sections:
            return None, None
        section = ref.sections[0]
        value = cell.value
        start = None
        if section.start is not None:
            start = _as_int(self._eval(section.start, env))
        elif isinstance(value, ArrayValue):
            start = value.lowers[0]
        length = None
        if section.length is not None:
            length = _as_int(self._eval(section.length, env))
        elif isinstance(value, ArrayValue):
            length = value.length - (start - value.lowers[0])
        return start, length

    def _enter_data_clauses(
        self, d: Directive, env, device
    ) -> Tuple[List[Mapping], Dict[str, Cell]]:
        """Process the explicit data clauses of a directive."""
        behavior = self.behavior
        mappings: List[Mapping] = []
        deviceptr_binds: Dict[str, Cell] = {}
        for clause in d.clauses:
            if clause.name == "deviceptr":
                for ref in clause.refs:
                    cell = env.lookup(ref.name)
                    if cell is None:
                        raise AccRuntimeError(f"deviceptr of undefined {ref.name!r}")
                    value = cell.value
                    if isinstance(value, DevicePointer):
                        elem = cell.type.base if cell.type is not None else "int"
                        value = value.as_array(elem)
                    if not isinstance(value, ArrayValue):
                        raise AccRuntimeError(
                            f"deviceptr variable {ref.name!r} does not hold a device pointer"
                        )
                    deviceptr_binds[ref.name] = Cell(value, type=cell.type, name=ref.name)
                continue
            if clause.name not in _DATA_ACTION_CLAUSES:
                continue
            action = clause.name
            if action in ("copyin", "present_or_copyin") and behavior.copyin_as_create:
                action = "create"
            elif action in ("copyout", "present_or_copyout") and behavior.copyout_not_copied:
                action = "create"
            for ref in clause.refs:
                cell = env.lookup(ref.name)
                if cell is None:
                    raise AccRuntimeError(
                        f"data clause names undefined variable {ref.name!r}"
                    )
                start, length = self._section_bounds(ref, cell, env)
                mapping = device.memory.enter(
                    action, cell, start, length,
                    skip_scalar_transfer=self._skip_scalar_transfer,
                )
                mappings.append(mapping)
        return mappings, deviceptr_binds


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


def _implicit_candidates(body: Stmt) -> List[str]:
    """Names the body references, in first-use order, that may need an
    implicit data attribute: every name used, less the names declared
    inside the region (those shadow any outer binding)."""
    declared_inside = {
        decl.name
        for node in walk(body)
        if isinstance(node, DeclStmt)
        for decl in node.decls
    }
    names: Dict[str, None] = {}
    for node in walk(body):
        if isinstance(node, (Ident, DataRef)):
            name = node.name
        elif isinstance(node, For):
            name = node.var
        else:
            continue
        if name not in declared_inside:
            names.setdefault(name)
    return list(names)


def _implicit_data(
    plan: ComputePlan, env, explicit: Set[str]
) -> Tuple[List[Cell], List[Cell]]:
    """Determine implicitly mapped cells (1.0 default rules).  Loop
    induction variables become lane-private at execution time but must
    still be *visible*; they are scalars like any other."""
    scalars: List[Cell] = []
    arrays: List[Cell] = []
    for name in plan.implicit_names:
        if name in explicit:
            continue
        cell = env.lookup(name)
        if cell is None:
            continue
        if isinstance(cell.value, ArrayValue):
            arrays.append(cell)
        else:
            # scalars, and unmapped device pointers (which bind directly)
            scalars.append(cell)
    return scalars, arrays


def _truthy(value) -> bool:
    if isinstance(value, (int, float)):
        return value != 0
    return value is not None


def _as_int(value) -> int:
    import math

    if isinstance(value, float):
        return math.trunc(value)
    return int(value)


def _type_base(cell: Cell) -> str:
    if cell.type is not None and cell.type.pointer == 0:
        return cell.type.base
    return "double" if isinstance(cell.value, float) else "int"


def _copy_value(value):
    if isinstance(value, ArrayValue):
        return value.clone()
    return value


def _fresh_private(env, name: str) -> Cell:
    """A private copy with the shape/type of the visible binding."""
    outer = env.lookup(name)
    if outer is not None and isinstance(outer.value, ArrayValue):
        src = outer.value
        return Cell(
            ArrayValue(src.shape, src.type_base, src.lowers),
            type=outer.type,
            name=name,
        )
    ctype = outer.type if outer is not None else None
    default = 0.0 if (ctype is not None and ctype.base in ("float", "double")) else 0
    return Cell(default, type=ctype, name=name)


def _clause_names(d: Directive, clause_name: str) -> List[str]:
    out: List[str] = []
    for clause in d.clauses_named(clause_name):
        out.extend(clause.var_names)
    return out


def _construct_reductions(d: Directive) -> List[Tuple[str, str]]:
    """Reductions attached to a parallel construct (not its loops)."""
    if d.kind != "parallel":
        return []
    return _loop_reductions(d)


def _loop_reductions(d: Directive) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for clause in d.clauses_named("reduction"):
        for name in clause.var_names:
            out.append((clause.op, name))
    return out


#: clauses that belong to the `loop` part of a combined construct
_LOOP_ONLY_CLAUSES = {
    "gang", "worker", "vector", "collapse", "seq", "independent",
    "private", "reduction", "auto",
}


def _split_combined(d: Directive) -> Tuple[Directive, Directive]:
    """Split `parallel loop` / `kernels loop` into construct + loop parts."""
    construct_kind = d.kind.split()[0]
    construct = Directive(kind=construct_kind, source=d.source, loc=d.loc)
    loop = Directive(kind="loop", source=d.source, loc=d.loc)
    for clause in d.clauses:
        if clause.name in _LOOP_ONLY_CLAUSES:
            loop.clauses.append(clause)
        else:
            construct.clauses.append(clause)
    return construct, loop


def _tightly_nested(loop: For) -> Optional[For]:
    body = loop.body
    if isinstance(body, For):
        return body
    if isinstance(body, Block):
        stmts = [s for s in body.stmts if not isinstance(s, DeclStmt)]
        if len(stmts) == 1 and isinstance(stmts[0], For):
            return stmts[0]
        if len(stmts) == 1 and isinstance(stmts[0], Block):
            return _tightly_nested_block(stmts[0])
    return None


def _tightly_nested_block(block: Block) -> Optional[For]:
    stmts = [s for s in block.stmts if not isinstance(s, DeclStmt)]
    if len(stmts) == 1 and isinstance(stmts[0], For):
        return stmts[0]
    return None


def _has_loop_dependence(loop: For) -> bool:
    """Conservative dependence test for kernels auto-parallelisation.

    A loop is treated as dependent when (a) a scalar visible outside the
    loop is both read and written (an accumulation like ``s = s + a[i]``),
    or (b) an array is written at one subscript and read at a structurally
    different subscript (``a[i] = a[i-1] + 1``).
    """
    writes_scalar: Set[str] = set()
    reads_scalar: Set[str] = set()
    array_writes: Dict[str, List[Expr]] = {}
    array_reads: Dict[str, List[Expr]] = {}
    declared: Set[str] = {loop.var}
    for node in walk(loop.body):
        if isinstance(node, DeclStmt):
            declared.update(decl.name for decl in node.decls)
    for node in walk(loop.body):
        if isinstance(node, Assign):
            target = node.target
            if isinstance(target, Ident):
                writes_scalar.add(target.name)
                if node.op:
                    reads_scalar.add(target.name)
            elif isinstance(target, Index) and isinstance(target.base, Ident):
                array_writes.setdefault(target.base.name, []).extend(target.indices)
                if node.op:
                    array_reads.setdefault(target.base.name, []).extend(target.indices)
            _collect_reads(node.value, reads_scalar, array_reads)
    for name in writes_scalar & reads_scalar:
        if name not in declared:
            return True
    for name, write_idx in array_writes.items():
        read_idx = array_reads.get(name, [])
        for w in write_idx:
            for r in read_idx:
                if not _expr_equal(w, r):
                    return True
    return False


def _collect_reads(expr: Expr, scalars: Set[str], arrays: Dict[str, List[Expr]]) -> None:
    for node in walk(expr):
        if isinstance(node, Ident):
            scalars.add(node.name)
        elif isinstance(node, Index) and isinstance(node.base, Ident):
            arrays.setdefault(node.base.name, []).extend(node.indices)
            scalars.discard(node.base.name)


def _expr_equal(a: Expr, b: Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Ident):
        return a.name == b.name
    if isinstance(a, IntLit):
        return a.value == b.value
    if isinstance(a, Binary):
        return a.op == b.op and _expr_equal(a.left, b.left) and _expr_equal(a.right, b.right)
    if isinstance(a, Unary):
        return a.op == b.op and _expr_equal(a.operand, b.operand)
    return False


def _is_copy_only_region(body: Stmt) -> bool:
    """True when every assignment in the region merely copies array elements
    (no arithmetic, no calls) — the pattern Cray's optimiser deleted."""
    assigns = [n for n in walk(body) if isinstance(n, Assign)]
    if not assigns:
        return False
    for node in assigns:
        if node.op:
            return False
        if not isinstance(node.target, Index):
            return False
        if not isinstance(node.value, (Index, Ident)):
            return False
    # any call or conditional means real work
    for node in walk(body):
        if isinstance(node, (Call, If, While)):
            return False
    return True
