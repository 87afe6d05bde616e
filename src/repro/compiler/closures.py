"""Closure lowering: how the interpreter executes a program.

Walking the AST for every statement of every iteration costs a ``type()``
dispatch per step and an :class:`~repro.compiler.interp.Env` chain walk
per name, and the harness runs every template M times per behaviour, so
that per-node cost would dominate campaign wall-clock.

This module lowers a :class:`~repro.ir.astnodes.Program` **once** into
nested Python closures.  Every statement/expression becomes a pre-bound
callable ``f(I, S)`` where ``I`` is the per-run :class:`Interpreter`
(mutable state: steps, limits, globals, output, machine) and ``S`` is the
current scope.  Lowering is a pure function of the AST — closures never
capture an interpreter — so one :class:`LoweredProgram` is shared across
all M iterations of a phase and across threads.

Three lowering tiers:

* **Tier A (slot frames)** — host function bodies.  A compile-time lexical
  resolver mirrors exactly where the tree walker would create
  ``env.child()`` scopes and assigns every declaration site a distinct
  integer slot in a flat per-call frame (a plain Python list).  Name uses
  become ``S[slot]`` loads; unresolved names fall through to
  ``I.globals`` — correct because local scopes can only ever contain
  parameters, ``DeclStmt`` declarations and loop variables (implicit
  assignment targets are defined at global scope, and
  :class:`~repro.compiler.exec_model.AccExecutor` never defines into an
  env it was handed, only into children it creates).

* **Device frames** — compute-region bodies, lowered on a region's first
  entry against its :class:`~repro.compiler.exec_model.ComputePlan`.  The
  frame's root scope has a slot for every name the region can mention;
  region entry fills it from the mapped cells, and gang, lane and
  iteration privatisation write slots instead of building Env chains.  A
  root slot the region does not bind stays None and reads as an undefined
  variable, as the region's parentless Env chain would.

* **Tier B (env closures)** — expressions and loops the executor hands
  back with an :class:`Env` through ``interp.eval``/``exec_for`` (clause
  expressions, loop bounds, the sequential run of a loop whose directive a
  behaviour ignores).  These are lowered on demand and memoised per node,
  with the same ``Env`` semantics as the tree walker.

The executor runs construct bodies only through code the lowering attached
to the env it hands over.  At a construct inside a frame, that env is a
:class:`FrameEnv`: an Env face over the live frame with the construct's
lowered bodies (its scoped body, its lanes at each collapse depth).  Work
it defers must not see the frame move on, so it snapshots an async compute
region with ``FrameEnv.child()`` — an Env over the lexically visible
cells, chained to ``I.globals`` for host frames — and standalone
directives (whose updates may defer) get such a snapshot directly: exactly
the env chain the tree walker would have given them.  A construct inside
Tier-B code gets a :class:`_BodyEnv` carrying its Env-lowered body.

The hard constraint is observable equivalence with the reference tree
walker (``tests/treewalk.py``): step accounting, error strings (they
appear in suite reports) and evaluation order are mirrored exactly;
``tests/test_closures.py`` enforces identical :class:`ExecutionResult`
values over the full shipped corpus.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.values import ArrayValue, Cell, DevicePointer, coerce_scalar
from repro.compiler.interp import (
    _BUILTINS,
    _MallocResult,
    _SIZEOF,
    _as_int,
    _cell_scalar,
    _default_lower,
    _truthy,
    _trunc_div,
    BreakSignal,
    ContinueSignal,
    Env,
    ReturnSignal,
    binary_value,
)
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Cast,
    Conditional,
    Continue,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Function,
    Ident,
    If,
    Index,
    IntLit,
    Program,
    Return,
    Stmt,
    StringLit,
    Unary,
    VarDecl,
    While,
    walk,
)
from repro.ir.acc import DataRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.exec_model import ComputePlan

#: bases for which ``coerce_scalar`` is the identity on an exact ``int``
#: (must track the int family in :func:`repro.accsim.values.coerce_scalar`)
_INT_BASES = frozenset(("int", "long", "char", "bool"))


def _hot_binary(op: str, left, right) -> Optional[Callable]:
    """A fully inlined closure for a binary op over *leaf* operands.

    ``left``/``right`` are ``('slot', i)`` (frame-resolved Ident) or
    ``('const', v)`` (numeric literal) descriptors.  Each emitted closure
    computes exactly what the hand-specialised operators in
    ``_lower_binary`` compute, minus two operand-closure calls — the single
    biggest win of the lowering, since ``i = i + 1`` and ``a[i] < n``-style
    spines dominate interpreter step counts.
    """
    lk, lv = left
    rk, rv = right
    if lk == "slot" and rk == "slot":
        a, b = lv, rv
        if op == "+":
            return lambda I, S: S[a].value + S[b].value
        if op == "-":
            return lambda I, S: S[a].value - S[b].value
        if op == "*":
            return lambda I, S: S[a].value * S[b].value
        if op == "==":
            return lambda I, S: 1 if S[a].value == S[b].value else 0
        if op == "!=":
            return lambda I, S: 1 if S[a].value != S[b].value else 0
        if op == "<":
            return lambda I, S: 1 if S[a].value < S[b].value else 0
        if op == "<=":
            return lambda I, S: 1 if S[a].value <= S[b].value else 0
        if op == ">":
            return lambda I, S: 1 if S[a].value > S[b].value else 0
        if op == ">=":
            return lambda I, S: 1 if S[a].value >= S[b].value else 0
        return None
    if lk == "slot":
        a, k = lv, rv
        if op == "+":
            return lambda I, S: S[a].value + k
        if op == "-":
            return lambda I, S: S[a].value - k
        if op == "*":
            return lambda I, S: S[a].value * k
        if op == "==":
            return lambda I, S: 1 if S[a].value == k else 0
        if op == "!=":
            return lambda I, S: 1 if S[a].value != k else 0
        if op == "<":
            return lambda I, S: 1 if S[a].value < k else 0
        if op == "<=":
            return lambda I, S: 1 if S[a].value <= k else 0
        if op == ">":
            return lambda I, S: 1 if S[a].value > k else 0
        if op == ">=":
            return lambda I, S: 1 if S[a].value >= k else 0
        return None
    if rk == "slot":
        k, b = lv, rv
        if op == "+":
            return lambda I, S: k + S[b].value
        if op == "-":
            return lambda I, S: k - S[b].value
        if op == "*":
            return lambda I, S: k * S[b].value
        if op == "==":
            return lambda I, S: 1 if k == S[b].value else 0
        if op == "!=":
            return lambda I, S: 1 if k != S[b].value else 0
        if op == "<":
            return lambda I, S: 1 if k < S[b].value else 0
        if op == "<=":
            return lambda I, S: 1 if k <= S[b].value else 0
        if op == ">":
            return lambda I, S: 1 if k > S[b].value else 0
        if op == ">=":
            return lambda I, S: 1 if k >= S[b].value else 0
        return None
    # const op const: these nine operators are total over numbers, so
    # folding at lowering time is observationally identical
    if op == "+":
        v = lv + rv
    elif op == "-":
        v = lv - rv
    elif op == "*":
        v = lv * rv
    elif op == "==":
        v = 1 if lv == rv else 0
    elif op == "!=":
        v = 1 if lv != rv else 0
    elif op == "<":
        v = 1 if lv < rv else 0
    elif op == "<=":
        v = 1 if lv <= rv else 0
    elif op == ">":
        v = 1 if lv > rv else 0
    elif op == ">=":
        v = 1 if lv >= rv else 0
    else:
        return None
    return lambda I, S: v


def _hot_cond(op: str, left, right) -> Optional[Callable]:
    """Truth-context variant of :func:`_hot_binary` for comparisons: skips
    the 0/1 materialisation (``_truthy(1 if l < r else 0)`` *is* ``l < r``).
    """
    lk, lv = left
    rk, rv = right
    if lk == "slot" and rk == "slot":
        a, b = lv, rv
        if op == "==":
            return lambda I, S: S[a].value == S[b].value
        if op == "!=":
            return lambda I, S: S[a].value != S[b].value
        if op == "<":
            return lambda I, S: S[a].value < S[b].value
        if op == "<=":
            return lambda I, S: S[a].value <= S[b].value
        if op == ">":
            return lambda I, S: S[a].value > S[b].value
        if op == ">=":
            return lambda I, S: S[a].value >= S[b].value
        return None
    if lk == "slot":
        a, k = lv, rv
        if op == "==":
            return lambda I, S: S[a].value == k
        if op == "!=":
            return lambda I, S: S[a].value != k
        if op == "<":
            return lambda I, S: S[a].value < k
        if op == "<=":
            return lambda I, S: S[a].value <= k
        if op == ">":
            return lambda I, S: S[a].value > k
        if op == ">=":
            return lambda I, S: S[a].value >= k
        return None
    if rk == "slot":
        k, b = lv, rv
        if op == "==":
            return lambda I, S: k == S[b].value
        if op == "!=":
            return lambda I, S: k != S[b].value
        if op == "<":
            return lambda I, S: k < S[b].value
        if op == "<=":
            return lambda I, S: k <= S[b].value
        if op == ">":
            return lambda I, S: k > S[b].value
        if op == ">=":
            return lambda I, S: k >= S[b].value
        return None
    return None


# ---------------------------------------------------------------------------
# compile-time scope resolver (Tier A)
# ---------------------------------------------------------------------------


class _FrameScope:
    """Lexical scope stack mapping names to frame slots during lowering.

    ``push``/``pop`` mirror every point where the tree walker would create
    an ``env.child()``; each declaration site gets a fresh slot, so
    shadowing works and re-executing a block (loop bodies) simply rebinds
    the same slots — observationally identical to a fresh child env because
    a slot-resolved use always executes after its declaration (the language
    has no goto; uses lowered *before* a declaration resolve to the outer
    binding, exactly as the runtime chain walk would).
    """

    __slots__ = ("_stack", "nslots", "unbound")

    def __init__(self) -> None:
        self._stack: List[Dict[str, int]] = [{}]
        self.nslots = 0
        #: slots that may hold None at runtime: in a device frame, names the
        #: region's scope chain may not bind (a use of one is an undefined
        #: variable, exactly as the chain walk would find)
        self.unbound: Set[int] = set()

    def push(self) -> None:
        self._stack.append({})

    def pop(self) -> None:
        self._stack.pop()

    def declare(self, name: str, unbound: bool = False) -> int:
        slot = self.nslots
        self.nslots += 1
        self._stack[-1][name] = slot
        if unbound:
            self.unbound.add(slot)
        return slot

    def bound(self, slot: Optional[int]) -> bool:
        """True when ``slot`` always holds a cell by the time it is read."""
        return slot is not None and slot not in self.unbound

    def resolve(self, name: str) -> Optional[int]:
        for scope in reversed(self._stack):
            slot = scope.get(name)
            if slot is not None:
                return slot
        return None

    def visible(self) -> Tuple[Tuple[str, int], ...]:
        """All visible (name, slot) bindings, inner scopes shadowing outer."""
        merged: Dict[str, int] = {}
        for scope in self._stack:
            merged.update(scope)
        return tuple(merged.items())


# ---------------------------------------------------------------------------
# lowered artifacts
# ---------------------------------------------------------------------------


class LoweredFunction:
    """One function body lowered to a frame-based closure."""

    __slots__ = ("fn", "nslots", "param_slots", "entry_visible", "body")

    def __init__(self, fn: Function, nslots: int, param_slots: List[int],
                 entry_visible: Tuple[Tuple[str, int], ...], body: Callable):
        self.fn = fn
        self.nslots = nslots
        self.param_slots = param_slots
        self.entry_visible = entry_visible
        self.body = body


def invoke_function(I, lowered: LoweredFunction, args: Sequence[object]):
    """Call protocol for a lowered function (mirrors ``call_function``)."""
    fn = lowered.fn
    if len(args) != len(fn.params):
        raise AccRuntimeError(
            f"{fn.name}: expected {len(fn.params)} arguments, got {len(args)}"
        )
    frame: List[Optional[Cell]] = [None] * lowered.nslots
    for slot, param, arg in zip(lowered.param_slots, fn.params, args):
        if isinstance(arg, Cell):
            frame[slot] = arg  # by-reference (Fortran)
        else:
            frame[slot] = Cell(arg, type=param.type, name=param.name)
    env = _bridge_env(I.globals, frame, lowered.entry_visible)
    I.acc.enter_function(fn, env)
    try:
        lowered.body(I, frame)
        result: object = 0
    except ReturnSignal as signal:
        result = signal.value if signal.value is not None else 0
    finally:
        I.acc.exit_function(fn)
    return result


def _bridge_env(parent: Optional[Env], frame: List[Optional[Cell]],
                visible: Tuple[Tuple[str, int], ...]) -> Env:
    """An Env over the lexically visible frame cells, chained to ``parent``
    (the globals for host frames; none for device frames, whose scope
    chain ends at the region)."""
    env = Env(parent=parent)
    env_vars = env.vars
    for name, slot in visible:
        cell = frame[slot]
        if cell is not None:
            env_vars[name] = cell
    return env


# ---------------------------------------------------------------------------
# construct sites and device frames (compute-region bodies)
# ---------------------------------------------------------------------------


class _Site:
    """The lexical view of a slot frame at one point of a body."""

    __slots__ = ("names", "visible", "lanes", "scoped")

    def __init__(self, visible: Tuple[Tuple[str, int], ...],
                 lanes: Optional[Dict[int, "_ScopedCode"]] = None,
                 scoped: Optional["_ScopedCode"] = None):
        self.visible = visible
        self.names = dict(visible)
        #: collapse depth -> lowered lane body (device ``loop`` sites)
        self.lanes = lanes or {}
        #: the lowered body the executor runs in a scope of its own: a
        #: ``data``/``host_data`` body, or the host run of an if(false)
        #: compute region or an orphaned loop
        self.scoped = scoped


class FrameEnv:
    """A slot frame seen from one site, with the face of an :class:`Env`
    the executor needs: ``lookup`` for clause operands, reduction targets
    and private shapes; ``child`` for its Env fallbacks (a bridge Env over
    the visible cells); and the site's lowered bodies, if any.

    ``parent`` is the globals for a host frame and None for a device
    frame, whose scope chain ends at the region.  A FrameEnv reads the
    frame live, so the executor snapshots it with ``child()`` before it
    defers an async region, and standalone directives never get one.
    """

    __slots__ = ("frame", "site", "parent")

    def __init__(self, frame: List[Optional[Cell]], site: _Site,
                 parent: Optional[Env] = None):
        self.frame = frame
        self.site = site
        self.parent = parent

    def lookup(self, name: str) -> Optional[Cell]:
        slot = self.site.names.get(name)
        if slot is not None:
            cell = self.frame[slot]
            if cell is not None:
                return cell
        return self.parent.lookup(name) if self.parent is not None else None

    def child(self) -> Env:
        return _bridge_env(self.parent, self.frame, self.site.visible)

    def lane(self, depth: int) -> Optional["_ScopedCode"]:
        return self.site.lanes.get(depth)

    def run_scoped(self, I, defs: Dict[str, Cell]) -> bool:
        """Run the site's construct body with ``defs`` bound; False when
        the site has no lowered body."""
        code = self.site.scoped
        if code is None:
            return False
        code.bind(self.frame, defs)
        code.body(I, self.frame)
        return True


class _BodyEnv(Env):
    """The Env a Tier-B construct runs in: an empty child of its scope
    (so lookups see exactly that scope), carrying the construct body
    lowered with it."""

    __slots__ = ("body",)

    def __init__(self, parent: Env, body: Callable):
        super().__init__(parent)
        self.body = body

    def run_scoped(self, I, defs: Dict[str, Cell]) -> bool:
        """Run the body in a child scope holding ``defs``."""
        scope = self.child()
        scope.vars.update(defs)
        self.body(I, scope)
        return True


class _ScopedCode:
    """A construct body lowered in a scope of its own: the scope's slots
    and the body closure (for a ``loop``, the per-iteration body at one
    collapse depth).

    ``binds`` are ``(name, slot, outer_slot)``: a binding the executor made
    (a private, reduction, loop variable or deviceptr) fills its slot; one
    it did not make (a private clause the behaviour ignores) aliases the
    enclosing binding, exactly as an Env child that never defined the name
    would.
    """

    __slots__ = ("binds", "body")

    def __init__(self, binds, body: Callable):
        self.binds = binds
        self.body = body

    def bind(self, S: List[Optional[Cell]], defs: Dict[str, Cell]) -> None:
        for name, slot, outer in self.binds:
            cell = defs.get(name)
            if cell is None and outer is not None:
                cell = S[outer]
            S[slot] = cell

    def run(self, I, S: List[Optional[Cell]], defs: Dict[str, Cell],
            var_cells: List[Cell], tuples) -> None:
        """Run a lane: bind its scope, then the body once per tuple."""
        self.bind(S, defs)
        body = self.body
        max_steps = I._max_steps
        if len(var_cells) == 1:
            var = var_cells[0]
            for (value,) in tuples:
                I.steps += 1
                if I.steps > max_steps:
                    raise ExecutionTimeout("step budget exceeded in device loop")
                var.value = value
                body(I, S)
            return
        for values in tuples:
            I.steps += 1
            if I.steps > max_steps:
                raise ExecutionTimeout("step budget exceeded in device loop")
            for cell, value in zip(var_cells, values):
                cell.value = value
            body(I, S)


class RegionCode:
    """A compute-region body lowered against a device slot frame.

    The frame's root scope holds one slot per name the body (or the
    construct's clauses) can mention.  Region entry fills a base frame from
    the region's mapped cells once; each gang (or the kernel) then runs on
    a copy of it with its private bindings written into their slots — the
    frame equivalent of ``region_env.child()`` plus ``define``.
    """

    __slots__ = ("nslots", "roots", "body", "final")

    def __init__(self, nslots: int, roots: Dict[str, int], body: Callable,
                 final: _Site):
        self.nslots = nslots
        self.roots = roots
        self.body = body
        #: the root scope after the body: what ``scope.lookup`` would see
        self.final = final

    def scope_runner(self, I, region_vars: Dict[str, Cell]):
        """``run(defs)``: execute the body in a scope of ``region_vars``
        extended by ``defs``; returns that scope as a :class:`FrameEnv`."""
        base: List[Optional[Cell]] = [None] * self.nslots
        roots = self.roots
        for name, slot in roots.items():
            base[slot] = region_vars.get(name)
        body = self.body
        final = self.final

        def run(defs: Dict[str, Cell]) -> FrameEnv:
            frame = base[:]
            for name, cell in defs.items():
                frame[roots[name]] = cell
            body(I, frame)
            return FrameEnv(frame, final)
        return run


def _region_names(plan: ComputePlan) -> List[str]:
    """Every name a region body or its construct's clauses can mention."""
    names: Dict[str, None] = dict.fromkeys(plan.private_names)
    names.update(dict.fromkeys(plan.firstprivate_names))
    names.update(dict.fromkeys(name for _op, name in plan.reductions))
    for node in walk(plan.body):
        if isinstance(node, (Ident, VarDecl, DataRef)):
            names.setdefault(node.name)
        elif isinstance(node, For):
            names.setdefault(node.var)
    return list(names)


class LoweredProgram:
    """A program lowered once, runnable by any number of interpreters."""

    def __init__(self, program: Program, plans: Dict[int, tuple]):
        self.program = program
        #: static construct plans (repro.compiler.exec_model), node id ->
        #: (node, plan): the caller's table, normally the parse's
        #: (CompiledProgram.plans), which outlives this lowering and is
        #: shared by every lowering of the same parse
        self.plans = plans
        self.functions: Dict[str, LoweredFunction] = {}
        for fn in program.functions:
            lowerer = _Lowerer(program, frame=True, lowered_fns=self.functions,
                               plans=plans)
            self.functions[fn.name] = lowerer.lower_function(fn)
        self._env_lowerer = _Lowerer(program, frame=False,
                                     lowered_fns=self.functions)
        # Tier-B memos, keyed by node identity.  The node itself is pinned
        # in the value so a collected node can never recycle a key's id().
        # Benign data race under the GIL: worst case a node lowers twice.
        self._exprs: Dict[int, Tuple[Expr, Callable]] = {}
        self._fors: Dict[int, Tuple[For, Callable]] = {}

    def region_code(self, plan: ComputePlan) -> RegionCode:
        """The plan's region body lowered to a device frame, built on the
        region's first entry and kept on the plan, so it lives as long as
        the plan and serves every lowering that shares the plans.  It
        therefore holds nothing of this lowering: user calls inside the
        region resolve through the running interpreter
        (``Interpreter.call_function``)."""
        code = plan.device_code
        if code is None:
            lowerer = _Lowerer(self.program, frame=True, plans=self.plans,
                               device=True)
            code = lowerer.lower_region(plan)
            plan.device_code = code
        return code

    # Tier-B entry points (dispatch targets of Interpreter.eval/exec_for
    # when the executor calls back in with an Env).

    def expr_closure(self, expr: Expr) -> Callable:
        entry = self._exprs.get(id(expr))
        if entry is None or entry[0] is not expr:
            entry = (expr, self._env_lowerer.lower_expr(expr))
            self._exprs[id(expr)] = entry
        return entry[1]

    def for_closure(self, loop: For) -> Callable:
        entry = self._fors.get(id(loop))
        if entry is None or entry[0] is not loop:
            entry = (loop, self._env_lowerer.lower_for_core(loop))
            self._fors[id(loop)] = entry
        return entry[1]


def lower_program(program: Program,
                  plans: Optional[Dict[int, tuple]] = None) -> LoweredProgram:
    """Lower every function of ``program`` into closures (Tier A) and set
    up the on-demand Tier-B lowerer.  Pure: safe to share and reuse.

    ``plans`` is the program's static construct plan table to read and
    fill (a fresh one when not given)."""
    return LoweredProgram(program, {} if plans is None else plans)


# ---------------------------------------------------------------------------
# the lowerer
# ---------------------------------------------------------------------------


def _op_fn(op: str, node) -> Callable:
    """A two-argument combiner mirroring ``binary_value`` for one operator."""
    if op == "+":
        return lambda left, right: left + right
    if op == "-":
        return lambda left, right: left - right
    if op == "*":
        return lambda left, right: left * right
    if op == "/":
        def _div(left, right):
            if right == 0:
                raise AccRuntimeError(f"division by zero at {node.loc}")
            if isinstance(left, int) and isinstance(right, int):
                return _trunc_div(left, right)
            return left / right
        return _div
    if op == "%":
        def _mod(left, right):
            if right == 0:
                raise AccRuntimeError(f"modulo by zero at {node.loc}")
            return left - _trunc_div(left, right) * right
        return _mod
    if op == "==":
        return lambda left, right: 1 if left == right else 0
    if op == "!=":
        return lambda left, right: 1 if left != right else 0
    if op == "<":
        return lambda left, right: 1 if left < right else 0
    if op == "<=":
        return lambda left, right: 1 if left <= right else 0
    if op == ">":
        return lambda left, right: 1 if left > right else 0
    if op == ">=":
        return lambda left, right: 1 if left >= right else 0
    return lambda left, right: binary_value(op, left, right, node)


class _Lowerer:
    """Lowers statements/expressions to closures over ``(I, S)``.

    ``frame=True`` is Tier A (``S`` is a slot frame, names resolved at
    lowering time); ``frame=False`` is Tier B (``S`` is an :class:`Env`,
    names resolved by chain walk at runtime, same as the tree walker).
    """

    def __init__(self, program: Program, frame: bool,
                 lowered_fns: Optional[Dict[str, LoweredFunction]] = None,
                 plans: Optional[Dict[int, tuple]] = None,
                 device: bool = False):
        self.program = program
        self.language = program.language
        self.functions = {fn.name: fn for fn in program.functions}
        self.frame = frame
        self.sc = _FrameScope() if frame else None
        # shared (still-filling) LoweredProgram.functions dict: call sites
        # resolve through it at runtime, skipping the call_function bounce
        self.lowered_fns = lowered_fns
        self.plans = plans
        #: a device frame: the scope chain ends at the region (no globals)
        self.device = device
        #: lowering code that runs only sequentially outside any region:
        #: an if(false) region's host run, a loop ``exec_for`` runs.  A
        #: ``loop`` there never runs lanes
        self.host_run = False

    # -------------------------------------------------------------- function

    def lower_function(self, fn: Function) -> LoweredFunction:
        sc = self.sc
        param_slots = [sc.declare(p.name) for p in fn.params]
        entry_visible = sc.visible()
        # the function body block gets no step bump (exec_block has none)
        body = self._lower_block_body(fn.body)
        return LoweredFunction(
            fn=fn, nslots=sc.nslots, param_slots=param_slots,
            entry_visible=entry_visible, body=body,
        )

    def lower_region(self, plan: ComputePlan) -> RegionCode:
        """Lower a compute-region body against a device frame whose root
        scope is seeded with every name the region can mention."""
        sc = self.sc
        roots = {name: sc.declare(name, unbound=True)
                 for name in _region_names(plan)}
        body = self.lower_stmt(plan.body)
        return RegionCode(sc.nslots, roots, body, _Site(sc.visible()))

    def _lower_block_body(self, block: Block) -> Callable:
        """The inside of a block: child scope + statements, no step bump."""
        if self.frame:
            self.sc.push()
            stmt_cs = tuple(self.lower_stmt(s) for s in block.stmts)
            self.sc.pop()
            # frame scoping is entirely lowering-time, so short bodies
            # collapse to direct calls with no runtime scope work at all
            if len(stmt_cs) == 1:
                return stmt_cs[0]
            if len(stmt_cs) == 2:
                first, second = stmt_cs

                def run(I, S):
                    first(I, S)
                    second(I, S)
                return run
            if not stmt_cs:
                return lambda I, S: None

            def run(I, S):
                for c in stmt_cs:
                    c(I, S)
            return run

        stmt_cs = tuple(self.lower_stmt(s) for s in block.stmts)

        def run(I, S):
            scope = S.child()
            for c in stmt_cs:
                c(I, scope)
        return run

    # ------------------------------------------------------------ statements

    def lower_stmt(self, stmt: Stmt) -> Callable:
        kind = type(stmt)
        if kind is Block:
            return self._lower_block_stmt(stmt)
        if kind is DeclStmt:
            return self._lower_decl_stmt(stmt)
        if kind is Assign:
            return self._lower_assign(stmt)
        if kind is ExprStmt:
            return self._lower_expr_stmt(stmt)
        if kind is If:
            return self._lower_if(stmt)
        if kind is For:
            return self._lower_for_stmt(stmt)
        if kind is While:
            return self._lower_while(stmt)
        if kind is Return:
            return self._lower_return(stmt)
        if kind is Break:
            return self._lower_break(stmt)
        if kind is Continue:
            return self._lower_continue(stmt)
        if kind is AccConstruct:
            return self._lower_acc(stmt, "exec_construct")
        if kind is AccLoop:
            return self._lower_acc(stmt, "exec_acc_loop")
        if kind is AccStandalone:
            return self._lower_acc(stmt, "exec_standalone")
        message = f"cannot execute statement {kind.__name__}"
        loc = stmt.loc

        def run(I, S):  # pragma: no cover - parser produces no other kinds
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise AccRuntimeError(message)
        return run

    def _lower_block_stmt(self, stmt: Block) -> Callable:
        loc = stmt.loc
        if self.frame:
            # fuse the node's step bump with the statement loop: one closure
            # per block execution instead of a bump wrapper plus a body run
            self.sc.push()
            stmt_cs = tuple(self.lower_stmt(s) for s in stmt.stmts)
            self.sc.pop()
            if len(stmt_cs) == 1:
                inner = stmt_cs[0]

                def run(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(
                            f"step budget {I.limits.max_steps} exceeded at {loc}"
                        )
                    inner(I, S)
                return run

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                for c in stmt_cs:
                    c(I, S)
            return run

        inner = self._lower_block_body(stmt)

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            inner(I, S)
        return run

    def _lower_decl_stmt(self, stmt: DeclStmt) -> Callable:
        decl_cs = tuple(self._lower_decl(d) for d in stmt.decls)
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            for c in decl_cs:
                c(I, S)
        return run

    def _lower_decl(self, decl: VarDecl) -> Callable:
        """One declaration; mirrors ``Interpreter._declare`` exactly."""
        name = decl.name
        typ = decl.type
        if decl.dims:
            dim_cs = tuple(self.lower_expr(d) for d in decl.dims)
            lower_cs = tuple(
                self.lower_expr(l) if l is not None else None
                for l in (decl.lowers or [None] * len(decl.dims))
            )
            default_lower = _default_lower(self.language)
            init_c = self.lower_expr(decl.init) if decl.init is not None else None
            base = typ.base

            def make(I, S):
                shape = [_as_int(c(I, S)) for c in dim_cs]
                lowers = [
                    (_as_int(c(I, S)) if c is not None else default_lower)
                    for c in lower_cs
                ]
                value = ArrayValue(shape, base, lowers)
                if init_c is not None:
                    value.data.fill(init_c(I, S))
                return value
        elif typ.pointer > 0:
            init_c = self.lower_expr(decl.init) if decl.init is not None else None

            def make(I, S):
                return init_c(I, S) if init_c is not None else None
        else:
            init_c = self.lower_expr(decl.init) if decl.init is not None else None
            base = typ.base
            zero = coerce_scalar(base, 0)

            def make(I, S):
                if init_c is not None:
                    return coerce_scalar(base, init_c(I, S))
                return zero

        # declare *after* lowering the initialiser: an init referencing the
        # same name sees the outer binding, as at runtime
        if self.frame:
            slot = self.sc.declare(name)

            def run(I, S):
                S[slot] = Cell(make(I, S), type=typ, name=name)
            return run

        def run(I, S):
            S.define(name, Cell(make(I, S), type=typ, name=name))
        return run

    def _lower_assign(self, stmt: Assign) -> Callable:
        value_c = self.lower_expr(stmt.value)
        target = stmt.target
        loc = stmt.loc
        combine = _op_fn(stmt.op, stmt) if stmt.op else None

        if isinstance(target, Ident):
            name = target.name
            slot = self.sc.resolve(name) if self.frame else None
            if combine is None and self.frame and self.sc.bound(slot):
                # hottest statement shape: plain assignment to a local.  A
                # slot-resolved target's cell always exists by the time the
                # assignment runs (its declaration executes first — no goto),
                # and an exact ``int`` assigned to an int-family scalar cell
                # makes ``coerce_scalar`` the identity, so the common case is
                # a single attribute store.
                def run(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(
                            f"step budget {I.limits.max_steps} exceeded at {loc}"
                        )
                    value = value_c(I, S)
                    cell = S[slot]
                    ctype = cell.type
                    if value.__class__ is int and ctype is not None \
                            and ctype.pointer == 0:
                        base = ctype.base
                        if base in _INT_BASES:
                            cvc = cell.value.__class__
                            if cvc is not ArrayValue and cvc is not DevicePointer:
                                cell.value = value
                                return
                    base = ctype.base if ctype is not None and ctype.pointer == 0 else None
                    if isinstance(value, (int, float)) and not isinstance(
                        cell.value, (ArrayValue, DevicePointer)
                    ):
                        cell.value = coerce_scalar(base, value)
                    else:
                        cell.value = value
                return run
            getter = self._cell_ref(name)

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                cell = getter(I, S)
                if cell is None:
                    # implicit int definition at global scope (see the tree
                    # walker's exec_assign for the rationale)
                    cell = I.globals.define(name, Cell(0, name=name))
                if combine is not None:
                    value = combine(_cell_scalar(cell), value)
                ctype = cell.type
                base = ctype.base if ctype is not None and ctype.pointer == 0 else None
                if isinstance(value, (int, float)) and not isinstance(
                    cell.value, (ArrayValue, DevicePointer)
                ):
                    cell.value = coerce_scalar(base, value)
                else:
                    cell.value = value
            return run

        if isinstance(target, Index):
            resolver = self._lower_index_resolver(target)

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                array, indices = resolver(I, S)
                if combine is not None:
                    value = combine(array.get(indices), value)
                array.set(indices, value)
            return run

        if isinstance(target, Unary) and target.op == "*":
            operand_c = self.lower_expr(target.operand)
            target_loc = target.loc

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                pointee = operand_c(I, S)
                array = _pointer_array(pointee, target_loc)
                if combine is not None:
                    value = combine(array.get([array.lowers[0]]), value)
                array.set([array.lowers[0]], value)
            return run

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            value_c(I, S)
            raise AccRuntimeError(f"invalid assignment target at {loc}")
        return run

    def _lower_expr_stmt(self, stmt: ExprStmt) -> Callable:
        expr_c = self.lower_expr(stmt.expr)
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            expr_c(I, S)
        return run

    def _lower_if(self, stmt: If) -> Callable:
        cond_c = self._lower_cond(stmt.cond)
        loc = stmt.loc
        if self.frame:
            self.sc.push()
            then_c = self.lower_stmt(stmt.then)
            self.sc.pop()
            other_c = None
            if stmt.other is not None:
                self.sc.push()
                other_c = self.lower_stmt(stmt.other)
                self.sc.pop()

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                if cond_c(I, S):
                    then_c(I, S)
                elif other_c is not None:
                    other_c(I, S)
            return run

        then_c = self.lower_stmt(stmt.then)
        other_c = self.lower_stmt(stmt.other) if stmt.other is not None else None

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            if cond_c(I, S):
                then_c(I, S.child())
            elif other_c is not None:
                other_c(I, S.child())
        return run

    def _lower_while(self, stmt: While) -> Callable:
        cond_c = self._lower_cond(stmt.cond)
        loc = stmt.loc
        if self.frame:
            self.sc.push()
            body_c = self.lower_stmt(stmt.body)
            self.sc.pop()

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                while cond_c(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(f"step budget exceeded at {loc}")
                    try:
                        body_c(I, S)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue
            return run

        body_c = self.lower_stmt(stmt.body)

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            while cond_c(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(f"step budget exceeded at {loc}")
                try:
                    body_c(I, S.child())
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        return run

    def _lower_for_stmt(self, loop: For) -> Callable:
        core = self.lower_for_core(loop)
        loc = loop.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            core(I, S)
        return run

    def lower_for_core(self, loop: For) -> Callable:
        """The loop itself, without the statement-node step bump (this is
        also the dispatch target of ``Interpreter.exec_for``, which the
        tree walker likewise runs without a node bump)."""
        start_c = self.lower_expr(loop.start)
        bound_c = self.lower_expr(loop.bound)
        step_c = self.lower_expr(loop.step)
        inclusive = loop.inclusive
        var = loop.var
        loc = loop.loc

        if self.frame:
            sc = self.sc
            sc.push()
            outer_slot = sc.resolve(var)
            # a bound outer binding is reused; otherwise the loop gets a
            # slot of its own, filled at entry as the chain walk would
            var_slot = None if sc.bound(outer_slot) else sc.declare(var)
            body_c = self.lower_stmt(loop.body)
            sc.pop()
            device = self.device

            def run(I, S):
                start = _as_int(start_c(I, S))
                bound = _as_int(bound_c(I, S))
                step = _as_int(step_c(I, S))
                if step == 0:
                    raise AccRuntimeError(f"zero loop step at {loc}")
                if step > 0:
                    stop = bound + 1 if inclusive else bound
                else:
                    stop = bound - 1 if inclusive else bound
                if var_slot is None:
                    cell = S[outer_slot]
                else:
                    # the tree walker's scope.lookup: an (unbound-marked)
                    # outer slot's cell, else the globals (host frames
                    # only); only a nowhere-defined var gets a fresh cell
                    cell = S[outer_slot] if outer_slot is not None else None
                    if cell is None and not device:
                        cell = I.globals.lookup(var)
                    if cell is None:
                        cell = Cell(0, name=var)
                    S[var_slot] = cell
                max_steps = I._max_steps
                for i in range(start, stop, step):
                    I.steps += 1
                    if I.steps > max_steps:
                        raise ExecutionTimeout(f"step budget exceeded at {loc}")
                    cell.value = i
                    try:
                        body_c(I, S)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue
            return run

        body_c = self.lower_stmt(loop.body)

        def run(I, S):
            start = _as_int(start_c(I, S))
            bound = _as_int(bound_c(I, S))
            step = _as_int(step_c(I, S))
            if step == 0:
                raise AccRuntimeError(f"zero loop step at {loc}")
            if step > 0:
                stop = bound + 1 if inclusive else bound
            else:
                stop = bound - 1 if inclusive else bound
            scope = S.child()
            cell = scope.lookup(var)
            if cell is None:
                cell = scope.define(var, Cell(0, name=var))
            max_steps = I._max_steps
            for i in range(start, stop, step):
                I.steps += 1
                if I.steps > max_steps:
                    raise ExecutionTimeout(f"step budget exceeded at {loc}")
                cell.value = i
                try:
                    body_c(I, scope.child())
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        return run

    def _lower_return(self, stmt: Return) -> Callable:
        value_c = self.lower_expr(stmt.value) if stmt.value is not None else None
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise ReturnSignal(value_c(I, S) if value_c is not None else None)
        return run

    def _lower_break(self, stmt: Break) -> Callable:
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise BreakSignal()
        return run

    def _lower_continue(self, stmt: Continue) -> Callable:
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise ContinueSignal()
        return run

    def _lower_acc(self, stmt: Stmt, method: str) -> Callable:
        loc = stmt.loc
        if self.frame:
            visible = self.sc.visible()
            device = self.device
            site = self._construct_site(stmt, visible)
            if site is not None:
                def run(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(
                            f"step budget {I.limits.max_steps} exceeded at {loc}"
                        )
                    getattr(I.acc, method)(
                        stmt, FrameEnv(S, site, None if device else I.globals))
                return run

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                env = _bridge_env(None if device else I.globals, S, visible)
                getattr(I.acc, method)(stmt, env)
            return run

        if isinstance(stmt, AccConstruct):
            # the executor runs the body in a child scope of the env it
            # gets, so that env carries the body
            body_c = self.lower_stmt(stmt.body)

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                I.acc.exec_construct(stmt, _BodyEnv(S, body_c))
            return run

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            getattr(I.acc, method)(stmt, S)
        return run

    def _construct_site(self, stmt: Stmt,
                        visible: Tuple[Tuple[str, int], ...]
                        ) -> Optional[_Site]:
        """The lowered bodies the executor may run for ``stmt`` on this
        frame, or None when it gets a bridge Env instead.

        A site's FrameEnv reads the frame live; the executor snapshots it
        with ``child()`` before deferring an async region.  Standalone
        directives, whose async updates defer inside the executor, get a
        bridge, and so does a combined construct nested in a region, whose
        host run (if any) is the executor's ``exec_for``.
        """
        device = self.device
        kind = stmt.directive.kind
        if isinstance(stmt, AccLoop):
            site = None
            if kind == "loop" and not self.host_run:
                # lanes (on a host frame, for a 2.0 routine that runs the
                # loop inside a region)
                site = self._lower_loop_site(stmt, visible)
            if not device:
                # the sequential host run of an orphaned loop or an
                # if(false) combined construct
                site = site or _Site(visible)
                site.scoped = _ScopedCode((), self._lower_host_run(
                    lambda: self.lower_for_core(stmt.loop)))
            return site
        if isinstance(stmt, AccConstruct):
            if kind in ("data", "host_data"):
                # a scope holding the names deviceptr/use_device may rebind
                clause = "deviceptr" if kind == "data" else "use_device"
                names = dict.fromkeys(
                    n for c in stmt.directive.clauses_named(clause)
                    for n in c.var_names)
                return _Site(visible, scoped=self._lower_scoped(
                    names, set(), stmt.body))
            # the host run of an if(false) compute region
            return _Site(visible, scoped=self._lower_host_run(
                lambda: self._lower_scoped((), set(), stmt.body)))
        return None

    def _lower_host_run(self, lower: Callable):
        """``lower()`` with ``host_run`` set."""
        outer, self.host_run = self.host_run, True
        code = lower()
        self.host_run = outer
        return code

    def _lower_loop_site(self, stmt: AccLoop,
                         visible: Tuple[Tuple[str, int], ...]) -> _Site:
        """Lower a ``loop``'s lane bodies: for no collapse, and for its
        constant ``collapse(N)`` if it has one — or for every depth of its
        loop nest when the count is computed."""
        # imported here, like the executor itself (repro.compiler.interp),
        # so importing the package does not load the execution model
        from repro.compiler.exec_model import LoopPlan, plan_for

        plan = plan_for(self.plans, stmt, LoopPlan)
        depths = [1]
        clause = plan.collapse
        if clause is not None and not isinstance(clause.expr, IntLit):
            depths = range(1, len(plan.chain) + 1)
        elif clause is not None and 1 < clause.expr.value <= len(plan.chain):
            depths.append(clause.expr.value)
        reductions = [name for _op, name in plan.reductions]
        lanes: Dict[int, _ScopedCode] = {}
        for depth in depths:
            loop_vars = [l.var for l in plan.chain[:depth]]
            # privates may be ignored by the behaviour; the executor
            # always binds reductions and loop variables
            lanes[depth] = self._lower_scoped(
                dict.fromkeys(plan.private_names + reductions + loop_vars),
                set(reductions + loop_vars), plan.chain[depth - 1].body,
                child=True)
        return _Site(visible, lanes)

    def _lower_scoped(self, names, always, body: Stmt,
                      child: bool = False) -> _ScopedCode:
        """``body`` lowered in a new scope declaring ``names`` (those in
        ``always`` are always bound by the executor; ``child``: the body
        runs in a further child scope per execution)."""
        sc = self.sc
        sc.push()
        binds = []
        for name in names:
            outer = sc.resolve(name)
            slot = sc.declare(name, unbound=name not in always)
            binds.append((name, slot, outer))
        if child:
            sc.push()
        body_c = self.lower_stmt(body)
        if child:
            sc.pop()
        sc.pop()
        return _ScopedCode(tuple(binds), body_c)

    # ----------------------------------------------------------- expressions

    def lower_expr(self, expr: Expr) -> Callable:
        kind = type(expr)
        if kind is IntLit or kind is FloatLit or kind is StringLit:
            value = expr.value
            return lambda I, S: value
        if kind is Ident:
            return self._lower_ident(expr)
        if kind is Index:
            slot_index = self._slot_index(expr)
            if slot_index is not None:
                # a[i] over a frame slot, resolved and read in one closure
                slot, index_c, name, loc = slot_index

                def run(I, S):
                    cell = S[slot]
                    value = cell.value if cell is not None else None
                    if value.__class__ is not ArrayValue:
                        value = _cell_array(cell, name, loc)
                    i = index_c(I, S)
                    return value.get([i if i.__class__ is int else _as_int(i)])
                return run
            resolver = self._lower_index_resolver(expr)

            def run(I, S):
                array, indices = resolver(I, S)
                return array.get(indices)
            return run
        if kind is Binary:
            return self._lower_binary(expr)
        if kind is Unary:
            return self._lower_unary(expr)
        if kind is Conditional:
            cond_c = self._lower_cond(expr.cond)
            then_c = self.lower_expr(expr.then)
            other_c = self.lower_expr(expr.other)

            def run(I, S):
                if cond_c(I, S):
                    return then_c(I, S)
                return other_c(I, S)
            return run
        if kind is Call:
            return self._lower_call(expr)
        if kind is Cast:
            return self._lower_cast(expr)
        message = f"cannot evaluate expression {kind.__name__}"

        def run(I, S):  # pragma: no cover - mirrors the tree walker
            raise AccRuntimeError(message)
        return run

    def _cell_ref(self, name: str) -> Callable:
        """A closure resolving ``name`` to its Cell (or None if undefined)."""
        if self.frame:
            slot = self.sc.resolve(name)
            if slot is not None and (self.device or self.sc.bound(slot)):
                return lambda I, S: S[slot]
            if self.device:
                return lambda I, S: None
            if slot is not None:
                # a host slot a construct may leave unbound: the chain walk
                # goes on to the globals
                return lambda I, S: S[slot] or I.globals.lookup(name)
            return lambda I, S: I.globals.lookup(name)
        return lambda I, S: S.lookup(name)

    def _lower_ident(self, expr: Ident) -> Callable:
        name = expr.name
        loc = expr.loc
        if self.frame:
            slot = self.sc.resolve(name)
            if self.sc.bound(slot):
                def run(I, S):
                    return S[slot].value
                return run
            getter = self._cell_ref(name)

            def run(I, S):
                cell = getter(I, S)
                if cell is None:
                    raise AccRuntimeError(
                        f"undefined variable {name!r} at {loc}"
                    )
                return cell.value
            return run

        def run(I, S):
            cell = S.lookup(name)
            if cell is None:
                raise AccRuntimeError(f"undefined variable {name!r} at {loc}")
            return cell.value
        return run

    def _slot_index(self, expr: Index):
        """``(slot, index closure, name, loc)`` for the hot shape ``a[i]``
        with ``a`` in a frame slot whose lookup is just the slot; else
        None.  Such accesses skip the getter call and the index list build
        but keep every check, in order."""
        base = expr.base
        if not (self.frame and isinstance(base, Ident)
                and len(expr.indices) == 1):
            return None
        slot = self.sc.resolve(base.name)
        if slot is None or not (self.device or self.sc.bound(slot)):
            return None
        return slot, self.lower_expr(expr.indices[0]), base.name, expr.loc

    def _lower_index_resolver(self, expr: Index) -> Callable:
        """The tree walker's ``_resolve_index``: (I, S) -> (array, ix)."""
        slot_index = self._slot_index(expr)
        if slot_index is not None:
            slot, index_c, name, loc = slot_index

            def resolve(I, S):
                cell = S[slot]
                value = cell.value if cell is not None else None
                if value.__class__ is not ArrayValue:
                    value = _cell_array(cell, name, loc)
                i = index_c(I, S)
                return value, [i if i.__class__ is int else _as_int(i)]
            return resolve
        index_cs = tuple(self.lower_expr(ix) for ix in expr.indices)
        loc = expr.loc
        base = expr.base
        if isinstance(base, Ident):
            name = base.name
            getter = self._cell_ref(name)

            def resolve(I, S):
                value = _cell_array(getter(I, S), name, loc)
                indices = [_as_int(c(I, S)) for c in index_cs]
                return value, indices
            return resolve

        base_c = self.lower_expr(base)

        def resolve(I, S):
            value = base_c(I, S)
            if isinstance(value, DevicePointer):
                value = value.as_array("int")
            if not isinstance(value, ArrayValue):
                raise AccRuntimeError(f"indexing a non-array at {loc}")
            indices = [_as_int(c(I, S)) for c in index_cs]
            return value, indices
        return resolve

    def _leaf(self, expr: Expr):
        """Operand descriptor for inlining: ``('const', v)`` for a numeric
        literal, ``('slot', i)`` for a frame-resolved Ident, else None."""
        kind = type(expr)
        if kind is IntLit or kind is FloatLit:
            return ("const", expr.value)
        if kind is Ident and self.frame:
            slot = self.sc.resolve(expr.name)
            if self.sc.bound(slot):
                return ("slot", slot)
        return None

    def _lower_cond(self, expr: Expr) -> Callable:
        """Lower ``expr`` for a truth context (if/while/?:/!/&&/||).

        Comparisons skip the 0/1 materialisation and the ``_truthy`` call —
        the truth value of ``1 if l < r else 0`` is exactly ``l < r``.
        Anything else falls back to ``_truthy`` over the expression value.
        """
        kind = type(expr)
        if kind is Binary:
            op = expr.op
            if op in ("==", "!=", "<", "<=", ">", ">="):
                lleaf = self._leaf(expr.left)
                rleaf = self._leaf(expr.right)
                if lleaf is not None and rleaf is not None:
                    hot = _hot_cond(op, lleaf, rleaf)
                    if hot is not None:
                        return hot
                left_c = self.lower_expr(expr.left)
                right_c = self.lower_expr(expr.right)
                if op == "==":
                    return lambda I, S: left_c(I, S) == right_c(I, S)
                if op == "!=":
                    return lambda I, S: left_c(I, S) != right_c(I, S)
                if op == "<":
                    return lambda I, S: left_c(I, S) < right_c(I, S)
                if op == "<=":
                    return lambda I, S: left_c(I, S) <= right_c(I, S)
                if op == ">":
                    return lambda I, S: left_c(I, S) > right_c(I, S)
                return lambda I, S: left_c(I, S) >= right_c(I, S)
            if op == "&&":
                a = self._lower_cond(expr.left)
                b = self._lower_cond(expr.right)
                return lambda I, S: a(I, S) and b(I, S)
            if op == "||":
                a = self._lower_cond(expr.left)
                b = self._lower_cond(expr.right)
                return lambda I, S: a(I, S) or b(I, S)
        elif kind is Unary and expr.op == "!":
            inner = self._lower_cond(expr.operand)
            return lambda I, S: not inner(I, S)
        value_c = self.lower_expr(expr)
        return lambda I, S: _truthy(value_c(I, S))

    def _lower_binary(self, expr: Binary) -> Callable:
        op = expr.op
        if op == "&&":
            a = self._lower_cond(expr.left)
            b = self._lower_cond(expr.right)
            return lambda I, S: 1 if a(I, S) and b(I, S) else 0
        if op == "||":
            a = self._lower_cond(expr.left)
            b = self._lower_cond(expr.right)
            return lambda I, S: 1 if a(I, S) or b(I, S) else 0
        lleaf = self._leaf(expr.left)
        rleaf = self._leaf(expr.right)
        if lleaf is not None and rleaf is not None:
            hot = _hot_binary(op, lleaf, rleaf)
            if hot is not None:
                return hot
        left_c = self.lower_expr(expr.left)
        right_c = self.lower_expr(expr.right)
        # hand-specialised hot operators (identical to binary_value)
        if op == "+":
            return lambda I, S: left_c(I, S) + right_c(I, S)
        if op == "-":
            return lambda I, S: left_c(I, S) - right_c(I, S)
        if op == "*":
            return lambda I, S: left_c(I, S) * right_c(I, S)
        if op == "==":
            return lambda I, S: 1 if left_c(I, S) == right_c(I, S) else 0
        if op == "!=":
            return lambda I, S: 1 if left_c(I, S) != right_c(I, S) else 0
        if op == "<":
            return lambda I, S: 1 if left_c(I, S) < right_c(I, S) else 0
        if op == "<=":
            return lambda I, S: 1 if left_c(I, S) <= right_c(I, S) else 0
        if op == ">":
            return lambda I, S: 1 if left_c(I, S) > right_c(I, S) else 0
        if op == ">=":
            return lambda I, S: 1 if left_c(I, S) >= right_c(I, S) else 0
        combine = _op_fn(op, expr)
        return lambda I, S: combine(left_c(I, S), right_c(I, S))

    def _lower_unary(self, expr: Unary) -> Callable:
        op = expr.op
        operand_c = self.lower_expr(expr.operand)
        loc = expr.loc
        if op == "*":
            def run(I, S):
                array = _pointer_array(operand_c(I, S), loc)
                return array.get([array.lowers[0]])
            return run
        if op == "-":
            return lambda I, S: -operand_c(I, S)
        if op == "!":
            cond_c = self._lower_cond(expr.operand)
            return lambda I, S: 0 if cond_c(I, S) else 1
        if op == "~":
            return lambda I, S: ~int(operand_c(I, S))

        def run(I, S):  # pragma: no cover - mirrors the tree walker
            operand_c(I, S)
            raise AccRuntimeError(f"unknown unary operator {op!r} at {loc}")
        return run

    def _lower_cast(self, expr: Cast) -> Callable:
        operand_c = self.lower_expr(expr.operand)
        typ = expr.type
        if typ.pointer > 0:
            size = _SIZEOF.get(typ.base, 8)
            base = typ.base

            def run(I, S):
                value = operand_c(I, S)
                if isinstance(value, _MallocResult):
                    return ArrayValue((value.nbytes // size,), base)
                return value  # pointer-to-pointer casts are identity here
            return run
        base = typ.base

        def run(I, S):
            value = operand_c(I, S)
            if isinstance(value, _MallocResult):
                raise AccRuntimeError("malloc result used without pointer cast")
            return coerce_scalar(base, value)
        return run

    def _lower_call(self, expr: Call) -> Callable:
        name = expr.name
        loc = expr.loc
        # user functions take precedence (same resolution order as eval_call)
        fn = self.functions.get(name)
        if fn is not None:
            arg_cs = []
            for param, arg in zip(fn.params, expr.args):
                if self.language == "fortran" and isinstance(arg, Ident):
                    arg_cs.append(self._lower_byref_arg(arg))
                else:
                    arg_cs.append(self.lower_expr(arg))
            arg_cs = tuple(arg_cs)
            mismatch = len(expr.args) != len(fn.params)
            mismatch_msg = (
                f"{name}: expected {len(fn.params)} args, got {len(expr.args)}"
            )
            lowered_fns = self.lowered_fns
            if lowered_fns is not None and not mismatch:

                def run(I, S):
                    args = [c(I, S) for c in arg_cs]
                    lf = lowered_fns.get(name)
                    if lf is not None:
                        return invoke_function(I, lf, args)
                    return I.call_function(fn, args)
                return run

            def run(I, S):
                args = [c(I, S) for c in arg_cs]
                if mismatch:
                    raise AccRuntimeError(mismatch_msg)
                return I.call_function(fn, args)
            return run

        handler = _BUILTINS.get(name)
        if handler is not None:
            arg_cs = tuple(self.lower_expr(a) for a in expr.args)

            def run(I, S):
                return handler(I, [c(I, S) for c in arg_cs], expr)
            return run

        def run(I, S):
            raise AccRuntimeError(f"call to unknown function {name!r} at {loc}")
        return run

    def _lower_byref_arg(self, arg: Ident) -> Callable:
        """A Fortran bare-variable argument: pass the Cell by reference."""
        name = arg.name
        loc = arg.loc
        getter = self._cell_ref(name)

        def run(I, S):
            cell = getter(I, S)
            if cell is None:
                raise AccRuntimeError(f"undefined variable {name!r} at {loc}")
            return cell
        return run


def _cell_array(cell: Optional[Cell], name: str, loc) -> ArrayValue:
    """The array a named cell holds (a device pointer viewed with the
    cell's element type); the tree walker's checks and messages."""
    if cell is None:
        raise AccRuntimeError(f"undefined array {name!r} at {loc}")
    value = cell.value
    if isinstance(value, DevicePointer):
        elem = cell.type.base if cell.type is not None else "int"
        value = value.as_array(elem)
    if not isinstance(value, ArrayValue):
        raise AccRuntimeError(f"variable {name!r} is not an array at {loc}")
    return value


def _pointer_array(value, loc) -> ArrayValue:
    if isinstance(value, DevicePointer):
        return value.as_array("int")
    if isinstance(value, ArrayValue):
        return value
    raise AccRuntimeError(f"dereference of a non-pointer at {loc}")
