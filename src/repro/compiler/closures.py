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

Two lowering tiers, one name-resolution model (slot frames):

* **Host frames** — function bodies.  A compile-time lexical resolver
  mirrors exactly where the tree walker would create ``env.child()``
  scopes and assigns every declaration site a distinct integer slot in a
  flat per-call frame (a plain Python list).  Name uses become ``S[slot]``
  loads; unresolved names fall through to ``I.globals`` — correct because
  local scopes can only ever contain parameters, ``DeclStmt`` declarations
  and loop variables (implicit assignment targets are defined at global
  scope, and :class:`~repro.compiler.exec_model.AccExecutor` never defines
  into an env it was handed, only into children it creates).  Global
  declarations lower the same way over an empty scope.

* **Device frames** — compute-region bodies, lowered on a region's first
  entry against its :class:`~repro.compiler.exec_model.ComputePlan`.  The
  frame's root scope has a slot for every name the region can mention;
  region entry fills it from the mapped cells, and gang, lane and
  iteration privatisation write slots instead of building Env chains.  A
  root slot the region does not bind stays None and reads as an undefined
  variable, as the region's parentless Env chain would.

Every OpenACC statement is lowered to a *construct site*: the lexical view
of its frame plus everything the executor may evaluate or run there — its
directive's clause expressions and section bounds (and, on a host frame,
the section bounds of the function's pending ``declare`` directives), the
start, bound and step of its ``loop``'s collapse chain, its lanes at each
collapse depth, and its scoped body (a ``data``/``host_data`` body, the
host run of an if(false) compute region, or a loop's sequential run).  The
executor receives a :class:`FrameEnv`, an Env face over the live frame
seen from the site, and evaluates and runs only through the site's
closures; a closure the site lacks is a lowering bug and raises.  Work it
defers (an async region or update) must not see the frame move on, so it
snapshots the FrameEnv with ``child()``: a FrameEnv over a copy of the
frame list, which keeps the same cells (bindings, not values).

The hard constraint is observable equivalence with the reference tree
walker (``tests/treewalk.py``): step accounting, error strings (they
appear in suite reports) and evaluation order are mirrored exactly;
``tests/test_closures.py`` enforces identical :class:`ExecutionResult`
values over the full shipped corpus.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set,
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
# compile-time scope resolver
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

    def __init__(self, names: Optional[Dict[str, int]] = None,
                 unbound: Sequence[int] = (), nslots: int = 0) -> None:
        self._stack: List[Dict[str, int]] = [dict(names or {})]
        self.nslots = nslots
        #: slots that may hold None at runtime: in a device frame, names the
        #: region's scope chain may not bind (a use of one is an undefined
        #: variable, exactly as the chain walk would find)
        self.unbound: Set[int] = set(unbound)

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

    def visible(self) -> Dict[str, int]:
        """All visible name -> slot bindings, inner scopes shadowing outer."""
        merged: Dict[str, int] = {}
        for scope in self._stack:
            merged.update(scope)
        return merged


# ---------------------------------------------------------------------------
# lowered artifacts
# ---------------------------------------------------------------------------


class LoweredFunction:
    """One function body lowered to a frame-based closure."""

    __slots__ = ("fn", "nslots", "param_slots", "entry", "body")

    def __init__(self, fn: Function, nslots: int, param_slots: List[int],
                 entry: "_Site", body: Callable):
        self.fn = fn
        self.nslots = nslots
        self.param_slots = param_slots
        #: the site of function entry, where pending declares first resolve
        self.entry = entry
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
    I.acc.enter_function(fn, FrameEnv(frame, lowered.entry, I.globals))
    try:
        lowered.body(I, frame)
        result: object = 0
    except ReturnSignal as signal:
        result = signal.value if signal.value is not None else 0
    finally:
        I.acc.exit_function(fn)
    return result


# ---------------------------------------------------------------------------
# construct sites and device frames (compute-region bodies)
# ---------------------------------------------------------------------------


class _Site:
    """The lexical view of a slot frame at one OpenACC statement, with
    everything the executor may evaluate or run there."""

    __slots__ = ("names", "exprs", "lanes", "scoped", "lower_scoped")

    def __init__(self, names: Dict[str, int],
                 exprs: Optional[Dict[int, Callable]] = None):
        #: the visible name -> slot bindings
        self.names = names
        #: id(expr) -> closure: the clause expressions, section bounds and
        #: collapse-chain bounds the executor evaluates at this site.  No
        #: key can be recycled: the code holding the site also holds its
        #: statement (or function), from which every keyed node is reachable
        self.exprs = exprs if exprs is not None else {}
        #: collapse depth -> lowered lane body (``loop`` sites)
        self.lanes: Dict[int, _ScopedCode] = {}
        #: the lowered body the executor runs in a scope of its own: a
        #: ``data``/``host_data`` body, the host run of an if(false)
        #: compute region, or a loop's sequential run
        self.scoped: Optional[_ScopedCode] = None
        #: builds ``scoped`` on first use where it seldom runs (a device
        #: loop's sequential run), given the frame's length
        self.lower_scoped: Optional[Callable[[int], _ScopedCode]] = None


class FrameEnv:
    """A slot frame seen from one site, with the face of an :class:`Env`
    the executor needs: ``lookup`` for clause operands, reduction targets
    and private shapes; ``child`` for a snapshot; and the site's lowered
    closures.

    ``parent`` is the globals for a host frame and None for a device
    frame, whose scope chain ends at the region.  A FrameEnv reads the
    frame live, so the executor snapshots it with ``child()`` before it
    defers work.
    """

    __slots__ = ("slots", "site", "parent")

    def __init__(self, slots: List[Optional[Cell]], site: _Site,
                 parent: Optional[Env] = None):
        self.slots = slots
        self.site = site
        self.parent = parent

    def lookup(self, name: str) -> Optional[Cell]:
        slot = self.site.names.get(name)
        if slot is not None:
            cell = self.slots[slot]
            if cell is not None:
                return cell
        return self.parent.lookup(name) if self.parent is not None else None

    def child(self) -> "FrameEnv":
        """A snapshot for deferred work: the same site over a copy of the
        frame list, so it keeps today's cells (bindings, not values)."""
        return FrameEnv(self.slots[:], self.site, self.parent)

    def eval(self, I, expr: Expr):
        """Evaluate one of the site's clause or loop-bound expressions."""
        code = self.site.exprs.get(id(expr))
        if code is None:
            raise _missing("expression", expr)
        return code(I, self.slots)

    def lane(self, depth: int) -> "_ScopedCode":
        code = self.site.lanes.get(depth)
        if code is None:
            raise _missing(f"lane at collapse depth {depth}", None)
        return code

    def run_scoped(self, I, defs: Dict[str, Cell]) -> None:
        """Run the site's scoped body with ``defs`` bound."""
        site = self.site
        code = site.scoped
        if code is None:
            if site.lower_scoped is None:
                raise _missing("scoped body", None)
            # the site is shared across threads: racing first uses each
            # build an equal body, and the last one stored is kept
            code = site.scoped = site.lower_scoped(len(self.slots))
        code.bind(self.slots, defs)
        code.body(I, self.slots)


def _missing(what: str, node) -> RuntimeError:
    """The error for a closure a site lacks: a lowering bug, never a
    simulated-program failure."""
    where = f" at {node.loc}" if node is not None else ""
    return RuntimeError(f"lowering bug: construct site has no {what}{where}")


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
            lowerer = _Lowerer(program, plans=plans)
            self.functions[fn.name] = lowerer.lower_function(fn)
        #: one definer per global declaration, in order, each ``f(I)``
        lowerer = _Lowerer(program, plans=plans)
        self.globals = tuple(lowerer.lower_global(decl)
                             for decl in program.globals)

    def region_code(self, plan: ComputePlan) -> RegionCode:
        """The plan's region body lowered to a device frame, built on the
        region's first entry and kept on the plan, so it lives as long as
        the plan and serves every lowering that shares the plans.  It
        therefore holds nothing of this lowering: user calls inside the
        region resolve through the running interpreter (``I.lowered``),
        as every call site does."""
        code = plan.device_code
        if code is None:
            lowerer = _Lowerer(self.program, plans=self.plans, device=True)
            code = lowerer.lower_region(plan)
            plan.device_code = code
        return code


def lower_program(program: Program,
                  plans: Optional[Dict[int, tuple]] = None) -> LoweredProgram:
    """Lower every function and global declaration of ``program`` into
    closures over slot frames.  Pure: safe to share and reuse.

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
    """Lowers statements/expressions to closures over ``(I, S)``, where
    ``S`` is a slot frame and names are resolved at lowering time."""

    def __init__(self, program: Program,
                 plans: Optional[Dict[int, tuple]] = None,
                 device: bool = False):
        self.program = program
        self.language = program.language
        self.functions = {fn.name: fn for fn in program.functions}
        self.sc = _FrameScope()
        self.plans = plans
        #: a device frame: the scope chain ends at the region (no globals)
        self.device = device
        #: lowering code that runs only sequentially: an if(false)
        #: region's host run, a loop's sequential run.  A ``loop`` there
        #: never runs lanes
        self.host_run = False
        #: the ``declare`` directives of the function being lowered: the
        #: executor resolves them at every host site of the function
        self.declares: Sequence = ()

    # -------------------------------------------------------------- function

    def lower_function(self, fn: Function) -> LoweredFunction:
        sc = self.sc
        param_slots = [sc.declare(p.name) for p in fn.params]
        self.declares = fn.declares
        entry = _Site(sc.visible(), self._lower_site_exprs(()))
        # the function body block gets no step bump (exec_block has none)
        body = self._lower_block_body(fn.body)
        return LoweredFunction(
            fn=fn, nslots=sc.nslots, param_slots=param_slots,
            entry=entry, body=body,
        )

    def lower_global(self, decl: VarDecl) -> Callable:
        """``f(I)`` defining one global declaration into ``I.globals``:
        lowered over an empty scope, every name it reads resolves there."""
        make = self._decl_value(decl)
        name, typ = decl.name, decl.type

        def define(I):
            I.globals.define(name, Cell(make(I, []), type=typ, name=name))
        return define

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
        """One declaration into a fresh slot; mirrors the tree walker's
        ``_declare`` exactly."""
        make = self._decl_value(decl)
        name, typ = decl.name, decl.type
        # declare *after* lowering the initialiser: an init referencing the
        # same name sees the outer binding, as at runtime
        slot = self.sc.declare(name)

        def run(I, S):
            S[slot] = Cell(make(I, S), type=typ, name=name)
        return run

    def _decl_value(self, decl: VarDecl) -> Callable:
        """``make(I, S)``: the initial value of a declared variable."""
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
                    value.fill(init_c(I, S))
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
        return make

    def _lower_assign(self, stmt: Assign) -> Callable:
        value_c = self.lower_expr(stmt.value)
        target = stmt.target
        loc = stmt.loc
        combine = _op_fn(stmt.op, stmt) if stmt.op else None

        if isinstance(target, Ident):
            name = target.name
            slot = self.sc.resolve(name)
            if combine is None and self.sc.bound(slot):
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

    def _lower_while(self, stmt: While) -> Callable:
        cond_c = self._lower_cond(stmt.cond)
        loc = stmt.loc
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
        """The loop itself, without the statement-node step bump (also a
        loop site's sequential run, which the tree walker's ``exec_for``
        likewise runs without a node bump)."""
        start_c = self.lower_expr(loop.start)
        bound_c = self.lower_expr(loop.bound)
        step_c = self.lower_expr(loop.step)
        inclusive = loop.inclusive
        var = loop.var
        loc = loop.loc

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
        device = self.device
        site = self._construct_site(stmt)

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            getattr(I.acc, method)(
                stmt, FrameEnv(S, site, None if device else I.globals))
        return run

    def _construct_site(self, stmt: Stmt) -> _Site:
        """What the executor may evaluate or run for ``stmt`` on this
        frame: its clause expressions, and its loop bounds, lanes and
        sequential run (loops) or its scoped body (constructs)."""
        site = _Site(self.sc.visible(), self._lower_site_exprs(
            (stmt.directive,)))
        kind = stmt.directive.kind
        if isinstance(stmt, AccLoop):
            if kind == "loop" and not self.host_run:
                # lanes (on a host frame too, for a 2.0 routine that runs
                # the loop inside a region)
                self._lower_loop_site(stmt, site)
            if kind == "loop" and self.device and not self.host_run:
                # a device loop runs sequentially only when the behaviour
                # ignores its directive: lowered on first use
                site.lower_scoped = self._sequential_run_later(stmt.loop,
                                                               site.names)
            else:
                # the sequential run: an orphaned loop, an if(false)
                # combined construct
                site.scoped = _ScopedCode((), self._lower_host_run(
                    lambda: self.lower_for_core(stmt.loop)))
        elif isinstance(stmt, AccConstruct):
            if kind in ("data", "host_data"):
                # a scope holding the names deviceptr/use_device may rebind
                clause = "deviceptr" if kind == "data" else "use_device"
                names = dict.fromkeys(
                    n for c in stmt.directive.clauses_named(clause)
                    for n in c.var_names)
                site.scoped = self._lower_scoped(names, set(), stmt.body)
            else:
                # the host run of an if(false) compute region
                site.scoped = self._lower_host_run(
                    lambda: self._lower_scoped((), set(), stmt.body))
        return site

    def _lower_site_exprs(self, directives) -> Dict[int, Callable]:
        """id(expr) -> closure over this scope for every clause expression
        and section bound of ``directives`` — and, on a host frame, of the
        function's ``declare`` directives, which the executor resolves
        (while pending) at every host site."""
        if not self.device:
            directives = tuple(directives) + tuple(self.declares)
        exprs: Dict[int, Callable] = {}
        for directive in directives:
            for clause in directive.clauses:
                found = [clause.expr]
                for ref in clause.refs:
                    if ref.sections:
                        section = ref.sections[0]
                        found += (section.start, section.length)
                for expr in found:
                    if expr is not None:
                        exprs[id(expr)] = self.lower_expr(expr)
        return exprs

    def _sequential_run_later(self, loop: For, names: Dict[str, int]):
        """``lower(nslots)``: ``loop``'s sequential run on a device frame
        of ``nslots`` slots, lowered over the scope it has here (``names``)
        as a host run.  Its own slots follow the frame's, so it runs on a
        copy of the frame extended by them: every slot it writes is its
        own, and every cell it reads is the frame's.  The builder holds
        the program, never the plans, which hold this site."""
        program, unbound = self.program, self.sc.unbound

        def lower(nslots: int) -> _ScopedCode:
            lowerer = _Lowerer(program, device=True)
            lowerer.sc = _FrameScope(names, unbound, nslots)
            lowerer.host_run = True
            body = lowerer.lower_for_core(loop)
            pad = [None] * (lowerer.sc.nslots - nslots)

            def run(I, S):
                body(I, S + pad)
            return _ScopedCode((), run)
        return lower

    def _lower_host_run(self, lower: Callable):
        """``lower()`` with ``host_run`` set."""
        outer, self.host_run = self.host_run, True
        code = lower()
        self.host_run = outer
        return code

    def _lower_loop_site(self, stmt: AccLoop, site: _Site) -> None:
        """Lower a ``loop``'s collapse-chain bounds (evaluated at the site)
        and its lane bodies: for no collapse, and for its constant
        ``collapse(N)`` if it has one — or for every depth of its loop nest
        when the count is computed."""
        # imported here, like the executor itself (repro.compiler.interp),
        # so importing the package does not load the execution model
        from repro.compiler.exec_model import LoopPlan, plan_for

        plan = plan_for(self.plans, stmt, LoopPlan)
        for loop in plan.chain:
            for expr in (loop.start, loop.bound, loop.step):
                site.exprs[id(expr)] = self.lower_expr(expr)
        depths = [1]
        clause = plan.collapse
        if clause is not None and not isinstance(clause.expr, IntLit):
            depths = range(1, len(plan.chain) + 1)
        elif clause is not None and 1 < clause.expr.value <= len(plan.chain):
            depths.append(clause.expr.value)
        reductions = [name for _op, name in plan.reductions]
        lanes = site.lanes
        for depth in depths:
            loop_vars = [l.var for l in plan.chain[:depth]]
            # privates may be ignored by the behaviour; the executor
            # always binds reductions and loop variables
            lanes[depth] = self._lower_scoped(
                dict.fromkeys(plan.private_names + reductions + loop_vars),
                set(reductions + loop_vars), plan.chain[depth - 1].body,
                child=True)

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

    def _lower_ident(self, expr: Ident) -> Callable:
        name = expr.name
        loc = expr.loc
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

    def _slot_index(self, expr: Index):
        """``(slot, index closure, name, loc)`` for the hot shape ``a[i]``
        with ``a`` in a frame slot whose lookup is just the slot; else
        None.  Such accesses skip the getter call and the index list build
        but keep every check, in order."""
        base = expr.base
        if not (isinstance(base, Ident) and len(expr.indices) == 1):
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
        if kind is Ident:
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

            # the callee resolves through the running interpreter's
            # lowering: a call site holding its lowering's function table
            # would be held by it, a reference cycle; and region code,
            # shared by every lowering of the parse, must hold no lowering
            def run(I, S):
                args = [c(I, S) for c in arg_cs]
                if mismatch:
                    raise AccRuntimeError(mismatch_msg)
                return invoke_function(I, I.lowered.functions[name], args)
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
