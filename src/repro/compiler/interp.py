"""AST interpreter (host execution engine).

Executes a :class:`repro.ir.Program` against a simulated
:class:`~repro.accsim.machine.Machine`.  All OpenACC construct statements are
delegated to an :class:`~repro.compiler.exec_model.AccExecutor`, which owns
the device-side execution model; everything else here is ordinary dynamic
evaluation with C/Fortran numeric semantics:

* integer division truncates toward zero (both languages);
* ``&&`` / ``||`` short-circuit; comparisons yield int 0/1;
* Fortran ``**`` supported; scalar assignment coerces to the declared type;
* C arrays pass by reference (shared ArrayValue), scalars by value;
  Fortran passes by reference whenever the argument is a bare variable.

Execution is bounded by a step budget so the harness can classify runaway
programs as the paper's "executes forever" runtime error class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.machine import Machine
from repro.accsim.runtime import AccRuntime
from repro.accsim.device import ExecProfile
from repro.accsim.values import ArrayValue, Cell, DevicePointer, coerce_scalar
from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR
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
)
from repro.spec.devices import (
    ACC_DEVICE_DEFAULT,
    ACC_DEVICE_HOST,
    ACC_DEVICE_NONE,
    ACC_DEVICE_NOT_HOST,
    VENDOR_DEVICE_TYPES,
    DeviceType,
    device_type_by_name,
)


# ---------------------------------------------------------------------------
# control-flow signals
# ---------------------------------------------------------------------------


#: interpreter execution backends: the closure-compilation backend (see
#: repro.compiler.closures), the production path, and the reference tree
#: walker, kept as the differential oracle tests check it against
BACKENDS = ("tree", "closures")
#: the backend every entry point runs unless told otherwise
DEFAULT_BACKEND = "closures"


class InterpreterReuseError(RuntimeError):
    """``run()`` called again on an interpreter that cannot be reset.

    Deliberately *not* an :class:`AccRuntimeError`: reusing an interpreter
    over a caller-supplied machine is a harness programming error, never a
    simulated-program crash, so it must not be classified as one.
    """


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


class ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__()


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class Env:
    """Lexically chained name -> Cell map."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Env"] = None):
        self.vars: Dict[str, Cell] = {}
        self.parent = parent

    def define(self, name: str, cell: Cell) -> Cell:
        self.vars[name] = cell
        return cell

    def lookup(self, name: str) -> Optional[Cell]:
        env: Optional[Env] = self
        while env is not None:
            cell = env.vars.get(name)
            if cell is not None:
                return cell
            env = env.parent
        return None

    def child(self) -> "Env":
        return Env(parent=self)


# ---------------------------------------------------------------------------
# results / limits
# ---------------------------------------------------------------------------


@dataclass
class ExecutionLimits:
    max_steps: int = 2_000_000


@dataclass
class ExecutionResult:
    value: int
    output: List[str] = field(default_factory=list)
    steps: int = 0
    kernels_launched: int = 0
    #: execution profile (repro.obs): data-clause traffic and async-queue
    #: behaviour summed over all devices of the run's machine
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    queue_waits: int = 0
    queue_max_pending: int = 0


# ---------------------------------------------------------------------------
# interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    def __init__(
        self,
        program: Program,
        behavior: CompilerBehavior = REFERENCE_BEHAVIOR,
        machine: Optional[Machine] = None,
        env_vars: Optional[Dict[str, str]] = None,
        rng_seed: int = 12345,
        backend: str = DEFAULT_BACKEND,
        lowered=None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown interpreter backend {backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        self.program = program
        self.behavior = behavior
        self.backend = backend
        if backend == "closures":
            from repro.compiler.closures import invoke_function, lower_program

            if lowered is None:
                lowered = lower_program(program)
            self._lowered = lowered
            self._invoke = invoke_function
            #: static construct plans (see AccExecutor): the lowering's,
            #: so they are shared by every run of it and, through the
            #: compiled program, by every behaviour compiled from its parse
            self.plans = lowered.plans
        else:
            self._lowered = None
            self._invoke = None
            self.plans = {}
        self._env_vars = dict(env_vars) if env_vars else None
        self._rng_seed = rng_seed
        self._owns_machine = machine is None
        if machine is None:
            machine = self._fresh_machine()
        self._attach_machine(machine)

        self.output: List[str] = []
        self.steps = 0
        self.limits = ExecutionLimits()
        #: hot-path mirror of ``limits.max_steps`` (one attribute hop instead
        #: of two in every statement's step-budget check)
        self._max_steps = self.limits.max_steps
        self._rng_state = rng_seed
        self.globals = Env()
        self._install_constants()
        self._user_functions = {fn.name: fn for fn in program.functions}
        self._has_run = False

    def _fresh_machine(self) -> Machine:
        behavior = self.behavior
        return Machine(
            accel_count=1,
            accel_device_type=behavior.concrete_device_type,
            profile=ExecProfile(
                default_num_gangs=behavior.default_num_gangs,
                default_num_workers=behavior.default_num_workers,
                default_vector_length=behavior.default_vector_length,
                worker_ignored=behavior.worker_ignored,
                mapping=behavior.mapping_description,
            ),
        )

    def _attach_machine(self, machine: Machine) -> None:
        from repro.compiler.exec_model import AccExecutor  # cycle-free import

        self.machine = machine
        self.acc = AccExecutor(self)
        self.runtime = AccRuntime(machine, hooks=self.acc)
        if self._env_vars:
            from repro.accsim.envvars import apply_environment

            apply_environment(machine, self._env_vars)

    # ------------------------------------------------------------------ run

    def run(self, entry: str = "main", limits: Optional[ExecutionLimits] = None) -> ExecutionResult:
        """Execute ``entry`` and return the run's :class:`ExecutionResult`.

        ``run()`` is reuse-safe: every call executes on per-run state reset
        to how ``__init__`` left it (fresh globals, output, RNG, machine and
        device counters).  The exception is an interpreter constructed over
        a *caller-supplied* machine — that machine's counters cannot be
        rebuilt here, so a second ``run()`` raises
        :class:`InterpreterReuseError` instead of silently double-counting
        ``bytes_to_device``/``kernels_launched``.
        """
        if limits is not None:
            self.limits = limits
        self._max_steps = self.limits.max_steps
        if self._has_run:
            if not self._owns_machine:
                raise InterpreterReuseError(
                    "Interpreter.run() called twice over a caller-supplied "
                    "machine: its device counters cannot be reset, so the "
                    "second result would double-count data traffic and "
                    "kernel launches; build a new Interpreter instead"
                )
            self._attach_machine(self._fresh_machine())
            self.output = []
            self._rng_state = self._rng_seed
            self.globals = Env()
            self._install_constants()
        self._has_run = True
        self.steps = 0
        for decl in self.program.globals:
            self._declare(decl, self.globals)
        fn = self.program.function(entry)
        try:
            value = self.call_function(fn, [])
        finally:
            # flush async work so observability counters are stable
            for dev in [self.machine.host] + self.machine.accelerators:
                dev.queues.wait_all()
        kernels = sum(d.kernels_launched for d in self.machine.accelerators)
        devices = [self.machine.host] + self.machine.accelerators
        return ExecutionResult(
            value=_as_int(value),
            output=self.output,
            steps=self.steps,
            kernels_launched=kernels,
            bytes_to_device=sum(d.memory.bytes_to_device for d in devices),
            bytes_to_host=sum(d.memory.bytes_to_host for d in devices),
            queue_waits=sum(d.queues.waits for d in devices),
            queue_max_pending=max(d.queues.max_pending for d in devices),
        )

    # ----------------------------------------------------------- functions

    def call_function(self, fn: Function, args: Sequence[object]) -> object:
        if self._lowered is not None:
            lowered_fn = self._lowered.functions.get(fn.name)
            if lowered_fn is not None:
                return self._invoke(self, lowered_fn, args)
        env = self.globals.child()
        if len(args) != len(fn.params):
            raise AccRuntimeError(
                f"{fn.name}: expected {len(fn.params)} arguments, got {len(args)}"
            )
        for param, arg in zip(fn.params, args):
            if isinstance(arg, Cell):
                env.define(param.name, arg)  # by-reference (Fortran)
            else:
                env.define(param.name, Cell(arg, type=param.type, name=param.name))
        self.acc.enter_function(fn, env)
        try:
            self.exec_block(fn.body, env)
            result: object = 0
        except ReturnSignal as signal:
            result = signal.value if signal.value is not None else 0
        finally:
            self.acc.exit_function(fn)
        return result

    # ----------------------------------------------------------- statements

    def exec_stmt(self, stmt: Stmt, env: Env) -> None:
        if self._lowered is not None:
            self._lowered.stmt_closure(stmt)(self, env)
            return
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise ExecutionTimeout(
                f"step budget {self.limits.max_steps} exceeded at {stmt.loc}"
            )

        kind = type(stmt)
        if kind is Block:
            self.exec_block(stmt, env)
        elif kind is DeclStmt:
            for decl in stmt.decls:
                self._declare(decl, env)
        elif kind is Assign:
            self.exec_assign(stmt, env)
        elif kind is ExprStmt:
            self.eval(stmt.expr, env)
        elif kind is If:
            if _truthy(self.eval(stmt.cond, env)):
                self.exec_stmt(stmt.then, env.child())
            elif stmt.other is not None:
                self.exec_stmt(stmt.other, env.child())
        elif kind is For:
            self.exec_for(stmt, env)
        elif kind is While:
            while _truthy(self.eval(stmt.cond, env)):
                self.steps += 1
                if self.steps > self.limits.max_steps:
                    raise ExecutionTimeout(f"step budget exceeded at {stmt.loc}")
                try:
                    self.exec_stmt(stmt.body, env.child())
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        elif kind is Return:
            value = self.eval(stmt.value, env) if stmt.value is not None else None
            raise ReturnSignal(value)
        elif kind is Break:
            raise BreakSignal()
        elif kind is Continue:
            raise ContinueSignal()
        elif kind is AccConstruct:
            self.acc.exec_construct(stmt, env)
        elif kind is AccLoop:
            self.acc.exec_acc_loop(stmt, env)
        elif kind is AccStandalone:
            self.acc.exec_standalone(stmt, env)
        else:  # pragma: no cover - parser produces no other kinds
            raise AccRuntimeError(f"cannot execute statement {kind.__name__}")

    def exec_block(self, block: Block, env: Env) -> None:
        scope = env.child()
        for stmt in block.stmts:
            self.exec_stmt(stmt, scope)

    def exec_for(self, loop: For, env: Env) -> None:
        """Execute a canonical counted loop sequentially."""
        if self._lowered is not None:
            self._lowered.for_closure(loop)(self, env)
            return
        scope = env.child()
        cell = scope.lookup(loop.var)
        if cell is None:
            cell = scope.define(loop.var, Cell(0, name=loop.var))
        for i in self.iteration_values(loop, env):
            self.steps += 1
            if self.steps > self.limits.max_steps:
                raise ExecutionTimeout(f"step budget exceeded at {loop.loc}")
            cell.value = i
            try:
                self.exec_stmt(loop.body, scope.child())
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def iteration_values(self, loop: For, env: Env) -> range:
        """The iteration-variable value sequence of a canonical loop.

        Returned as a lazy ``range`` — a huge trip count must cost O(1)
        memory here so the step budget (not the allocator) is what stops a
        runaway loop.
        """
        start = _as_int(self.eval(loop.start, env))
        bound = _as_int(self.eval(loop.bound, env))
        step = _as_int(self.eval(loop.step, env))
        if step == 0:
            raise AccRuntimeError(f"zero loop step at {loop.loc}")
        if step > 0:
            stop = bound + 1 if loop.inclusive else bound
        else:
            stop = bound - 1 if loop.inclusive else bound
        return range(start, stop, step)

    def exec_assign(self, stmt: Assign, env: Env) -> None:
        value = self.eval(stmt.value, env)
        target = stmt.target
        if isinstance(target, Ident):
            cell = env.lookup(target.name)
            if cell is None:
                # C tolerates assignment to undeclared only via globals in
                # generated code; treat as implicit int definition at global
                # scope to be forgiving for template-authored helpers.
                cell = self.globals.define(target.name, Cell(0, name=target.name))
            if stmt.op:
                value = self._binary_value(stmt.op, _cell_scalar(cell), value, stmt)
            base = cell.type.base if cell.type is not None and cell.type.pointer == 0 else None
            if isinstance(value, (int, float)) and not isinstance(cell.value, (ArrayValue, DevicePointer)):
                cell.value = coerce_scalar(base, value)
            else:
                cell.value = value
        elif isinstance(target, Index):
            array, indices = self._resolve_index(target, env)
            if stmt.op:
                value = self._binary_value(stmt.op, array.get(indices), value, stmt)
            array.set(indices, value)
        elif isinstance(target, Unary) and target.op == "*":
            pointee = self.eval(target.operand, env)
            array = self._pointer_array(pointee, target)
            if stmt.op:
                value = self._binary_value(stmt.op, array.get([array.lowers[0]]), value, stmt)
            array.set([array.lowers[0]], value)
        else:
            raise AccRuntimeError(f"invalid assignment target at {stmt.loc}")

    # ---------------------------------------------------------- expressions

    def eval(self, expr: Expr, env: Env):
        if self._lowered is not None:
            return self._lowered.expr_closure(expr)(self, env)
        kind = type(expr)
        if kind is IntLit:
            return expr.value
        if kind is FloatLit:
            return expr.value
        if kind is StringLit:
            return expr.value
        if kind is Ident:
            return self._eval_ident(expr, env)
        if kind is Index:
            array, indices = self._resolve_index(expr, env)
            return array.get(indices)
        if kind is Binary:
            return self._eval_binary(expr, env)
        if kind is Unary:
            return self._eval_unary(expr, env)
        if kind is Conditional:
            if _truthy(self.eval(expr.cond, env)):
                return self.eval(expr.then, env)
            return self.eval(expr.other, env)
        if kind is Call:
            return self.eval_call(expr, env)
        if kind is Cast:
            return self._eval_cast(expr, env)
        raise AccRuntimeError(f"cannot evaluate expression {kind.__name__}")

    def _eval_ident(self, expr: Ident, env: Env):
        cell = env.lookup(expr.name)
        if cell is None:
            raise AccRuntimeError(f"undefined variable {expr.name!r} at {expr.loc}")
        return cell.value

    def _eval_binary(self, expr: Binary, env: Env):
        op = expr.op
        if op == "&&":
            return 1 if (_truthy(self.eval(expr.left, env)) and _truthy(self.eval(expr.right, env))) else 0
        if op == "||":
            return 1 if (_truthy(self.eval(expr.left, env)) or _truthy(self.eval(expr.right, env))) else 0
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        return self._binary_value(op, left, right, expr)

    def _binary_value(self, op: str, left, right, node):
        return binary_value(op, left, right, node)

    def _eval_unary(self, expr: Unary, env: Env):
        if expr.op == "*":
            pointee = self.eval(expr.operand, env)
            array = self._pointer_array(pointee, expr)
            return array.get([array.lowers[0]])
        value = self.eval(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if _truthy(value) else 1
        if expr.op == "~":
            return ~int(value)
        raise AccRuntimeError(f"unknown unary operator {expr.op!r} at {expr.loc}")

    def _eval_cast(self, expr: Cast, env: Env):
        value = self.eval(expr.operand, env)
        if expr.type.pointer > 0:
            # (T*)malloc(nbytes) / (T*)acc_malloc(nbytes)
            if isinstance(value, _MallocResult):
                size = _SIZEOF.get(expr.type.base, 8)
                count = value.nbytes // size
                return ArrayValue((count,), expr.type.base)
            return value  # pointer-to-pointer casts are identity here
        if isinstance(value, _MallocResult):
            raise AccRuntimeError("malloc result used without pointer cast")
        return coerce_scalar(expr.type.base, value)

    def _resolve_index(self, expr: Index, env: Env):
        """Resolve an Index node to (ArrayValue, concrete indices)."""
        base = expr.base
        if isinstance(base, Ident):
            cell = env.lookup(base.name)
            if cell is None:
                raise AccRuntimeError(f"undefined array {base.name!r} at {expr.loc}")
            value = cell.value
            if isinstance(value, DevicePointer):
                elem = cell.type.base if cell.type is not None else "int"
                value = value.as_array(elem)
            if not isinstance(value, ArrayValue):
                raise AccRuntimeError(
                    f"variable {base.name!r} is not an array at {expr.loc}"
                )
            indices = [_as_int(self.eval(ix, env)) for ix in expr.indices]
            return value, indices
        value = self.eval(base, env)
        if isinstance(value, DevicePointer):
            value = value.as_array("int")
        if not isinstance(value, ArrayValue):
            raise AccRuntimeError(f"indexing a non-array at {expr.loc}")
        indices = [_as_int(self.eval(ix, env)) for ix in expr.indices]
        return value, indices

    def _pointer_array(self, value, node) -> ArrayValue:
        if isinstance(value, DevicePointer):
            return value.as_array("int")
        if isinstance(value, ArrayValue):
            return value
        raise AccRuntimeError(f"dereference of a non-pointer at {node.loc}")

    # ---------------------------------------------------------------- calls

    def eval_call(self, expr: Call, env: Env):
        name = expr.name
        # user functions take precedence except inside compute regions,
        # where exec_model vets them during region analysis
        fn = self._user_functions.get(name)
        if fn is not None:
            args = []
            for param, arg in zip(fn.params, expr.args):
                if (
                    self.program.language == "fortran"
                    and isinstance(arg, Ident)
                ):
                    cell = env.lookup(arg.name)
                    if cell is None:
                        raise AccRuntimeError(
                            f"undefined variable {arg.name!r} at {arg.loc}"
                        )
                    args.append(cell)
                elif isinstance(arg, Ident) and isinstance(
                    _maybe_cell_value(env, arg.name), (ArrayValue, DevicePointer)
                ):
                    args.append(self.eval(arg, env))
                else:
                    args.append(self.eval(arg, env))
            if len(expr.args) != len(fn.params):
                raise AccRuntimeError(
                    f"{name}: expected {len(fn.params)} args, got {len(expr.args)}"
                )
            return self.call_function(fn, args)
        handler = _BUILTINS.get(name)
        if handler is not None:
            args = [self.eval(a, env) for a in expr.args]
            return handler(self, args, expr)
        raise AccRuntimeError(f"call to unknown function {name!r} at {expr.loc}")

    # -------------------------------------------------------- declarations

    def _declare(self, decl: VarDecl, env: Env) -> Cell:
        if decl.dims:
            shape = [_as_int(self.eval(d, env)) for d in decl.dims]
            lowers = [
                (_as_int(self.eval(l, env)) if l is not None else _default_lower(self.program.language))
                for l in (decl.lowers or [None] * len(shape))
            ]
            value: object = ArrayValue(shape, decl.type.base, lowers)
            if decl.init is not None:
                fill = self.eval(decl.init, env)
                value.data.fill(fill)
        elif decl.type.pointer > 0:
            value = self.eval(decl.init, env) if decl.init is not None else None
        else:
            if decl.init is not None:
                value = coerce_scalar(decl.type.base, self.eval(decl.init, env))
            else:
                value = coerce_scalar(decl.type.base, 0)
        return env.define(decl.name, Cell(value, type=decl.type, name=decl.name))

    # ------------------------------------------------------------- builtins

    def _install_constants(self) -> None:
        for dt_name in (
            "acc_device_none",
            "acc_device_default",
            "acc_device_host",
            "acc_device_not_host",
        ):
            self.globals.define(dt_name, Cell(device_type_by_name(dt_name), name=dt_name))
        for types in VENDOR_DEVICE_TYPES.values():
            for dt in types:
                if self.globals.lookup(dt.name) is None:
                    self.globals.define(dt.name, Cell(dt, name=dt.name))
        self.globals.define("stderr", Cell("<stderr>", name="stderr"))
        self.globals.define("stdout", Cell("<stdout>", name="stdout"))
        self.globals.define("NULL", Cell(None, name="NULL"))

    def next_rand(self) -> int:
        self._rng_state = (self._rng_state * 1103515245 + 12345) % (2**31)
        return self._rng_state % 32768


# ---------------------------------------------------------------------------
# builtin function table
# ---------------------------------------------------------------------------


@dataclass
class _MallocResult:
    nbytes: int


_SIZEOF = {"int": 4, "long": 8, "float": 4, "double": 8, "char": 1, "bool": 4}


def _as_int(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int,)):
        return value
    if isinstance(value, float):
        return math.trunc(value)
    raise AccRuntimeError(f"expected integer value, got {type(value).__name__}")


def _truthy(value) -> bool:
    if isinstance(value, (int, float)):
        return value != 0
    return value is not None


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def binary_value(op: str, left, right, node):
    """C/Fortran binary-operator semantics shared by both backends.

    ``node`` supplies the source location for error diagnostics; the error
    strings are part of suite reports and must match across backends.
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise AccRuntimeError(f"division by zero at {node.loc}")
        if isinstance(left, int) and isinstance(right, int):
            return _trunc_div(left, right)
        return left / right
    if op == "%":
        if right == 0:
            raise AccRuntimeError(f"modulo by zero at {node.loc}")
        return left - _trunc_div(left, right) * right
    if op == "**":
        return left ** right
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    if op == "<<":
        return int(left) << int(right)
    if op == ">>":
        return int(left) >> int(right)
    raise AccRuntimeError(f"unknown binary operator {op!r} at {node.loc}")


def _cell_scalar(cell: Cell):
    if isinstance(cell.value, (ArrayValue, DevicePointer)):
        raise AccRuntimeError(f"scalar operation on array {cell.name!r}")
    return cell.value


def _maybe_cell_value(env: Env, name: str):
    cell = env.lookup(name)
    return cell.value if cell is not None else None


def _default_lower(language: str) -> int:
    return 1 if language == "fortran" else 0


def _fmt(interp: Interpreter, args, expr) -> str:
    parts = []
    for a in args:
        if isinstance(a, float):
            parts.append(f"{a:g}")
        else:
            parts.append(str(a))
    return " ".join(parts)


def _bi_print(interp, args, expr):
    interp.output.append(_fmt(interp, args, expr))
    return 0


def _bi_fprintf(interp, args, expr):
    interp.output.append(_fmt(interp, args[1:], expr))
    return 0


def _bi_malloc(interp, args, expr):
    return _MallocResult(nbytes=_as_int(args[0]))


def _bi_free(interp, args, expr):
    return 0


def _bi_rand(interp, args, expr):
    return interp.next_rand()


def _bi_srand(interp, args, expr):
    interp._rng_state = _as_int(args[0])
    return 0


def _math1(fn):
    def impl(interp, args, expr):
        return fn(float(args[0]))

    return impl


def _bi_abs(interp, args, expr):
    return abs(args[0])


def _bi_mod(interp, args, expr):
    a, b = args
    if b == 0:
        raise AccRuntimeError("mod by zero")
    return a - _trunc_div(int(a), int(b)) * b if isinstance(a, int) and isinstance(b, int) else math.fmod(a, b)


def _bi_merge(interp, args, expr):
    tsource, fsource, mask = args
    return tsource if _truthy(mask) else fsource


def _bi_pow(interp, args, expr):
    return float(args[0]) ** float(args[1])


def _bi_max(interp, args, expr):
    return max(args)


def _bi_min(interp, args, expr):
    return min(args)


def _bi_int(interp, args, expr):
    return math.trunc(float(args[0]))


def _bi_real(interp, args, expr):
    return float(args[0])


def _bi_iand(interp, args, expr):
    return int(args[0]) & int(args[1])


def _bi_ior(interp, args, expr):
    return int(args[0]) | int(args[1])


def _bi_ieor(interp, args, expr):
    return int(args[0]) ^ int(args[1])


def _bi_exit(interp, args, expr):
    raise ReturnSignal(_as_int(args[0]) if args else 0)


# --- OpenACC runtime bindings ---------------------------------------------


def _require_routine(interp: Interpreter, name: str, expr) -> None:
    if name in interp.behavior.unsupported_routines:
        raise AccRuntimeError(
            f"runtime routine {name} is not provided by {interp.behavior.label}"
        )


def _acc(name: str, impl):
    def wrapped(interp, args, expr):
        _require_routine(interp, name, expr)
        return impl(interp, args, expr)

    return wrapped


def _devtype(arg) -> DeviceType:
    if isinstance(arg, DeviceType):
        return arg
    raise AccRuntimeError(f"expected a device type constant, got {arg!r}")


_BUILTINS: Dict[str, Callable] = {
    # I/O
    "printf": _bi_print,
    "fprintf": _bi_fprintf,
    "print": _bi_print,
    # memory
    "malloc": _bi_malloc,
    "free": _bi_free,
    # PRNG (deterministic LCG)
    "rand": _bi_rand,
    "srand": _bi_srand,
    # math (C spellings)
    "pow": _bi_pow,
    "powf": _bi_pow,
    "fabs": _bi_abs,
    "fabsf": _bi_abs,
    "abs": _bi_abs,
    "labs": _bi_abs,
    "sqrt": _math1(math.sqrt),
    "sqrtf": _math1(math.sqrt),
    "exp": _math1(math.exp),
    "expf": _math1(math.exp),
    "log": _math1(math.log),
    "sin": _math1(math.sin),
    "cos": _math1(math.cos),
    "floor": _math1(math.floor),
    "ceil": _math1(math.ceil),
    "exit": _bi_exit,
    # Fortran intrinsics
    "mod": _bi_mod,
    "merge": _bi_merge,
    "max": _bi_max,
    "min": _bi_min,
    "int": _bi_int,
    "real": _bi_real,
    "dble": _bi_real,
    "iand": _bi_iand,
    "ior": _bi_ior,
    "ieor": _bi_ieor,
    # OpenACC runtime library
    "acc_get_num_devices": _acc(
        "acc_get_num_devices",
        lambda i, a, e: i.runtime.acc_get_num_devices(_devtype(a[0])),
    ),
    "acc_set_device_type": _acc(
        "acc_set_device_type",
        lambda i, a, e: (i.runtime.acc_set_device_type(_devtype(a[0])), 0)[1],
    ),
    "acc_get_device_type": _acc(
        "acc_get_device_type", lambda i, a, e: i.runtime.acc_get_device_type()
    ),
    "acc_set_device_num": _acc(
        "acc_set_device_num",
        lambda i, a, e: (
            i.runtime.acc_set_device_num(
                _as_int(a[0]), _devtype(a[1]) if len(a) > 1 else None
            ),
            0,
        )[1],
    ),
    "acc_get_device_num": _acc(
        "acc_get_device_num",
        lambda i, a, e: i.runtime.acc_get_device_num(
            _devtype(a[0]) if a else None
        ),
    ),
    "acc_async_test": _acc(
        "acc_async_test", lambda i, a, e: i.runtime.acc_async_test(_as_int(a[0]))
    ),
    "acc_async_test_all": _acc(
        "acc_async_test_all", lambda i, a, e: i.runtime.acc_async_test_all()
    ),
    "acc_async_wait": _acc(
        "acc_async_wait",
        lambda i, a, e: (i.runtime.acc_async_wait(_as_int(a[0])), 0)[1],
    ),
    "acc_async_wait_all": _acc(
        "acc_async_wait_all", lambda i, a, e: (i.runtime.acc_async_wait_all(), 0)[1]
    ),
    "acc_init": _acc(
        "acc_init",
        lambda i, a, e: (i.runtime.acc_init(_devtype(a[0]) if a else None), 0)[1],
    ),
    "acc_shutdown": _acc(
        "acc_shutdown",
        lambda i, a, e: (i.runtime.acc_shutdown(_devtype(a[0]) if a else None), 0)[1],
    ),
    "acc_on_device": _acc(
        "acc_on_device", lambda i, a, e: i.acc.on_device_answer(_devtype(a[0]))
    ),
    "acc_malloc": _acc(
        "acc_malloc", lambda i, a, e: i.runtime.acc_malloc(_as_int(a[0]))
    ),
    "acc_free": _acc("acc_free", lambda i, a, e: (i.runtime.acc_free(a[0]), 0)[1]),
}


def builtin_names() -> List[str]:
    """Names callable inside programs without user definitions."""
    return list(_BUILTINS)
