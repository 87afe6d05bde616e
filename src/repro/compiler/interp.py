"""Interpreter runtime (host execution engine).

Executes a :class:`repro.ir.Program` against a simulated
:class:`~repro.accsim.machine.Machine` by running the program's closure
lowering (:mod:`repro.compiler.closures`).  All OpenACC construct
statements are delegated to an
:class:`~repro.compiler.exec_model.AccExecutor`, which owns the
device-side execution model.  This module is the runtime both share: the
per-run :class:`Interpreter` state (machine, globals, output, RNG, step
budget), :class:`Env`, the control-flow signals, the builtin table and the
C/Fortran numeric semantics:

* integer division truncates toward zero (both languages);
* ``&&`` / ``||`` short-circuit; comparisons yield int 0/1;
* Fortran ``**`` supported; scalar assignment coerces to the declared type;
* C arrays pass by reference (shared ArrayValue), scalars by value;
  Fortran passes by reference whenever the argument is a bare variable.

Execution is bounded by a step budget so the harness can classify runaway
programs as the paper's "executes forever" runtime error class.

Every local name, clause expression and loop bound resolves through the
lowering's slot frames.  :class:`Env` is still what holds the run's
globals and a compute region's mapped cells (the names a device frame is
seeded from), and it is the tree walker's scope chain.

The reference tree walker these semantics were first written as lives in
``tests/treewalk.py``: a subclass of :class:`Interpreter` that the
differential tests substitute for this one and compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.accsim.errors import AccRuntimeError
from repro.accsim.machine import Machine
from repro.accsim.runtime import AccRuntime
from repro.accsim.values import ArrayValue, Cell, DevicePointer
from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR
from repro.ir.astnodes import Function, Program
from repro.spec.devices import (
    VENDOR_DEVICE_TYPES,
    DeviceType,
    device_type_by_name,
)


# ---------------------------------------------------------------------------
# control-flow signals
# ---------------------------------------------------------------------------


class InterpreterReuseError(RuntimeError):
    """``run()`` called again on an interpreter: each one runs once.

    Deliberately *not* an :class:`AccRuntimeError`: reusing an interpreter
    is a harness programming error, never a simulated-program crash, so it
    must not be classified as one.
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
    """Lexically chained name -> Cell map.

    Production resolves every local name through slot frames
    (:mod:`repro.compiler.closures`); an Env holds the run's globals and a
    compute region's mapped cells, and is the scope chain of the reference
    tree walker (``tests/treewalk.py``).
    """

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
    """Per-run execution state over a program's closure lowering.

    ``lowered`` is the program's :class:`~repro.compiler.closures.
    LoweredProgram` (lowered here when not given); it is pure, so callers
    share one across runs, threads and interpreters.  An interpreter builds
    its own :class:`Machine` and runs once; a rerun takes a new one.
    """

    def __init__(
        self,
        program: Program,
        behavior: CompilerBehavior = REFERENCE_BEHAVIOR,
        env_vars: Optional[Dict[str, str]] = None,
        rng_seed: int = 12345,
        lowered=None,
    ):
        from repro.compiler.closures import invoke_function, lower_program

        self.program = program
        self.behavior = behavior
        if lowered is None:
            lowered = lower_program(program)
        self.lowered = lowered
        self._invoke = invoke_function
        #: static construct plans (see AccExecutor): the lowering's, so
        #: they are shared by every run of it and, through the compiled
        #: program, by every behaviour compiled from its parse
        self.plans = lowered.plans
        # the behaviour is the accelerator's execution profile: the region
        # executor reads a default size only where a region omits its clause
        self.machine = Machine(
            accel_count=1,
            accel_device_type=behavior.concrete_device_type,
            profile=behavior,
        )
        self.acc = self._executor()
        self.runtime = AccRuntime(self.machine, hooks=self.acc)
        if env_vars:
            from repro.accsim.envvars import apply_environment

            apply_environment(self.machine, env_vars)

        self.output: List[str] = []
        self.steps = 0
        self.limits = ExecutionLimits()
        #: hot-path mirror of ``limits.max_steps`` (one attribute hop instead
        #: of two in every statement's step-budget check)
        self._max_steps = self.limits.max_steps
        self._rng_state = rng_seed
        #: whether this run has called ``rand``/``srand``: the only way the
        #: seed reaches execution, so a run that never set it would give
        #: the same outcome under every seed (see ProgramRunner.rng_used)
        self.rng_used = False
        self.globals = Env()
        self._install_constants()
        self._has_run = False

    def _executor(self):
        """The run's OpenACC construct executor."""
        from repro.compiler.exec_model import AccExecutor  # cycle-free import

        return AccExecutor(self)

    # ------------------------------------------------------------------ run

    def run(self, entry: str = "main", limits: Optional[ExecutionLimits] = None) -> ExecutionResult:
        """Execute ``entry`` and return the run's :class:`ExecutionResult`.

        An interpreter runs once: a second ``run()`` raises
        :class:`InterpreterReuseError` instead of running over the first
        run's globals, output, RNG state and device counters.
        """
        if self._has_run:
            raise InterpreterReuseError(
                "Interpreter.run() called twice: its globals, output and "
                "device counters hold the first run's state; build a new "
                "Interpreter for each run"
            )
        self._has_run = True
        if limits is not None:
            self.limits = limits
        self._max_steps = self.limits.max_steps
        self._define_globals()
        fn = self.program.function(entry)
        devices = [self.machine.host] + self.machine.accelerators
        try:
            value = self.call_function(fn, [])
            # flush async work so observability counters are stable.  Only
            # a run whose host code returned gets here: when the host raised,
            # its error is the one that stopped the program, and queued work
            # that never ran must not replace it
            for dev in devices:
                dev.queues.wait_all()
        finally:
            # what is still queued (after a host error, or after an activity
            # that raised) can never run, and is dropped with the run (it
            # holds its device, a reference cycle while it stays queued)
            for dev in devices:
                dev.queues.discard()
        kernels = sum(d.kernels_launched for d in self.machine.accelerators)
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
        return self._invoke(self, self.lowered.functions[fn.name], args)

    def _define_globals(self) -> None:
        """Define the program's global declarations into ``globals``."""
        for define in self.lowered.globals:
            define(self)

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
        self.rng_used = True
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
    """C/Fortran binary-operator semantics (the lowering's fallback for
    operators it does not specialise).

    ``node`` supplies the source location for error diagnostics; the error
    strings are part of suite reports.
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
    # counts even with a constant argument: the rule stays "any RNG call
    # executes every iteration", with no reasoning about the argument
    interp.rng_used = True
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
