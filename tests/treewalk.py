"""The reference tree walker: the differential oracle for the interpreter.

Production runs every program through its closure lowering
(:mod:`repro.compiler.closures`).  This module is the interpreter those
closures were written to mirror: it walks the AST node by node, resolving
every name through an :class:`~repro.compiler.interp.Env` chain.  It is
slow and simple, which is what makes it a useful oracle — the tests run
the same programs both ways and require identical results, error strings
and step counts.

* :class:`TreeInterpreter` subclasses the runtime
  :class:`~repro.compiler.interp.Interpreter` (machine, globals, builtins,
  step budget) and replaces how statements and expressions execute.
* :class:`TreeExecutor` subclasses the construct executor
  (:class:`~repro.compiler.exec_model.AccExecutor`) and overrides its
  seams to the lowered code: it evaluates clause expressions and loop
  bounds with :meth:`TreeInterpreter.eval`, runs sequential loops with
  :meth:`TreeInterpreter.exec_for`, and runs construct bodies, region
  bodies and loop lanes in child Envs through
  :meth:`TreeInterpreter.exec_stmt`.
* :func:`oracle` swaps :class:`TreeInterpreter` in for the interpreter
  class the compiler pipeline builds, so a whole campaign (compile cache,
  runner, engine, renderers) runs on the tree walker.

Nothing in ``src/`` imports or selects it.  Run it with the repository
root on ``sys.path`` (``pytest`` does this for ``tests/`` and
``benchmarks/``; ``python -m benchmarks.record`` runs from the root).
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Sequence

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.values import ArrayValue, Cell, DevicePointer, coerce_scalar
from repro.compiler import pipeline
from repro.compiler.exec_model import AccExecutor, ComputePlan
from repro.compiler.interp import (
    _BUILTINS,
    _MallocResult,
    _SIZEOF,
    _as_int,
    _cell_scalar,
    _default_lower,
    _truthy,
    BreakSignal,
    ContinueSignal,
    Env,
    Interpreter,
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
    Return,
    Stmt,
    StringLit,
    Unary,
    VarDecl,
    While,
)


class TreeExecutor(AccExecutor):
    """The construct executor over Envs (no lowered code)."""

    def _eval(self, expr: Expr, env):
        return self.interp.eval(expr, env)

    def _exec_for(self, loop: For, env) -> None:
        self.interp.exec_for(loop, env)

    def _run_scoped(self, body: Stmt, env, defs: Dict[str, Cell]) -> None:
        scope = env.child()
        scope.vars.update(defs)
        self.interp.exec_stmt(body, scope)

    def _region_scope_runner(self, plan: ComputePlan, region_env):
        def run_scope(defs: Dict[str, Cell]):
            scope = region_env.child()
            scope.vars.update(defs)
            self.interp.exec_stmt(plan.body, scope)
            return scope
        return run_scope

    def _lane_runner(self, env, loops: List[For]):
        interp = self.interp
        body = loops[-1].body

        def run(defs: Dict[str, Cell], var_cells: List[Cell], tuples) -> None:
            lane_env = env.child()
            lane_env.vars.update(defs)
            for values in tuples:
                interp.steps += 1
                if interp.steps > interp.limits.max_steps:
                    raise ExecutionTimeout("step budget exceeded in device loop")
                for cell, v in zip(var_cells, values):
                    cell.value = v
                interp.exec_stmt(body, lane_env.child())
        return run


class TreeInterpreter(Interpreter):
    """An :class:`Interpreter` that walks the AST instead of running the
    program's lowering."""

    def __init__(self, program, *args, **kwargs):
        super().__init__(program, *args, **kwargs)
        self._user_functions = {fn.name: fn for fn in program.functions}

    def _executor(self):
        return TreeExecutor(self)

    def _define_globals(self) -> None:
        for decl in self.program.globals:
            self._declare(decl, self.globals)

    # ----------------------------------------------------------- functions

    def call_function(self, fn: Function, args: Sequence[object]) -> object:
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
        scope = env.child()
        cell = scope.lookup(loop.var)
        if cell is None:
            cell = scope.define(loop.var, Cell(0, name=loop.var))
        for i in self.acc._iteration_values(loop, env):
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

    def _declare(self, decl: VarDecl, env: Env) -> Cell:
        if decl.dims:
            shape = [_as_int(self.eval(d, env)) for d in decl.dims]
            lowers = [
                (_as_int(self.eval(l, env)) if l is not None
                 else _default_lower(self.program.language))
                for l in (decl.lowers or [None] * len(shape))
            ]
            value: object = ArrayValue(shape, decl.type.base, lowers)
            if decl.init is not None:
                fill = self.eval(decl.init, env)
                value.fill(fill)
        elif decl.type.pointer > 0:
            value = self.eval(decl.init, env) if decl.init is not None else None
        else:
            if decl.init is not None:
                value = coerce_scalar(decl.type.base, self.eval(decl.init, env))
            else:
                value = coerce_scalar(decl.type.base, 0)
        return env.define(decl.name, Cell(value, type=decl.type, name=decl.name))

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
                value = binary_value(stmt.op, _cell_scalar(cell), value, stmt)
            base = cell.type.base if cell.type is not None and cell.type.pointer == 0 else None
            if isinstance(value, (int, float)) and not isinstance(cell.value, (ArrayValue, DevicePointer)):
                cell.value = coerce_scalar(base, value)
            else:
                cell.value = value
        elif isinstance(target, Index):
            array, indices = self._resolve_index(target, env)
            if stmt.op:
                value = binary_value(stmt.op, array.get(indices), value, stmt)
            array.set(indices, value)
        elif isinstance(target, Unary) and target.op == "*":
            pointee = self.eval(target.operand, env)
            array = _pointer_array(pointee, target)
            if stmt.op:
                value = binary_value(stmt.op, array.get([array.lowers[0]]), value, stmt)
            array.set([array.lowers[0]], value)
        else:
            raise AccRuntimeError(f"invalid assignment target at {stmt.loc}")

    # ---------------------------------------------------------- expressions

    def eval(self, expr: Expr, env: Env):
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
        return binary_value(op, left, right, expr)

    def _eval_unary(self, expr: Unary, env: Env):
        if expr.op == "*":
            pointee = self.eval(expr.operand, env)
            array = _pointer_array(pointee, expr)
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


def _pointer_array(value, node) -> ArrayValue:
    if isinstance(value, DevicePointer):
        return value.as_array("int")
    if isinstance(value, ArrayValue):
        return value
    raise AccRuntimeError(f"dereference of a non-pointer at {node.loc}")


@contextlib.contextmanager
def oracle():
    """While active, every program the compiler pipeline runs
    (``CompiledProgram.run``, ``ProgramRunner.run``) executes on the tree
    walker.  The patch is to this process: pair it with the serial or
    thread policy."""
    production = pipeline.Interpreter
    pipeline.Interpreter = TreeInterpreter
    try:
        yield
    finally:
        pipeline.Interpreter = production
