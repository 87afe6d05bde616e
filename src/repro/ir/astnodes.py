"""Language-agnostic abstract syntax tree.

The mini-C and mini-Fortran parsers both produce this AST; the interpreter,
the OpenACC lowering and the vendor bug-injection hooks all operate on it.
Nodes are plain dataclasses; no behaviour lives here beyond generic traversal
(:func:`walk`) so that compiler passes stay free to interpret structure as
they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.types import Type


@dataclass(frozen=True)
class SourceLocation:
    """Position of a construct in the original (generated) source file."""

    filename: str = "<unknown>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


@dataclass
class Node:
    """Base class for all AST nodes."""

    loc: SourceLocation = field(default_factory=SourceLocation, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float
    # Whether the literal was written single precision (``1.0f`` in C,
    # default ``real`` in Fortran); drives rounding in the interpreter.
    single: bool = False


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Slice(Expr):
    """An array section ``[start:length]`` (only valid inside data clauses)."""

    start: Optional[Expr]
    length: Optional[Expr]


@dataclass
class Index(Expr):
    """Array subscript ``base[i0][i1]...`` / ``base(i0, i1)``."""

    base: Expr
    indices: List[Expr]


@dataclass
class Call(Expr):
    name: str
    args: List[Expr]


@dataclass
class Unary(Expr):
    op: str  # '-', '+', '!', '~'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # arithmetic, comparison, logical, bitwise, '%', '**'
    left: Expr
    right: Expr


@dataclass
class Conditional(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Cast(Expr):
    type: Type
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Node):
    """A single declared variable (possibly an array).

    ``dims`` holds per-dimension *extents*; ``lowers`` the per-dimension
    lower bounds (C arrays are 0-based with ``lowers`` empty, Fortran arrays
    default to 1-based and may declare explicit bounds like ``a(0:n-1)``).
    """

    name: str
    type: Type
    dims: List[Expr] = field(default_factory=list)  # empty for scalars
    init: Optional[Expr] = None
    lowers: List[Optional[Expr]] = field(default_factory=list)


@dataclass
class DeclStmt(Stmt):
    decls: List[VarDecl] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    """``target op= value``; ``op`` is '' for plain assignment."""

    target: Expr  # Ident or Index
    value: Expr
    op: str = ""  # '', '+', '-', '*', '/', '%', '&', '|', '^'


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass
class For(Stmt):
    """A canonical counted loop.

    Both C ``for(i = lo; i < hi; i++)`` and Fortran ``do i = lo, hi`` are
    normalised to this shape; the bounds are re-evaluated on entry.
    ``step`` may be negative.  ``inclusive`` distinguishes Fortran ``do``
    (upper bound included) from the C idiom (excluded, with ``<``/``<=``
    folded into ``bound``/``inclusive``).
    """

    var: str
    start: Expr
    bound: Expr
    step: Expr
    body: Stmt
    inclusive: bool = False


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# OpenACC statements.  The directive payload itself lives in repro.ir.acc;
# the import is deferred to avoid a cycle.
# ---------------------------------------------------------------------------


@dataclass
class AccConstruct(Stmt):
    """A structured construct: ``parallel``, ``kernels``, ``data``,
    ``host_data`` — a directive applied to a following block."""

    directive: "repro.ir.acc.Directive"
    body: Stmt


@dataclass
class AccLoop(Stmt):
    """A ``loop`` (or combined ``parallel loop`` / ``kernels loop``)
    directive attached to the immediately following :class:`For`."""

    directive: "repro.ir.acc.Directive"
    loop: For


@dataclass
class AccStandalone(Stmt):
    """An executable directive with no body: ``update``, ``wait``,
    ``cache``, ``enter data`` / ``exit data`` (2.0)."""

    directive: "repro.ir.acc.Directive"


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class FuncParam(Node):
    name: str
    type: Type
    is_array: bool = False


@dataclass
class Function(Node):
    name: str
    return_type: Type
    params: List[FuncParam] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    # declare directives attached at function scope
    declares: List["repro.ir.acc.Directive"] = field(default_factory=list)


@dataclass
class Program(Node):
    """A standalone translation unit as produced by the test generator."""

    functions: List[Function] = field(default_factory=list)
    globals: List[VarDecl] = field(default_factory=list)
    language: str = "c"  # 'c' or 'fortran'
    name: str = "<anonymous>"

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    @property
    def main(self) -> Function:
        return self.function("main")


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

#: field annotations that never hold a :class:`Node`
_LEAF_ANNOTATIONS = frozenset({
    "str", "int", "float", "bool", "Optional[str]", "Type", "SourceLocation",
})

#: node class -> the names of its fields that may hold children
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def child_fields(cls: type) -> Tuple[str, ...]:
    """The fields of node class ``cls`` that may hold children, in field
    order: every field not annotated with a leaf type.  Computed once per
    class."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls)
                      if f.type not in _LEAF_ANNOTATIONS)
        _CHILD_FIELDS[cls] = names
    return names


def children(node: Node) -> List[Node]:
    """The direct AST children of ``node``, in field order."""
    out: List[Node] = []
    for name in child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            out.extend([item for item in value if isinstance(item, Node)])
    return out


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of ``node`` and all AST descendants.

    Directive payloads (clauses, data refs) are :class:`Node` subclasses as
    well and are therefore included.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))
