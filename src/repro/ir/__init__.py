"""Shared intermediate representation.

Both frontends (:mod:`repro.minic` and :mod:`repro.minifort`) lower their
surface syntax to the AST defined in :mod:`repro.ir.astnodes`; OpenACC
directives are represented by the clause model in :mod:`repro.ir.acc`.
Everything downstream of the parsers (interpreter, lowering, vendor bug
injection) is language-agnostic and operates on this IR.
"""

from repro.ir.types import Type, INT, LONG, FLOAT, DOUBLE, VOID, CHAR, BOOL
from repro.ir.astnodes import (
    Node,
    Expr,
    IntLit,
    FloatLit,
    StringLit,
    Ident,
    Index,
    Call,
    Unary,
    Binary,
    Conditional,
    Cast,
    Stmt,
    Block,
    VarDecl,
    DeclStmt,
    Assign,
    ExprStmt,
    If,
    For,
    While,
    Break,
    Continue,
    Return,
    AccConstruct,
    AccLoop,
    AccStandalone,
    FuncParam,
    Function,
    Program,
    SourceLocation,
    walk,
)
from repro.ir.acc import (
    Directive,
    Clause,
    DataRef,
    Section,
    DIRECTIVE_KINDS,
    DATA_CLAUSES,
    normalize_clause_name,
)

__all__ = [
    "Type", "INT", "LONG", "FLOAT", "DOUBLE", "VOID", "CHAR", "BOOL",
    "Node", "Expr", "IntLit", "FloatLit", "StringLit", "Ident", "Index",
    "Call", "Unary", "Binary", "Conditional", "Cast",
    "Stmt", "Block", "VarDecl", "DeclStmt", "Assign", "ExprStmt", "If",
    "For", "While", "Break", "Continue", "Return",
    "AccConstruct", "AccLoop", "AccStandalone",
    "FuncParam", "Function", "Program", "SourceLocation", "walk",
    "Directive", "Clause", "DataRef", "Section",
    "DIRECTIVE_KINDS", "DATA_CLAUSES", "normalize_clause_name",
]
