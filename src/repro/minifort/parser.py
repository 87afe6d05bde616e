"""mini-Fortran recursive-descent parser.

Produces the shared AST of :mod:`repro.ir.astnodes`.  Notable conventions:

* a ``program`` unit, or an ``integer function main()``, maps to the
  ``main`` function of the :class:`Program`; assignments to the function
  name set the return value (standard Fortran function semantics);
* ``do i = lo, hi[, step]`` maps to an inclusive :class:`For`;
* region directives are block-delimited by ``!$acc end <construct>``;
* ``a(i)`` parses to an :class:`Index` when ``a`` is a declared array or
  array parameter, otherwise to a :class:`Call` — the parser tracks
  declarations per unit to disambiguate;
* declared lower bounds (default 1) are preserved on :class:`VarDecl` so
  the interpreter indexes Fortran arrays correctly.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.frontend.directives import DirectiveParser
from repro.frontend.errors import ParseError
from repro.frontend.tokens import Token, TokenKind, TokenStream
from repro.ir.acc import Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Continue,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FuncParam,
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
from repro.ir.types import BOOL, DOUBLE, FLOAT, INT, Type
from repro.minifort.lexer import tokenize

_REGION_KINDS = {"parallel", "kernels", "data", "host_data"}
_LOOP_KINDS = {"loop", "parallel loop", "kernels loop"}
_STANDALONE_KINDS = {"update", "wait", "cache", "enter data", "exit data"}
_FUNCSCOPE_KINDS = {"declare", "routine"}

OP = TokenKind.OP

#: precedence levels, loosest first; `.not.` and a leading sign are prefix
#: operators at their level
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _POW = range(1, 8)

#: dot-form/modern comparison spellings -> canonical C-style ops
_CMP_MAP = {
    ".eq.": "==", "==": "==",
    ".ne.": "!=", "/=": "!=",
    ".lt.": "<", "<": "<",
    ".le.": "<=", "<=": "<=",
    ".gt.": ">", ">": ">",
    ".ge.": ">=", ">=": ">=",
}

#: binary operator spelling -> (AST operator, precedence level)
_BINARY = {
    ".or.": ("||", _OR),
    ".and.": ("&&", _AND),
    **{spelling: (op, _CMP) for spelling, op in _CMP_MAP.items()},
    "+": ("+", _ADD), "-": ("-", _ADD),
    "*": ("*", _MUL), "/": ("/", _MUL),
    "**": ("**", _POW),
}


def parse_program(source: str, filename: str = "<fortran>", name: str = "<anonymous>") -> Program:
    """Parse a mini-Fortran translation unit (one or more program units)."""
    parser = FortranParser(tokenize(source, filename))
    return parser.parse_file(name)


def parse_expression_text(source: str) -> Expr:
    """Parse a standalone Fortran expression."""
    parser = FortranParser(tokenize(source, "<expr>"))
    expr = parser.parse_expression(parser.ts)
    parser._skip_newlines()
    if not parser.ts.at_end():
        raise ParseError("trailing tokens after expression", parser.ts.current.loc)
    return expr


class FortranParser:
    def __init__(self, tokens: List[Token]):
        self.ts = TokenStream(tokens)
        # names that denote arrays in the current unit (declared arrays plus
        # array-typed parameters) — used to disambiguate a(i) index vs call
        self._array_names: Set[str] = set()
        self._current_function: Optional[Function] = None
        self._result_name: Optional[str] = None

    # -------------------------------------------------------------- utilities

    def _skip_newlines(self) -> None:
        while self.ts.current.kind is TokenKind.NEWLINE:
            self.ts.advance()

    def _expect_end_of_statement(self) -> None:
        tok = self.ts.current
        if tok.kind in (TokenKind.NEWLINE, TokenKind.EOF):
            if tok.kind is TokenKind.NEWLINE:
                self.ts.advance()
            return
        raise ParseError(f"expected end of statement, found {tok.text!r}", tok.loc)

    # ------------------------------------------------------------------- file

    def parse_file(self, name: str) -> Program:
        program = Program(language="fortran", name=name)
        self._skip_newlines()
        while not self.ts.at_end():
            program.functions.append(self._parse_unit())
            self._skip_newlines()
        return program

    # ------------------------------------------------------------------ units

    def _parse_unit(self) -> Function:
        tok = self.ts.current
        if tok.is_keyword("program"):
            return self._parse_program_unit()
        if tok.is_keyword("subroutine"):
            return self._parse_procedure(None)
        # typed function: `integer function name(...)`
        ftype = self._try_parse_type()
        if ftype is not None and self.ts.current.is_keyword("function"):
            return self._parse_procedure(ftype)
        raise ParseError(
            f"expected program unit, found {tok.text!r}", tok.loc
        )

    def _parse_program_unit(self) -> Function:
        tok = self.ts.expect_keyword("program")
        name_tok = self.ts.expect_ident()
        self._expect_end_of_statement()
        fn = Function(name="main", return_type=INT, loc=tok.loc)
        self._begin_unit(fn, result_name="main")
        body = self._parse_body(until=("end",))
        self._parse_end_line("program")
        # implicit result variable: main defaults to 0 and is returned
        body.stmts.insert(
            0,
            DeclStmt(decls=[VarDecl(name="main", type=INT, init=IntLit(0))]),
        )
        body.stmts.append(Return(value=Ident(name="main")))
        fn.body = body
        self._finish_unit()
        return fn

    def _parse_procedure(self, return_type: Optional[Type]) -> Function:
        if return_type is None:
            kw = self.ts.expect_keyword("subroutine")
        else:
            kw = self.ts.expect_keyword("function")
        name_tok = self.ts.expect_ident()
        params: List[FuncParam] = []
        if self.ts.current.is_op("("):
            self.ts.advance()
            if not self.ts.current.is_op(")"):
                params.append(self._parse_param_name())
                while self.ts.match_op(","):
                    params.append(self._parse_param_name())
            self.ts.expect_op(")")
        result_name = name_tok.text
        if self.ts.current.is_keyword("result"):
            self.ts.advance()
            self.ts.expect_op("(")
            result_name = self.ts.expect_ident().text
            self.ts.expect_op(")")
        self._expect_end_of_statement()

        fn = Function(
            name=name_tok.text,
            return_type=return_type or Type("void"),
            params=params,
            loc=kw.loc,
        )
        self._begin_unit(fn, result_name=result_name if return_type else None)
        body = self._parse_body(until=("end",))
        self._parse_end_line("function" if return_type else "subroutine")
        if return_type is not None:
            body.stmts.insert(
                0,
                DeclStmt(
                    decls=[VarDecl(name=result_name, type=return_type, init=IntLit(0))]
                ),
            )
            body.stmts.append(Return(value=Ident(name=result_name)))
        fn.body = body
        self._finish_unit()
        return fn

    def _begin_unit(self, fn: Function, result_name: Optional[str]) -> None:
        self._array_names = set()
        self._current_function = fn
        self._result_name = result_name

    def _finish_unit(self) -> None:
        self._current_function = None
        self._result_name = None

    def _parse_param_name(self) -> FuncParam:
        tok = self.ts.expect_ident()
        return FuncParam(name=tok.text, type=INT, loc=tok.loc)

    def _parse_end_line(self, unit_kw: str) -> None:
        self._skip_newlines()
        self.ts.expect_keyword("end")
        if self.ts.current.is_keyword(unit_kw):
            self.ts.advance()
            if self.ts.current.kind is TokenKind.IDENT:
                self.ts.advance()
        self._expect_end_of_statement()

    # ------------------------------------------------------------------- body

    def _parse_body(self, until: Tuple[str, ...]) -> Block:
        """Parse statements until one of the `until` keywords (not consumed)
        or an `!$acc end ...` pragma (not consumed)."""
        block = Block()
        while True:
            self._skip_newlines()
            tok = self.ts.current
            if tok.kind is TokenKind.EOF:
                break
            if tok.kind is TokenKind.KEYWORD and tok.text in until:
                # `end do`/`endif` are consumed by their own handlers; a bare
                # `end`, `else`, `elseif` ends this body.
                break
            if tok.kind is TokenKind.PRAGMA and tok.text.lower().startswith("end"):
                break
            stmt = self._parse_statement()
            if stmt is not None:
                block.stmts.append(stmt)
        return block

    # -------------------------------------------------------------- statements

    def _parse_statement(self) -> Optional[Stmt]:
        tok = self.ts.current

        if tok.kind is TokenKind.PRAGMA:
            self.ts.advance()
            self._skip_newlines()
            return self._parse_acc_statement(tok)

        if tok.is_keyword("implicit"):
            while self.ts.current.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
                self.ts.advance()
            self._expect_end_of_statement()
            return None

        if tok.is_keyword("integer", "real", "double", "logical"):
            return self._parse_declaration()

        if tok.is_keyword("do"):
            return self._parse_do()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("call"):
            return self._parse_call_stmt()
        if tok.is_keyword("exit"):
            self.ts.advance()
            self._expect_end_of_statement()
            return Break(loc=tok.loc)
        if tok.is_keyword("cycle"):
            self.ts.advance()
            self._expect_end_of_statement()
            return Continue(loc=tok.loc)
        if tok.is_keyword("return"):
            self.ts.advance()
            self._expect_end_of_statement()
            if self._result_name is not None:
                return Return(value=Ident(name=self._result_name), loc=tok.loc)
            return Return(loc=tok.loc)
        if tok.is_keyword("stop"):
            self.ts.advance()
            if self.ts.current.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
                self.ts.advance()  # stop code ignored
            self._expect_end_of_statement()
            return Return(value=Ident(name=self._result_name) if self._result_name else None, loc=tok.loc)
        if tok.is_keyword("continue"):
            self.ts.advance()
            self._expect_end_of_statement()
            return None
        if tok.is_keyword("print"):
            return self._parse_print()

        # assignment: ident [( indices )] = expr
        if tok.kind is TokenKind.IDENT:
            return self._parse_assignment()

        raise ParseError(f"unexpected token {tok.text!r}", tok.loc)

    def _parse_print(self) -> Stmt:
        tok = self.ts.expect_keyword("print")
        self.ts.expect_op("*")
        args: List[Expr] = []
        while self.ts.match_op(","):
            args.append(self.parse_expression(self.ts))
        self._expect_end_of_statement()
        return ExprStmt(expr=Call(name="print", args=args), loc=tok.loc)

    def _parse_call_stmt(self) -> Stmt:
        tok = self.ts.expect_keyword("call")
        name_tok = self.ts.expect_ident()
        args: List[Expr] = []
        if self.ts.current.is_op("("):
            self.ts.advance()
            if not self.ts.current.is_op(")"):
                args.append(self.parse_expression(self.ts))
                while self.ts.match_op(","):
                    args.append(self.parse_expression(self.ts))
            self.ts.expect_op(")")
        self._expect_end_of_statement()
        return ExprStmt(expr=Call(name=name_tok.text, args=args), loc=tok.loc)

    def _parse_assignment(self) -> Stmt:
        name_tok = self.ts.expect_ident()
        target: Expr = Ident(name=name_tok.text, loc=name_tok.loc)
        if self.ts.current.is_op("("):
            self.ts.advance()
            indices = [self.parse_expression(self.ts)]
            while self.ts.match_op(","):
                indices.append(self.parse_expression(self.ts))
            self.ts.expect_op(")")
            target = Index(base=target, indices=indices, loc=name_tok.loc)
        eq = self.ts.expect_op("=")
        value = self.parse_expression(self.ts)
        self._expect_end_of_statement()
        return Assign(target=target, value=value, loc=eq.loc)

    # --------------------------------------------------------------- control

    def _parse_do(self) -> Stmt:
        tok = self.ts.expect_keyword("do")
        if self.ts.current.is_keyword("while"):
            self.ts.advance()
            self.ts.expect_op("(")
            cond = self.parse_expression(self.ts)
            self.ts.expect_op(")")
            self._expect_end_of_statement()
            body = self._parse_body(until=("end", "enddo"))
            self._consume_block_end("do", "enddo")
            return While(cond=cond, body=body, loc=tok.loc)

        var_tok = self.ts.expect_ident()
        self.ts.expect_op("=")
        start = self.parse_expression(self.ts)
        self.ts.expect_op(",")
        bound = self.parse_expression(self.ts)
        step: Expr = IntLit(1)
        if self.ts.match_op(","):
            step = self.parse_expression(self.ts)
        self._expect_end_of_statement()
        body = self._parse_body(until=("end", "enddo"))
        self._consume_block_end("do", "enddo")
        return For(
            var=var_tok.text,
            start=start,
            bound=bound,
            step=step,
            body=body,
            inclusive=True,
            loc=tok.loc,
        )

    def _consume_block_end(self, second_kw: str, fused_kw: str) -> None:
        self._skip_newlines()
        if self.ts.current.is_keyword(fused_kw):
            self.ts.advance()
            self._expect_end_of_statement()
            return
        self.ts.expect_keyword("end")
        self.ts.expect_keyword(second_kw)
        self._expect_end_of_statement()

    def _parse_if(self) -> Stmt:
        tok = self.ts.expect_keyword("if")
        self.ts.expect_op("(")
        cond = self.parse_expression(self.ts)
        self.ts.expect_op(")")
        if not self.ts.current.is_keyword("then"):
            # one-line if
            stmt = self._parse_statement()
            return If(cond=cond, then=stmt or Block(), loc=tok.loc)
        self.ts.advance()  # then
        self._expect_end_of_statement()
        then = self._parse_body(until=("end", "endif", "else", "elseif"))
        other: Optional[Stmt] = None
        self._skip_newlines()
        cur = self.ts.current
        if cur.is_keyword("elseif"):
            self.ts.advance()
            other = self._parse_if_tail(cur)
        elif cur.is_keyword("else"):
            self.ts.advance()
            if self.ts.current.is_keyword("if"):
                # `else if (...) then`
                other = self._parse_if()
                return If(cond=cond, then=then, other=other, loc=tok.loc)
            self._expect_end_of_statement()
            other = self._parse_body(until=("end", "endif"))
            self._consume_block_end("if", "endif")
            return If(cond=cond, then=then, other=other, loc=tok.loc)
        else:
            self._consume_block_end("if", "endif")
            return If(cond=cond, then=then, loc=tok.loc)
        return If(cond=cond, then=then, other=other, loc=tok.loc)

    def _parse_if_tail(self, tok: Token) -> Stmt:
        """Handle `elseif (...) then` chains (the `elseif` is consumed)."""
        self.ts.expect_op("(")
        cond = self.parse_expression(self.ts)
        self.ts.expect_op(")")
        self.ts.expect_keyword("then")
        self._expect_end_of_statement()
        then = self._parse_body(until=("end", "endif", "else", "elseif"))
        self._skip_newlines()
        cur = self.ts.current
        if cur.is_keyword("elseif"):
            self.ts.advance()
            other = self._parse_if_tail(cur)
            return If(cond=cond, then=then, other=other, loc=tok.loc)
        if cur.is_keyword("else"):
            self.ts.advance()
            self._expect_end_of_statement()
            other = self._parse_body(until=("end", "endif"))
            self._consume_block_end("if", "endif")
            return If(cond=cond, then=then, other=other, loc=tok.loc)
        self._consume_block_end("if", "endif")
        return If(cond=cond, then=then, loc=tok.loc)

    # ------------------------------------------------------------ declarations

    def _try_parse_type(self) -> Optional[Type]:
        tok = self.ts.current
        if tok.is_keyword("integer"):
            self.ts.advance()
            return INT
        if tok.is_keyword("real"):
            self.ts.advance()
            # `real*8` -> double
            if self.ts.current.is_op("*"):
                self.ts.advance()
                width = self.ts.expect_kind(TokenKind.INT)
                return DOUBLE if width.value == 8 else FLOAT
            return FLOAT
        if tok.is_keyword("double"):
            self.ts.advance()
            self.ts.expect_keyword("precision")
            return DOUBLE
        if tok.is_keyword("logical"):
            self.ts.advance()
            return BOOL
        return None

    def _parse_declaration(self) -> Optional[Stmt]:
        start = self.ts.current
        base = self._try_parse_type()
        assert base is not None
        dim_spec: Optional[List[Tuple[Optional[Expr], Expr]]] = None
        # attributes: `, dimension(spec)` `, parameter` `, intent(...)`
        while self.ts.current.is_op(","):
            self.ts.advance()
            attr = self.ts.advance()
            if attr.is_keyword("dimension"):
                self.ts.expect_op("(")
                dim_spec = self._parse_bounds_list()
                self.ts.expect_op(")")
            elif attr.is_keyword("parameter"):
                pass  # treated as a plain initialised variable
            elif attr.is_keyword("intent"):
                self.ts.expect_op("(")
                self.ts.advance()
                self.ts.expect_op(")")
            else:
                raise ParseError(f"unknown attribute {attr.text!r}", attr.loc)
        self.ts.match_op("::")

        decls: List[VarDecl] = []
        param_names = {p.name for p in (self._current_function.params if self._current_function else [])}
        while True:
            name_tok = self.ts.expect_ident()
            bounds = dim_spec
            if self.ts.current.is_op("("):
                self.ts.advance()
                bounds = self._parse_bounds_list()
                self.ts.expect_op(")")
            init: Optional[Expr] = None
            if self.ts.match_op("="):
                init = self.parse_expression(self.ts)
            if bounds is not None:
                self._array_names.add(name_tok.text)
            if name_tok.text in param_names:
                # typing a parameter: record arrayness, no local storage
                for p in self._current_function.params:  # type: ignore[union-attr]
                    if p.name == name_tok.text:
                        p.type = base
                        p.is_array = bounds is not None
            elif self._result_name == name_tok.text:
                pass  # declaring the result variable again is a no-op
            else:
                dims = [extent for (_lo, extent) in (bounds or [])]
                lowers = [lo for (lo, _extent) in (bounds or [])]
                decls.append(
                    VarDecl(
                        name=name_tok.text,
                        type=base,
                        dims=dims,
                        lowers=lowers,
                        init=init,
                        loc=name_tok.loc,
                    )
                )
            if not self.ts.match_op(","):
                break
        self._expect_end_of_statement()
        if not decls:
            return None
        return DeclStmt(decls=decls, loc=start.loc)

    def _parse_bounds_list(self) -> List[Tuple[Optional[Expr], Expr]]:
        """Parse dimension bounds: `n` (1:n) or `lo:hi`; returns
        (lower, extent) pairs (lower None => default 1)."""
        out: List[Tuple[Optional[Expr], Expr]] = []
        while True:
            first = self.parse_expression(self.ts)
            if self.ts.match_op(":"):
                hi = self.parse_expression(self.ts)
                extent = Binary("+", Binary("-", hi, first), IntLit(1))
                out.append((first, extent))
            else:
                out.append((None, first))
            if not self.ts.match_op(","):
                return out

    # --------------------------------------------------------------- pragmas

    def _parse_acc_statement(self, pragma_tok: Token) -> Optional[Stmt]:
        directive = self._parse_directive_token(pragma_tok)
        kind = directive.kind
        if kind in _REGION_KINDS:
            body = self._parse_body(until=("end",))
            self._consume_acc_end(kind, pragma_tok)
            return AccConstruct(directive=directive, body=body, loc=pragma_tok.loc)
        if kind in _LOOP_KINDS:
            self._skip_newlines()
            if not self.ts.current.is_keyword("do"):
                raise ParseError(
                    "OpenACC loop directive must be followed by a do loop",
                    pragma_tok.loc,
                )
            loop = self._parse_do()
            if not isinstance(loop, For):
                raise ParseError(
                    "OpenACC loop directive requires a counted do loop",
                    pragma_tok.loc,
                )
            self._maybe_consume_acc_end(kind)
            return AccLoop(directive=directive, loop=loop, loc=pragma_tok.loc)
        if kind in _STANDALONE_KINDS:
            return AccStandalone(directive=directive, loc=pragma_tok.loc)
        if kind in _FUNCSCOPE_KINDS:
            if self._current_function is None:
                raise ParseError("declare directive outside unit", pragma_tok.loc)
            self._current_function.declares.append(directive)
            return None
        raise ParseError(f"unsupported directive {kind!r}", pragma_tok.loc)

    def _consume_acc_end(self, kind: str, pragma_tok: Token) -> None:
        self._skip_newlines()
        tok = self.ts.current
        if tok.kind is not TokenKind.PRAGMA or not tok.text.lower().startswith("end"):
            raise ParseError(
                f"missing `!$acc end {kind}` for construct", pragma_tok.loc
            )
        payload = tok.text.lower()[len("end"):].strip()
        if payload != kind:
            raise ParseError(
                f"mismatched `!$acc end {payload}` (expected `end {kind}`)",
                tok.loc,
            )
        self.ts.advance()
        self._skip_newlines()

    def _maybe_consume_acc_end(self, kind: str) -> None:
        self._skip_newlines()
        tok = self.ts.current
        if tok.kind is TokenKind.PRAGMA and tok.text.lower() == f"end {kind}":
            self.ts.advance()
            self._skip_newlines()

    def _parse_directive_token(self, tok: Token) -> Directive:
        # the payload is lexed where it stands: from its own line and column
        sub_tokens = [
            t
            for t in tokenize(tok.text, tok.loc.filename, tok.loc.line,
                              tok.value)
            if t.kind is not TokenKind.NEWLINE
        ]
        # a directive parser per directive: one held by the parser would
        # point back at it through ``parse_expression``
        return DirectiveParser(self.parse_expression,
                               fortran_sections=True).parse(
            TokenStream(sub_tokens), source=f"!$acc {tok.text}")

    # ------------------------------------------------------------ expressions

    def parse_expression(self, ts: TokenStream) -> Expr:
        return self._parse_binary(ts, 1)

    def _parse_binary(self, ts: TokenStream, min_prec: int) -> Expr:
        """Precedence climbing over :data:`_BINARY`: an expression whose
        operators all bind at least ``min_prec``.

        ``.not.`` (level :data:`_NOT`) may open an operand of ``.or.`` or
        ``.and.``, and a sign (level :data:`_ADD`) may open an additive
        operand.  ``bound`` is the tightest level whose operator may still
        take the expression built so far as its left operand: after a
        comparison or a ``.not.`` only ``.and.`` and ``.or.`` may follow,
        so comparisons do not chain.  ``**`` takes its right operand from
        :meth:`_parse_power_operand`, so it groups to the right.
        """
        tok = ts.current
        if tok.kind is OP and tok.text == ".not." and min_prec <= _NOT:
            ts.advance()
            left: Expr = Unary(op="!", operand=self._parse_binary(ts, _NOT),
                               loc=tok.loc)
            bound = _NOT
        elif tok.kind is OP and tok.text in ("-", "+") and min_prec <= _ADD:
            ts.advance()
            left = self._parse_binary(ts, _ADD + 1)
            if tok.text == "-":
                left = Unary(op="-", operand=left, loc=tok.loc)
            bound = _ADD
        else:
            left = self._parse_primary(ts)
            bound = _POW
        while True:
            tok = ts.current
            entry = _BINARY.get(tok.text) if tok.kind is OP else None
            if entry is None:
                return left
            op, prec = entry
            if not min_prec <= prec <= bound:
                return left
            ts.advance()
            if prec == _POW:
                right = self._parse_power_operand(ts)
            else:
                right = self._parse_binary(ts, prec + 1)
            left = Binary(op=op, left=left, right=right, loc=tok.loc)
            bound = _NOT if prec == _CMP else prec

    def _parse_power_operand(self, ts: TokenStream) -> Expr:
        tok = ts.current
        if tok.is_op("-"):
            ts.advance()
            return Unary(op="-", operand=self._parse_power_operand(ts), loc=tok.loc)
        return self._parse_binary(ts, _POW)

    def _parse_primary(self, ts: TokenStream) -> Expr:
        tok = ts.current
        if tok.kind is TokenKind.INT:
            ts.advance()
            return IntLit(value=tok.value, loc=tok.loc)
        if tok.kind is TokenKind.FLOAT:
            ts.advance()
            value, single = tok.value
            return FloatLit(value=value, single=single, loc=tok.loc)
        if tok.kind is TokenKind.STRING:
            ts.advance()
            return StringLit(value=tok.value, loc=tok.loc)
        if tok.kind is TokenKind.IDENT or tok.is_keyword("real", "integer"):
            # `real(x)`/`int(x)` conversions use type keywords as intrinsics
            ts.advance()
            if ts.current.is_op("("):
                ts.advance()
                args: List[Expr] = []
                if not ts.current.is_op(")"):
                    args.append(self.parse_expression(ts))
                    while ts.match_op(","):
                        args.append(self.parse_expression(ts))
                ts.expect_op(")")
                if tok.text in self._array_names:
                    return Index(base=Ident(name=tok.text, loc=tok.loc), indices=args, loc=tok.loc)
                return Call(name=tok.text, args=args, loc=tok.loc)
            return Ident(name=tok.text, loc=tok.loc)
        if tok.is_op("("):
            ts.advance()
            expr = self.parse_expression(ts)
            ts.expect_op(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)
