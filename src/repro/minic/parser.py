"""mini-C recursive-descent parser.

Parses the C subset used by the generated validation programs into the
shared AST (:mod:`repro.ir.astnodes`).  OpenACC pragmas become structured
:class:`AccConstruct` / :class:`AccLoop` / :class:`AccStandalone` nodes;
``loop``-family directives must be followed by a *canonical* counted loop
(the shape every listing in the paper uses), which is normalised into the
:class:`For` node.  Non-canonical ``for`` loops elsewhere are desugared to
``while`` form.
"""

from __future__ import annotations

from typing import List, Optional

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
    Cast,
    Conditional,
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
from repro.ir.types import C_TYPE_NAMES, Type
from repro.minic.lexer import tokenize

_SIZEOF = {"int": 4, "long": 8, "float": 4, "double": 8, "char": 1, "bool": 4}

_REGION_KINDS = {"parallel", "kernels", "data", "host_data"}
_LOOP_KINDS = {"loop", "parallel loop", "kernels loop"}
_STANDALONE_KINDS = {"update", "wait", "cache", "enter data", "exit data"}
_FUNCSCOPE_KINDS = {"declare", "routine"}

OP, KEYWORD = TokenKind.OP, TokenKind.KEYWORD

#: keywords that open a declaration, and those that open a cast's type
_DECL_START = frozenset(C_TYPE_NAMES) | {"const", "static", "unsigned", "signed"}
_CAST_START = frozenset(C_TYPE_NAMES) | {"const", "unsigned", "signed"}
_UNARY_OPS = frozenset({"-", "+", "!", "~", "*", "&"})

#: binary operator -> precedence, loosest first (conditional `?:` and
#: assignment sit above these and are parsed on their own)
_BINARY_PRECEDENCE = {
    op: prec
    for prec, level in enumerate([
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ], start=1)
    for op in level
}


def parse_program(source: str, filename: str = "<c>", name: str = "<anonymous>") -> Program:
    """Parse a translation unit of mini-C."""
    parser = CParser(tokenize(source, filename))
    return parser.parse_program(name)


def parse_expression_text(source: str) -> Expr:
    """Parse a standalone C expression (used in clause templates and tests)."""
    parser = CParser(tokenize(source, "<expr>"))
    expr = parser.parse_expression(parser.ts)
    if not parser.ts.at_end():
        raise ParseError("trailing tokens after expression", parser.ts.current.loc)
    return expr


class CParser:
    def __init__(self, tokens: List[Token]):
        self.ts = TokenStream(tokens)
        self._current_function: Optional[Function] = None

    # ------------------------------------------------------------------ top

    def parse_program(self, name: str) -> Program:
        program = Program(language="c", name=name)
        pending_declares: List[Directive] = []
        while not self.ts.at_end():
            if self.ts.current.kind is TokenKind.PRAGMA:
                directive = self._parse_directive_token(self.ts.advance())
                if directive.kind in _FUNCSCOPE_KINDS:
                    pending_declares.append(directive)
                    continue
                raise ParseError(
                    f"directive {directive.kind!r} not allowed at file scope",
                    self.ts.current.loc,
                )
            if self.ts.current.is_op(";"):
                self.ts.advance()
                continue
            if not self._at_type():
                raise ParseError(
                    f"expected declaration or function, found {self.ts.current.text!r}",
                    self.ts.current.loc,
                )
            # lookahead: type ident '(' => function definition
            save = self.ts.pos
            ctype = self._parse_type()
            name_tok = self.ts.expect_ident()
            if self.ts.current.is_op("("):
                fn = self._parse_function(ctype, name_tok)
                fn.declares.extend(pending_declares)
                pending_declares = []
                program.functions.append(fn)
            else:
                self.ts.seek(save)
                decl_stmt = self._parse_declaration()
                program.globals.extend(decl_stmt.decls)
        return program

    # ------------------------------------------------------------- functions

    def _parse_function(self, return_type: Type, name_tok: Token) -> Function:
        fn = Function(name=name_tok.text, return_type=return_type, loc=name_tok.loc)
        self.ts.expect_op("(")
        if not self.ts.current.is_op(")"):
            if self.ts.current.is_keyword("void") and self.ts.peek(1).is_op(")"):
                self.ts.advance()
            else:
                fn.params.append(self._parse_param())
                while self.ts.match_op(","):
                    fn.params.append(self._parse_param())
        self.ts.expect_op(")")
        prev = self._current_function
        self._current_function = fn
        try:
            fn.body = self._parse_block()
        finally:
            self._current_function = prev
        return fn

    def _parse_param(self) -> FuncParam:
        ptype = self._parse_type()
        name_tok = self.ts.expect_ident()
        is_array = False
        if self.ts.match_op("["):
            if not self.ts.current.is_op("]"):
                self.parse_expression(self.ts)  # declared extent is ignored
            self.ts.expect_op("]")
            is_array = True
        if ptype.pointer:
            is_array = True
        return FuncParam(name=name_tok.text, type=ptype, is_array=is_array, loc=name_tok.loc)

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> Block:
        open_tok = self.ts.expect_op("{")
        block = Block(loc=open_tok.loc)
        while not self.ts.current.is_op("}"):
            if self.ts.at_end():
                raise ParseError("unterminated block", open_tok.loc)
            stmt = self._parse_statement()
            if stmt is not None:
                block.stmts.append(stmt)
        self.ts.expect_op("}")
        return block

    def _parse_statement(self) -> Optional[Stmt]:
        tok = self.ts.current

        if tok.kind is TokenKind.PRAGMA:
            self.ts.advance()
            return self._parse_acc_statement(tok)

        if tok.is_op("{"):
            return self._parse_block()

        if tok.is_op(";"):
            self.ts.advance()
            return None

        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("return"):
            self.ts.advance()
            value = None
            if not self.ts.current.is_op(";"):
                value = self.parse_expression(self.ts)
            self.ts.expect_op(";")
            return Return(value=value, loc=tok.loc)
        if tok.is_keyword("break"):
            self.ts.advance()
            self.ts.expect_op(";")
            return Break(loc=tok.loc)
        if tok.is_keyword("continue"):
            self.ts.advance()
            self.ts.expect_op(";")
            return Continue(loc=tok.loc)

        if self._at_type():
            return self._parse_declaration()

        stmt = self._parse_expr_or_assign()
        self.ts.expect_op(";")
        return stmt

    def _parse_acc_statement(self, pragma_tok: Token) -> Stmt:
        directive = self._parse_directive_token(pragma_tok)
        kind = directive.kind
        if kind in _REGION_KINDS:
            body = self._parse_statement()
            if body is None:
                body = Block()
            return AccConstruct(directive=directive, body=body, loc=pragma_tok.loc)
        if kind in _LOOP_KINDS:
            stmt = self._parse_following_loop(pragma_tok)
            loop = _extract_canonical_for(stmt)
            acc_loop = AccLoop(directive=directive, loop=loop, loc=pragma_tok.loc)
            if isinstance(stmt, Block):
                # keep the induction-variable declaration from `for (int i = ...)`
                return Block(stmts=stmt.stmts[:-1] + [acc_loop], loc=stmt.loc)
            return acc_loop
        if kind in _STANDALONE_KINDS:
            return AccStandalone(directive=directive, loc=pragma_tok.loc)
        if kind in _FUNCSCOPE_KINDS:
            if self._current_function is not None:
                self._current_function.declares.append(directive)
                return None  # type: ignore[return-value]
            raise ParseError("declare directive outside function", pragma_tok.loc)
        raise ParseError(f"unsupported directive {kind!r}", pragma_tok.loc)

    def _parse_following_loop(self, pragma_tok: Token) -> Stmt:
        # loop directives bind tightly to the following for statement
        if not self.ts.current.is_keyword("for"):
            raise ParseError(
                "OpenACC loop directive must be followed by a for loop",
                pragma_tok.loc,
            )
        stmt = self._parse_for()
        if _extract_canonical_for(stmt) is None:
            raise ParseError(
                "OpenACC loop directive requires a canonical counted loop",
                pragma_tok.loc,
            )
        return stmt

    def _parse_directive_token(self, tok: Token) -> Directive:
        # the payload is lexed where it stands: from its own line and column
        ts = TokenStream(tokenize(tok.text, tok.loc.filename, tok.loc.line,
                                  tok.value))
        # a directive parser per directive: one held by the parser would
        # point back at it through ``parse_expression``
        return DirectiveParser(self.parse_expression).parse(
            ts, source=f"#pragma acc {tok.text}")

    def _parse_if(self) -> If:
        tok = self.ts.expect_keyword("if")
        self.ts.expect_op("(")
        cond = self.parse_expression(self.ts)
        self.ts.expect_op(")")
        then = self._parse_statement() or Block()
        other: Optional[Stmt] = None
        if self.ts.current.is_keyword("else"):
            self.ts.advance()
            other = self._parse_statement() or Block()
        return If(cond=cond, then=then, other=other, loc=tok.loc)

    def _parse_while(self) -> While:
        tok = self.ts.expect_keyword("while")
        self.ts.expect_op("(")
        cond = self.parse_expression(self.ts)
        self.ts.expect_op(")")
        body = self._parse_statement() or Block()
        return While(cond=cond, body=body, loc=tok.loc)

    def _parse_for(self) -> Stmt:
        """Parse a ``for`` and normalise canonical counted loops to For."""
        tok = self.ts.expect_keyword("for")
        self.ts.expect_op("(")

        init_decl: Optional[DeclStmt] = None
        init_assign: Optional[Assign] = None
        if self.ts.current.is_op(";"):
            self.ts.advance()
        elif self._at_type():
            init_decl = self._parse_declaration()  # consumes ';'
        else:
            stmt = self._parse_expr_or_assign()
            if not isinstance(stmt, Assign):
                raise ParseError("for-init must be an assignment", tok.loc)
            init_assign = stmt
            self.ts.expect_op(";")

        cond: Optional[Expr] = None
        if not self.ts.current.is_op(";"):
            cond = self.parse_expression(self.ts)
        self.ts.expect_op(";")

        post: Optional[Assign] = None
        if not self.ts.current.is_op(")"):
            stmt = self._parse_expr_or_assign()
            if not isinstance(stmt, Assign):
                raise ParseError("for-post must be an assignment", tok.loc)
            post = stmt
        self.ts.expect_op(")")

        body = self._parse_statement() or Block()

        canonical = _normalize_for(init_decl, init_assign, cond, post, body, tok)
        if canonical is not None:
            return canonical
        # Desugar general for into init; while(cond){ body; post; }
        stmts: List[Stmt] = []
        if init_decl is not None:
            stmts.append(init_decl)
        if init_assign is not None:
            stmts.append(init_assign)
        loop_body = Block(stmts=[body] + ([post] if post else []))
        stmts.append(While(cond=cond or IntLit(1), body=loop_body, loc=tok.loc))
        return Block(stmts=stmts, loc=tok.loc)

    # ----------------------------------------------------------- declarations

    def _at_type(self) -> bool:
        tok = self.ts.current
        return tok.kind is KEYWORD and tok.text in _DECL_START

    def _parse_type(self) -> Type:
        while self.ts.current.is_keyword("const", "static", "unsigned", "signed"):
            self.ts.advance()
        tok = self.ts.current
        if not tok.is_keyword(*C_TYPE_NAMES):
            raise ParseError(f"expected type name, found {tok.text!r}", tok.loc)
        self.ts.advance()
        base = C_TYPE_NAMES[tok.text]
        # "long long", "long int" etc.
        while self.ts.current.is_keyword("int", "long") and base.base == "long":
            self.ts.advance()
        pointer = 0
        while self.ts.match_op("*"):
            pointer += 1
        return Type(base.base, pointer)

    def _parse_declaration(self) -> DeclStmt:
        start = self.ts.current
        base = self._parse_type()
        decls: List[VarDecl] = []
        while True:
            ptr_extra = 0
            while self.ts.match_op("*"):
                ptr_extra += 1
            name_tok = self.ts.expect_ident()
            dims: List[Expr] = []
            while self.ts.match_op("["):
                dims.append(self.parse_expression(self.ts))
                self.ts.expect_op("]")
            init: Optional[Expr] = None
            if self.ts.match_op("="):
                init = self.parse_expression(self.ts)
            decls.append(
                VarDecl(
                    name=name_tok.text,
                    type=Type(base.base, base.pointer + ptr_extra),
                    dims=dims,
                    init=init,
                    loc=name_tok.loc,
                )
            )
            if not self.ts.match_op(","):
                break
        self.ts.expect_op(";")
        return DeclStmt(decls=decls, loc=start.loc)

    # ------------------------------------------------------------ expressions

    def _parse_expr_or_assign(self) -> Stmt:
        tok = self.ts.current
        if tok.is_op("++", "--"):
            self.ts.advance()
            target = self._parse_unary(self.ts)
            return Assign(target=target, value=IntLit(1), op="+" if tok.text == "++" else "-", loc=tok.loc)
        expr = self.parse_expression(self.ts)
        cur = self.ts.current
        if cur.is_op("="):
            self.ts.advance()
            value = self.parse_expression(self.ts)
            return Assign(target=expr, value=value, op="", loc=cur.loc)
        if cur.is_op("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):
            self.ts.advance()
            value = self.parse_expression(self.ts)
            return Assign(target=expr, value=value, op=cur.text[:-1], loc=cur.loc)
        if cur.is_op("++", "--"):
            self.ts.advance()
            return Assign(target=expr, value=IntLit(1), op="+" if cur.text == "++" else "-", loc=cur.loc)
        return ExprStmt(expr=expr, loc=tok.loc)

    def parse_expression(self, ts: TokenStream) -> Expr:
        return self._parse_conditional(ts)

    def _parse_conditional(self, ts: TokenStream) -> Expr:
        cond = self._parse_binary(ts, 1)
        if ts.current.is_op("?"):
            tok = ts.advance()
            then = self.parse_expression(ts)
            ts.expect_op(":")
            other = self._parse_conditional(ts)
            return Conditional(cond=cond, then=then, other=other, loc=tok.loc)
        return cond

    def _parse_binary(self, ts: TokenStream, min_prec: int) -> Expr:
        """Pratt-style precedence climbing over :data:`_BINARY_PRECEDENCE`:
        the operators binding at least ``min_prec``, all left-associative."""
        left = self._parse_unary(ts)
        while True:
            tok = ts.current
            prec = _BINARY_PRECEDENCE.get(tok.text) if tok.kind is OP else None
            if prec is None or prec < min_prec:
                return left
            ts.advance()
            right = self._parse_binary(ts, prec + 1)
            left = Binary(op=tok.text, left=left, right=right, loc=tok.loc)

    def _parse_unary(self, ts: TokenStream) -> Expr:
        tok = ts.current
        if tok.kind is OP:
            if tok.text in _UNARY_OPS:
                ts.advance()
                operand = self._parse_unary(ts)
                if tok.text == "+":
                    return operand
                return Unary(op=tok.text, operand=operand, loc=tok.loc)
            if tok.text == "(" and self._paren_is_cast(ts):
                ts.advance()
                ctype = self._parse_type()
                ts.expect_op(")")
                operand = self._parse_unary(ts)
                return Cast(type=ctype, operand=operand, loc=tok.loc)
        elif tok.kind is KEYWORD and tok.text == "sizeof":
            ts.advance()
            ts.expect_op("(")
            inner = self._parse_type()
            ts.expect_op(")")
            return IntLit(_SIZEOF[inner.base] if inner.pointer == 0 else 8, loc=tok.loc)
        return self._parse_postfix(ts)

    def _paren_is_cast(self, ts: TokenStream) -> bool:
        nxt = ts.peek(1)
        return nxt.kind is KEYWORD and nxt.text in _CAST_START

    def _parse_postfix(self, ts: TokenStream) -> Expr:
        expr = self._parse_primary(ts)
        while True:
            tok = ts.current
            if tok.kind is not OP:
                return expr
            if tok.text == "[":
                ts.advance()
                index = self.parse_expression(ts)
                ts.expect_op("]")
                if isinstance(expr, Index):
                    expr.indices.append(index)
                else:
                    expr = Index(base=expr, indices=[index], loc=tok.loc)
            elif tok.text == "(" and isinstance(expr, Ident):
                ts.advance()
                args: List[Expr] = []
                if not ts.current.is_op(")"):
                    args.append(self.parse_expression(ts))
                    while ts.match_op(","):
                        args.append(self.parse_expression(ts))
                ts.expect_op(")")
                expr = Call(name=expr.name, args=args, loc=tok.loc)
            else:
                return expr

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
        if tok.kind is TokenKind.IDENT:
            ts.advance()
            return Ident(name=tok.text, loc=tok.loc)
        if tok.is_op("("):
            ts.advance()
            expr = self.parse_expression(ts)
            ts.expect_op(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)


# ---------------------------------------------------------------------------
# canonical loop normalisation
# ---------------------------------------------------------------------------

def _normalize_for(
    init_decl: Optional[DeclStmt],
    init_assign: Optional[Assign],
    cond: Optional[Expr],
    post: Optional[Assign],
    body: Stmt,
    tok: Token,
) -> Optional[Stmt]:
    """Recognise ``for (i = lo; i REL hi; i STEP)`` and build a For node.

    Returns None if the loop is not canonical.  When the induction variable
    is declared in the init, the declaration wraps the loop in a Block.
    """
    var: Optional[str] = None
    start: Optional[Expr] = None
    wrapper_decl: Optional[DeclStmt] = None

    if init_decl is not None:
        if len(init_decl.decls) != 1 or init_decl.decls[0].init is None:
            return None
        decl = init_decl.decls[0]
        var, start = decl.name, decl.init
        wrapper_decl = DeclStmt(
            decls=[VarDecl(name=decl.name, type=decl.type, loc=decl.loc)],
            loc=init_decl.loc,
        )
    elif init_assign is not None:
        if not isinstance(init_assign.target, Ident) or init_assign.op:
            return None
        var, start = init_assign.target.name, init_assign.value
    else:
        return None

    if cond is None or not isinstance(cond, Binary):
        return None
    if not isinstance(cond.left, Ident) or cond.left.name != var:
        return None
    if cond.op not in ("<", "<=", ">", ">="):
        return None
    bound = cond.right
    inclusive = cond.op in ("<=", ">=")
    descending = cond.op in (">", ">=")

    if post is None or not isinstance(post.target, Ident) or post.target.name != var:
        return None
    step: Optional[Expr] = None
    if post.op == "+":
        step = post.value
    elif post.op == "-":
        step = Unary(op="-", operand=post.value)
    elif post.op == "" and isinstance(post.value, Binary):
        b = post.value
        if isinstance(b.left, Ident) and b.left.name == var and b.op in ("+", "-"):
            step = b.right if b.op == "+" else Unary(op="-", operand=b.right)
    if step is None:
        return None
    if descending and not (isinstance(step, Unary) and step.op == "-"):
        # ascending step with a '>' condition is not canonical
        return None

    loop = For(
        var=var,
        start=start,
        bound=bound,
        step=step,
        body=body,
        inclusive=inclusive,
        loc=tok.loc,
    )
    if wrapper_decl is not None:
        return Block(stmts=[wrapper_decl, loop], loc=tok.loc)
    return loop


def _extract_canonical_for(stmt: Stmt) -> Optional[For]:
    """Unwrap the For from a possibly Block-wrapped canonical loop."""
    if isinstance(stmt, For):
        return stmt
    if isinstance(stmt, Block) and stmt.stmts:
        last = stmt.stmts[-1]
        if isinstance(last, For) and all(
            isinstance(s, DeclStmt) for s in stmt.stmts[:-1]
        ):
            return last
    return None
