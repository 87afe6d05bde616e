"""Language-parameterised OpenACC directive parser.

Both frontends delegate the part after the ``acc`` sentinel to this parser,
supplying their own expression parser and array-section convention:

* C sections are ``a[start:length]``;
* Fortran sections are ``a(lo:hi)`` and are normalised to start/length form
  (``start = lo``, ``length = hi - lo + 1``) so the rest of the pipeline sees
  one representation.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.frontend.errors import ParseError
from repro.frontend.tokens import TokenKind, TokenStream
from repro.ir.acc import Clause, DataRef, Directive, Section, normalize_clause_name
from repro.ir.astnodes import Binary, Expr, IntLit

#: clauses taking a single scalar expression argument
EXPR_CLAUSES = {
    "if", "num_gangs", "num_workers", "vector_length", "collapse", "wait",
}
#: clauses where the parenthesised expression is optional
OPTIONAL_EXPR_CLAUSES = {"async", "gang", "worker", "vector", "wait"}
#: clauses taking a list of (possibly sectioned) variable references
REF_CLAUSES = {
    "copy", "copyin", "copyout", "create", "present",
    "present_or_copy", "present_or_copyin", "present_or_copyout",
    "present_or_create", "deviceptr", "device_resident", "delete",
    "private", "firstprivate", "use_device", "host", "device", "cache",
}
#: bare clauses with no argument
BARE_CLAUSES = {"seq", "independent", "auto"}

#: scalar-argument clauses that may appear at most once per directive;
#: `num_gangs(2) num_gangs(4)` is ambiguous, not additive.  `wait` is
#: deliberately absent: multiple wait arguments name multiple queues.
UNIQUE_CLAUSES = {
    "if", "async", "num_gangs", "num_workers", "vector_length",
    "collapse", "default",
}

#: multi-word directive kinds, longest match first
_MULTIWORD = [
    ("parallel", "loop"),
    ("kernels", "loop"),
    ("enter", "data"),
    ("exit", "data"),
]
_SINGLE = [
    "parallel", "kernels", "data", "host_data", "loop", "cache",
    "declare", "update", "wait", "routine",
]


class DirectiveParser:
    """Parses one directive line (already split from the host language).

    Parameters
    ----------
    parse_expr:
        Callback parsing one scalar expression from a :class:`TokenStream`.
    fortran_sections:
        When True, sections use the Fortran ``(lo:hi)`` convention.
    """

    def __init__(
        self,
        parse_expr: Callable[[TokenStream], Expr],
        fortran_sections: bool = False,
    ):
        self._parse_expr = parse_expr
        self._fortran = fortran_sections

    # -- entry point ---------------------------------------------------------

    def parse(self, ts: TokenStream, source: str = "") -> Directive:
        kind = self._parse_kind(ts)
        directive = Directive(kind=kind, source=source, loc=ts.current.loc)
        # `cache(...)` and `wait(...)` take their argument directly after the
        # directive name.
        if kind == "cache":
            ts.expect_op("(")
            directive.clauses.append(
                Clause("cache", refs=self._parse_ref_list(ts))
            )
            ts.expect_op(")")
        elif kind == "wait" and ts.current.is_op("("):
            ts.advance()
            directive.clauses.append(Clause("wait", expr=self._parse_expr(ts)))
            ts.expect_op(")")
        while not ts.at_end():
            if ts.match_op(","):
                continue
            clause = self._parse_clause(ts)
            if clause.name in UNIQUE_CLAUSES and directive.has_clause(clause.name):
                raise ParseError(
                    f"duplicate clause {clause.name!r} on directive "
                    f"{kind!r}: a single-valued clause may appear only once",
                    clause.loc,
                )
            directive.clauses.append(clause)
        return directive

    # -- pieces ---------------------------------------------------------------

    def _parse_kind(self, ts: TokenStream) -> str:
        tok = ts.current
        if tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise ParseError(f"expected directive name, found {tok.text!r}", tok.loc)
        first = tok.text.lower()
        for a, b in _MULTIWORD:
            if first == a and ts.peek(1).text.lower() == b:
                ts.advance()
                ts.advance()
                return f"{a} {b}"
        if first in _SINGLE:
            ts.advance()
            return first
        raise ParseError(f"unknown OpenACC directive {first!r}", tok.loc)

    def _parse_clause(self, ts: TokenStream) -> Clause:
        tok = ts.current
        if tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise ParseError(f"expected clause name, found {tok.text!r}", tok.loc)
        ts.advance()
        name = normalize_clause_name(tok.text.lower())
        loc = tok.loc

        if name == "reduction":
            ts.expect_op("(")
            op = self._parse_reduction_op(ts)
            ts.expect_op(":")
            refs = self._parse_ref_list(ts)
            ts.expect_op(")")
            return Clause("reduction", op=op, refs=refs, loc=loc)

        if name == "default":
            ts.expect_op("(")
            kw = ts.advance()
            ts.expect_op(")")
            return Clause("default", op=kw.text.lower(), loc=loc)

        if name in REF_CLAUSES:
            ts.expect_op("(")
            refs = self._parse_ref_list(ts)
            ts.expect_op(")")
            return Clause(name, refs=refs, loc=loc)

        if name in EXPR_CLAUSES and name not in OPTIONAL_EXPR_CLAUSES:
            ts.expect_op("(")
            expr = self._parse_expr(ts)
            ts.expect_op(")")
            return Clause(name, expr=expr, loc=loc)

        if name in OPTIONAL_EXPR_CLAUSES:
            if ts.current.is_op("("):
                ts.advance()
                expr = self._parse_expr(ts)
                ts.expect_op(")")
                return Clause(name, expr=expr, loc=loc)
            return Clause(name, loc=loc)

        if name in BARE_CLAUSES:
            return Clause(name, loc=loc)

        raise ParseError(f"unknown OpenACC clause {tok.text!r}", loc)

    def _parse_reduction_op(self, ts: TokenStream) -> str:
        tok = ts.current
        # operators: + * & | ^ && || ; intrinsics: max min iand ior ieor
        # Fortran logicals: .and. .or. (lexed as OP '.and.'/'.or.')
        if tok.kind is TokenKind.OP and tok.text in (
            "+", "*", "&", "|", "^", "&&", "||", ".and.", ".or.",
        ):
            ts.advance()
            return tok.text
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD) and tok.text.lower() in (
            "max", "min", "iand", "ior", "ieor",
        ):
            ts.advance()
            return tok.text.lower()
        raise ParseError(f"unknown reduction operator {tok.text!r}", tok.loc)

    def _parse_ref_list(self, ts: TokenStream) -> List[DataRef]:
        refs = [self._parse_ref(ts)]
        while ts.match_op(","):
            refs.append(self._parse_ref(ts))
        return refs

    def _parse_ref(self, ts: TokenStream) -> DataRef:
        name_tok = ts.expect_ident()
        ref = DataRef(name=name_tok.text, loc=name_tok.loc)
        open_br, close_br = ("(", ")") if self._fortran else ("[", "]")
        if self._fortran:
            # A bare name or `name(sec, sec)`; stop if the paren does not
            # look like a section list (plain scalar refs have no parens).
            if ts.current.is_op("("):
                ts.advance()
                ref.sections.append(self._parse_section(ts))
                while ts.match_op(","):
                    ref.sections.append(self._parse_section(ts))
                ts.expect_op(")")
        else:
            while ts.current.is_op("["):
                ts.advance()
                ref.sections.append(self._parse_section(ts))
                ts.expect_op("]")
        return ref

    def _parse_section(self, ts: TokenStream) -> Section:
        start: Optional[Expr] = None
        length: Optional[Expr] = None
        if not ts.current.is_op(":"):
            start = self._parse_expr(ts)
        if ts.match_op(":"):
            if not (ts.current.is_op(")") or ts.current.is_op("]") or ts.current.is_op(",")):
                second = self._parse_expr(ts)
                if self._fortran:
                    # (lo:hi) -> start=lo, length = hi - lo + 1
                    lo = start if start is not None else IntLit(1)
                    length = Binary(
                        "+", Binary("-", second, lo), IntLit(1)
                    )
                    start = lo
                else:
                    length = second
        elif start is not None and not self._fortran:
            # C `[i]` single element
            length = IntLit(1)
        elif start is not None and self._fortran:
            # Fortran `(i)` single element
            length = IntLit(1)
        return Section(start=start, length=length)
