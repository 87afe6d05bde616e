"""Tests for the mini-Fortran frontend."""

import pytest

from repro.frontend.errors import LexError, ParseError
from repro.frontend.tokens import TokenKind
from repro.ir import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Call,
    DeclStmt,
    For,
    Ident,
    If,
    Index,
    IntLit,
    Return,
    Unary,
    While,
    walk,
)
from repro.minifort import parse_expression_text, parse_program, tokenize
from tests.sexpr import sexpr


class TestLexer:
    def test_case_insensitive_keywords(self):
        toks = tokenize("PROGRAM Foo\nEND Program foo")
        assert toks[0].is_keyword("program")
        assert toks[1].is_ident("foo")

    def test_dot_operators(self):
        toks = tokenize("a .and. b .eq. c")
        texts = [t.text for t in toks if t.kind is TokenKind.OP]
        assert texts == [".and.", ".eq."]

    def test_logical_literals(self):
        toks = tokenize(".true. .false.")
        assert toks[0].value == 1 and toks[1].value == 0

    def test_double_exponent(self):
        toks = tokenize("1.5d3 2.0e-2 7")
        value, single = toks[0].value
        assert value == 1500.0 and single is False  # d => double
        value, single = toks[1].value
        assert value == pytest.approx(0.02) and single is True
        assert toks[2].value == 7

    def test_comment_to_eol(self):
        toks = tokenize("x = 1 ! a comment\ny = 2")
        texts = [t.text for t in toks if t.kind is TokenKind.IDENT]
        assert texts == ["x", "y"]

    def test_acc_sentinel_not_comment(self):
        toks = tokenize("!$acc parallel num_gangs(4)\nx = 1")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].text.startswith("parallel")

    def test_acc_continuation(self):
        src = "!$acc parallel copy(a) &\n!$acc&  num_gangs(2)\nx = 1\n"
        toks = tokenize(src)
        assert "num_gangs(2)" in toks[0].text

    def test_continued_directive_sits_on_its_first_line(self):
        toks = tokenize("x = 1\n!$acc parallel copy(a) &\n!$acc& num_gangs(2)\n"
                        "y = 2\n", "t.f")
        pragma = toks[4]
        assert pragma.kind is TokenKind.PRAGMA
        assert pragma.text == "parallel copy(a) num_gangs(2)"
        assert (pragma.loc.line, pragma.loc.column, pragma.value) == (2, 1, 7)
        assert next(t for t in toks if t.text == "y").loc.line == 4

    def test_code_continuation(self):
        toks = tokenize("x = 1 + &\n    2\n")
        values = [t.value for t in toks if t.kind is TokenKind.INT]
        assert values == [1, 2]

    def test_continued_line_tokens_stand_where_they_are_written(self):
        toks = tokenize("x = 1 + &\n    2\ny = 3\n")
        where = {t.text: (t.loc.line, t.loc.column) for t in toks
                 if t.kind is not TokenKind.NEWLINE}
        assert where["2"] == (2, 5)
        assert where["y"] == (3, 1)
        assert where[""] == (4, 1)  # EOF after the last physical line

    def test_leading_ampersand_continuation_columns(self):
        toks = tokenize("call f(a, &\n   & b, &\n  c)\n", "t.f", 5, 3)
        where = [(t.text, t.loc.line, t.loc.column) for t in toks
                 if t.kind is TokenKind.IDENT]
        assert where == [("f", 5, 8), ("a", 5, 10), ("b", 6, 6), ("c", 7, 3)]

    def test_semicolon_separates(self):
        toks = tokenize("x = 1; y = 2")
        newlines = [t for t in toks if t.kind is TokenKind.NEWLINE]
        assert len(newlines) >= 2

    def test_string_doubling(self):
        toks = tokenize("s = 'it''s'")
        literal = next(t for t in toks if t.kind is TokenKind.STRING)
        assert literal.value == "it's"


class TestLexErrors:
    """Every LexError the lexer raises: exact message and location."""

    @pytest.mark.parametrize("source, message", [
        ("x = 'abc", "t.f:1:5: unterminated string"),
        ('program p\n  s = "ab""\n', "t.f:2:7: unterminated string"),
        ("x = 1 @ 2", "t.f:1:7: unexpected character '@'"),
        ("x = 1\n\ty = a & b", "t.f:2:8: unexpected character '&'"),
        ("!$acc parallel\nx = 1 # 2", "t.f:2:7: unexpected character '#'"),
        ("x = 1 + &\n  2\ny = 3\nz = @\n",
         "t.f:4:5: unexpected character '@'"),
        ("x = 1 + &\n  2 @\n", "t.f:2:5: unexpected character '@'"),
    ])
    def test_message_and_location(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize(source, "t.f")
        assert str(info.value) == message
        line, column = (int(part) for part in message.split(":")[1:3])
        assert (info.value.loc.line, info.value.loc.column) == (line, column)

    def test_error_inside_a_directive_points_at_the_source(self):
        # the payload is lexed in place, so its errors carry real positions
        source = ("program t\n  integer a\n  !$acc parallel copy(a@)\n"
                  "  a = 1\n  !$acc end parallel\nend program t\n")
        with pytest.raises(LexError) as info:
            parse_program(source, "t.f")
        assert str(info.value) == "t.f:3:24: unexpected character '@'"
        assert source.split("\n")[2][23] == "@"


class TestPrecedence:
    @pytest.mark.parametrize("text, shape", [
        ("2**3**2", "(** 2 (** 3 2))"),
        ("-a**2", "(- (** a 2))"),
        ("-a*b", "(- (* a b))"),
        ("-a + b", "(+ (- a) b)"),
        ("+a * b", "(* a b)"),
        ("a - b - c", "(- (- a b) c)"),
        ("a - b + c", "(+ (- a b) c)"),
        ("a * b / c", "(/ (* a b) c)"),
        ("a / b * c", "(* (/ a b) c)"),
        ("a + b * c", "(+ a (* b c))"),
        ("a * b ** c", "(* a (** b c))"),
        ("a ** b * c", "(* (** a b) c)"),
        ("a ** -b", "(** a (- b))"),
        ("2 ** -b ** 2", "(** 2 (- (** b 2)))"),
        ("a + b .lt. c * d", "(< (+ a b) (* c d))"),
        (".not. a .and. b", "(&& (! a) b)"),
        (".not. a == b", "(! (== a b))"),
        (".not. .not. a", "(! (! a))"),
        ("a .and. .not. b", "(&& a (! b))"),
        ("a .or. b .and. c", "(|| a (&& b c))"),
        ("a .and. b .or. c", "(|| (&& a b) c)"),
        ("a .or. b .or. c", "(|| (|| a b) c)"),
        ("a .and. b .and. c", "(&& (&& a b) c)"),
        ("(a .or. b) .and. c", "(&& (|| a b) c)"),
        ("-(a + b) ** 2", "(- (** (+ a b) 2))"),
    ])
    def test_levels_and_associativity(self, text, shape):
        assert sexpr(parse_expression_text(text)) == shape

    @pytest.mark.parametrize("spelling, op", [
        (".eq.", "=="), ("==", "=="), (".ne.", "!="), ("/=", "!="),
        (".lt.", "<"), ("<", "<"), (".le.", "<="), ("<=", "<="),
        (".gt.", ">"), (">", ">"), (".ge.", ">="), (">=", ">="),
    ])
    def test_comparisons_sit_between_additive_and_not(self, spelling, op):
        e = parse_expression_text(f".not. a + b {spelling} c * d")
        assert sexpr(e) == f"(! ({op} (+ a b) (* c d)))"

    @pytest.mark.parametrize("text, message", [
        ("a < b < c", "<expr>:1:7: trailing tokens after expression"),
        ("a * -b", "<expr>:1:5: unexpected token '-' in expression"),
        ("a - -b", "<expr>:1:5: unexpected token '-' in expression"),
        ("a .and.", "<expr>:1:8: unexpected token '\\n' in expression"),
    ])
    def test_rejected_shapes(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_expression_text(text)
        assert str(info.value) == message


class TestExpressions:
    def test_comparison_spellings(self):
        for text in ("a .lt. b", "a < b"):
            e = parse_expression_text(text)
            assert isinstance(e, Binary) and e.op == "<"

    def test_logical_mapping(self):
        e = parse_expression_text("a .and. b .or. c")
        assert e.op == "||" and e.left.op == "&&"

    def test_power_right_assoc(self):
        e = parse_expression_text("2 ** 3 ** 2")
        assert e.op == "**"
        assert isinstance(e.right, Binary) and e.right.op == "**"

    def test_not(self):
        e = parse_expression_text(".not. a")
        assert isinstance(e, Unary) and e.op == "!"

    def test_unary_minus(self):
        e = parse_expression_text("-a + b")
        assert e.op == "+" and isinstance(e.left, Unary)


def _parse(src: str):
    return parse_program(src)


class TestUnits:
    def test_program_becomes_main(self):
        prog = _parse("program t\nmain = 1\nend program t\n")
        assert prog.main.name == "main"
        assert prog.language == "fortran"
        # implicit declaration of `main` and trailing return
        assert isinstance(prog.main.body.stmts[0], DeclStmt)
        assert isinstance(prog.main.body.stmts[-1], Return)

    def test_function_result_convention(self):
        prog = _parse(
            "integer function twice(x)\n  integer :: x\n  twice = 2 * x\nend function twice\n"
        )
        fn = prog.function("twice")
        assert fn.params[0].name == "x"
        assert isinstance(fn.body.stmts[-1], Return)

    def test_subroutine(self):
        prog = _parse(
            "subroutine s(a, n)\n  integer :: n\n  integer :: a(n)\n  a(1) = n\nend subroutine s\n"
        )
        fn = prog.function("s")
        assert fn.params[1].name == "n"
        assert fn.params[0].is_array

    def test_multiple_units(self):
        prog = _parse(
            "program p\ncall s()\nend program p\n\nsubroutine s()\nend subroutine s\n"
        )
        assert [f.name for f in prog.functions] == ["main", "s"]


class TestStatements:
    def test_do_loop_inclusive(self):
        prog = _parse("program t\ninteger :: i, s\ns = 0\ndo i = 1, 10\ns = s + i\nend do\nend program t\n")
        loop = next(s for s in walk(prog.main) if isinstance(s, For))
        assert loop.inclusive and loop.var == "i"

    def test_do_loop_step(self):
        prog = _parse("program t\ninteger :: i\ndo i = 10, 1, -2\nend do\nend program t\n")
        loop = next(s for s in walk(prog.main) if isinstance(s, For))
        assert isinstance(loop.step, Unary)

    def test_do_while(self):
        prog = _parse("program t\ninteger :: x\nx = 1\ndo while (x < 5)\nx = x + 1\nend do\nend program t\n")
        assert any(isinstance(s, While) for s in walk(prog.main))

    def test_if_elseif_else(self):
        src = """
program t
  integer :: a, r
  a = 2
  if (a == 1) then
    r = 1
  else if (a == 2) then
    r = 2
  else
    r = 3
  end if
  main = r
end program t
"""
        prog = _parse(src)
        conditionals = [s for s in walk(prog.main) if isinstance(s, If)]
        assert len(conditionals) == 2

    def test_one_line_if(self):
        prog = _parse("program t\ninteger :: a\na = 0\nif (a == 0) a = 5\nend program t\n")
        assert any(isinstance(s, If) for s in walk(prog.main))

    def test_array_decl_bounds(self):
        prog = _parse("program t\ninteger :: a(10), b(0:9)\nend program t\n")
        decl = next(s for s in walk(prog.main) if isinstance(s, DeclStmt) and len(s.decls) == 2)
        a, b = decl.decls
        assert a.lowers == [None]
        assert b.lowers[0].value == 0

    def test_dimension_attribute(self):
        prog = _parse("program t\ninteger, dimension(5) :: v\nv(1) = 2\nend program t\n")
        assigns = [s for s in walk(prog.main) if isinstance(s, Assign)]
        assert any(isinstance(s.target, Index) for s in assigns)

    def test_array_vs_call_disambiguation(self):
        prog = _parse(
            "program t\ninteger :: a(5), x\na(2) = 1\nx = a(2) + foo(2)\nend program t\n"
        )
        exprs = [n for n in walk(prog.main)]
        assert any(isinstance(n, Index) for n in exprs)
        assert any(isinstance(n, Call) and n.name == "foo" for n in exprs)

    def test_exit_cycle(self):
        src = "program t\ninteger :: i\ndo i = 1, 10\nif (i == 5) exit\nif (i == 2) cycle\nend do\nend program t\n"
        prog = _parse(src)
        from repro.ir import Break, Continue
        assert any(isinstance(s, Break) for s in walk(prog.main))
        assert any(isinstance(s, Continue) for s in walk(prog.main))

    def test_implicit_none_skipped(self):
        prog = _parse("program t\nimplicit none\ninteger :: x\nend program t\n")
        assert prog.main is not None

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            _parse("program t\ninteger :: x\n")


class TestPragmas:
    def test_region_with_end(self):
        src = """
program t
  integer :: a
  a = 0
  !$acc parallel copy(a)
  a = 1
  !$acc end parallel
end program t
"""
        prog = _parse(src)
        constructs = [s for s in walk(prog.main) if isinstance(s, AccConstruct)]
        assert len(constructs) == 1

    def test_missing_end_directive_raises(self):
        src = "program t\ninteger :: a\n!$acc parallel\na = 1\nend program t\n"
        with pytest.raises(ParseError):
            _parse(src)

    def test_mismatched_end_raises(self):
        src = ("program t\ninteger :: a\n!$acc parallel\na = 1\n"
               "!$acc end kernels\nend program t\n")
        with pytest.raises(ParseError):
            _parse(src)

    def test_loop_binds_to_do(self):
        src = """
program t
  integer :: i, a(5)
  !$acc parallel copy(a(1:5))
  !$acc loop
  do i = 1, 5
    a(i) = i
  end do
  !$acc end parallel
end program t
"""
        prog = _parse(src)
        loops = [s for s in walk(prog.main) if isinstance(s, AccLoop)]
        assert len(loops) == 1

    def test_fortran_sections_normalised(self):
        src = """
program t
  integer :: a(10)
  !$acc data copy(a(2:7))
  !$acc end data
end program t
"""
        prog = _parse(src)
        construct = next(s for s in walk(prog.main) if isinstance(s, AccConstruct))
        section = construct.directive.clause("copy").refs[0].sections[0]
        assert section.start.value == 2
        # length is hi - lo + 1 as an expression tree
        assert isinstance(section.length, Binary)

    def test_combined_optional_end(self):
        src = """
program t
  integer :: i, a(5)
  !$acc parallel loop copy(a(1:5))
  do i = 1, 5
    a(i) = i
  end do
  !$acc end parallel loop
end program t
"""
        prog = _parse(src)
        loops = [s for s in walk(prog.main) if isinstance(s, AccLoop)]
        assert loops[0].directive.kind == "parallel loop"

    def test_standalone_update(self):
        src = """
program t
  integer :: a(5)
  !$acc update host(a(1:5))
end program t
"""
        prog = _parse(src)
        assert any(isinstance(s, AccStandalone) for s in walk(prog.main))

    def test_fortran_reduction_spellings(self):
        src = """
program t
  integer :: i, v
  v = 1
  !$acc parallel loop reduction(iand:v)
  do i = 1, 5
    v = iand(v, i)
  end do
  !$acc end parallel loop
end program t
"""
        prog = _parse(src)
        loop = next(s for s in walk(prog.main) if isinstance(s, AccLoop))
        assert loop.directive.clause("reduction").op == "iand"
