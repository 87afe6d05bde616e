"""Tests for the mini-C frontend (lexer + parser + pragma handling)."""

import pytest

from repro.frontend.errors import LexError, ParseError
from repro.frontend.tokens import TokenKind
from repro.ir import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Call,
    Cast,
    Conditional,
    DeclStmt,
    For,
    Ident,
    If,
    Index,
    IntLit,
    FloatLit,
    Return,
    Unary,
    While,
    walk,
)
from repro.minic import parse_expression_text, parse_program, tokenize
from tests.sexpr import sexpr


class TestLexer:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("int foo while bar")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert kinds == [
            (TokenKind.KEYWORD, "int"), (TokenKind.IDENT, "foo"),
            (TokenKind.KEYWORD, "while"), (TokenKind.IDENT, "bar"),
        ]

    def test_numbers(self):
        toks = tokenize("42 0x1F 3.5 1.E-9 2.0f 7f")
        assert toks[0].value == 42
        assert toks[1].value == 31
        assert toks[2].value == (3.5, False)
        assert toks[3].value == (1e-9, False)
        assert toks[4].value == (2.0, True)
        assert toks[5].value == (7.0, True)

    def test_operators_maximal_munch(self):
        toks = tokenize("a+++b")  # a ++ + b
        texts = [t.text for t in toks[:-1]]
        assert texts == ["a", "++", "+", "b"]

    def test_comments_skipped(self):
        toks = tokenize("a // line\n/* block\nstill */ b")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["a", "b"]

    def test_pragma_token_captures_payload(self):
        toks = tokenize("#pragma acc parallel num_gangs(4)\nx;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].text == "parallel num_gangs(4)"

    def test_pragma_backslash_continuation(self):
        src = "#pragma acc parallel copy(a) \\\n    num_gangs(2)\n"
        toks = tokenize(src)
        assert toks[0].kind is TokenKind.PRAGMA
        assert "num_gangs(2)" in toks[0].text

    def test_include_lines_ignored(self):
        toks = tokenize("#include <stdio.h>\nint x;")
        assert toks[0].text == "int"

    def test_string_and_char_literals(self):
        toks = tokenize(r'"a\nb" ' + r"'x'")
        assert toks[0].value == "a\nb"
        assert toks[1].value == ord("x")

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unexpected_char_raises(self):
        with pytest.raises(LexError):
            tokenize("int a @ b;")


class TestLexErrors:
    """Every LexError the lexer raises: exact message and location."""

    @pytest.mark.parametrize("source, message", [
        ("int a; /* open\ncomment", "t.c:1:8: unterminated block comment"),
        ("int a;\n  s = \"abc;\n", "t.c:2:7: unterminated string literal"),
        ("c = 'ab';", "t.c:1:5: unterminated char literal"),
        ("c = '", "t.c:1:5: unterminated char literal"),
        ("int a @ b;", "t.c:1:7: unexpected character '@'"),
        ("x;\n\tint `", "t.c:2:6: unexpected character '`'"),
        ("#pragma acc parallel \\\n  copy(a)\n$", "t.c:3:1: unexpected character '$'"),
    ])
    def test_message_and_location(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize(source, "t.c")
        assert str(info.value) == message
        line, column = (int(part) for part in message.split(":")[1:3])
        assert (info.value.loc.line, info.value.loc.column) == (line, column)

    def test_error_inside_a_directive_points_at_the_source(self):
        # the payload is lexed in place, so its errors carry real positions
        source = "int main() {\n  #pragma acc parallel copy(a@)\n  ;\n}\n"
        with pytest.raises(LexError) as info:
            parse_program(source, "t.c")
        assert str(info.value) == "t.c:2:30: unexpected character '@'"
        assert source.split("\n")[1][29] == "@"


#: the binary levels, loosest first, one row per level
_C_LEVELS = [
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
]


class TestPrecedence:
    @pytest.mark.parametrize("op", [op for level in _C_LEVELS for op in level])
    def test_every_binary_operator_is_left_associative(self, op):
        e = parse_expression_text(f"a {op} b {op} c")
        assert sexpr(e) == f"({op} ({op} a b) c)"

    @pytest.mark.parametrize("level", _C_LEVELS)
    def test_operators_of_one_level_group_left(self, level):
        first, last = level[0], level[-1]
        e = parse_expression_text(f"a {last} b {first} c")
        assert sexpr(e) == f"({first} ({last} a b) c)"

    @pytest.mark.parametrize("loose, tight", [
        (lo, hi) for lo_level, hi_level in zip(_C_LEVELS, _C_LEVELS[1:])
        for lo in lo_level for hi in hi_level
    ])
    def test_each_level_binds_tighter_than_the_one_before(self, loose, tight):
        assert sexpr(parse_expression_text(f"a {loose} b {tight} c")) == \
            f"({loose} a ({tight} b c))"
        assert sexpr(parse_expression_text(f"a {tight} b {loose} c")) == \
            f"({loose} ({tight} a b) c)"

    @pytest.mark.parametrize("text, shape", [
        ("a ? b : c ? d : e", "(? a b (? c d e))"),
        ("a ? b ? c : d : e", "(? a (? b c d) e)"),
        ("a || b ? c : d", "(? (|| a b) c d)"),
        ("a ? b : c + d", "(? a b (+ c d))"),
    ])
    def test_conditional_is_loosest_and_right_associative(self, text, shape):
        assert sexpr(parse_expression_text(text)) == shape

    @pytest.mark.parametrize("text, shape", [
        ("-a * b", "(* (- a) b)"),
        ("!a && b", "(&& (! a) b)"),
        ("~a & b", "(& (~ a) b)"),
        ("*p + *q", "(+ (* p) (* q))"),
        ("a - -b", "(- a (- b))"),
        ("- -a", "(- (- a))"),
        ("+a * b", "(* a b)"),
        ("-a[i]", "(- ([] a i))"),
        ("-f(x)", "(- (f x))"),
        ("(int)-a", "(cast int (- a))"),
        ("-(int)a", "(- (cast int a))"),
        ("(float)a * b", "(* (cast float a) b)"),
        ("(int)(a + b)", "(cast int (+ a b))"),
        ("(double)a[i]", "(cast double ([] a i))"),
        ("(unsigned int)x", "(cast int x)"),
        ("(a) * b", "(* a b)"),
    ])
    def test_unary_and_casts_bind_tighter_than_binary(self, text, shape):
        assert sexpr(parse_expression_text(text)) == shape


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expression_text("1 + 2 * 3")
        assert isinstance(e, Binary) and e.op == "+"
        assert isinstance(e.right, Binary) and e.right.op == "*"

    def test_precedence_logical(self):
        e = parse_expression_text("a < b && c || d")
        assert e.op == "||"
        assert e.left.op == "&&"

    def test_conditional(self):
        e = parse_expression_text("a ? b : c")
        assert isinstance(e, Conditional)

    def test_unary_and_parens(self):
        e = parse_expression_text("-(a + b)")
        assert isinstance(e, Unary) and e.op == "-"
        assert isinstance(e.operand, Binary)

    def test_call_with_args(self):
        e = parse_expression_text("powf(x, 2)")
        assert isinstance(e, Call) and e.name == "powf" and len(e.args) == 2

    def test_multidim_index(self):
        e = parse_expression_text("m[i][j]")
        assert isinstance(e, Index) and len(e.indices) == 2

    def test_sizeof_is_constant(self):
        assert parse_expression_text("sizeof(int)").value == 4
        assert parse_expression_text("sizeof(double)").value == 8

    def test_cast(self):
        e = parse_expression_text("(int*)malloc(8)")
        assert isinstance(e, Cast) and e.type.pointer == 1

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression_text("a + b c")


def _main_of(src: str):
    return parse_program(src).main


class TestStatements:
    def test_declarations_multi(self):
        main = _main_of("int main(){ int a, b = 2, c[10]; return 0; }")
        decl = main.body.stmts[0]
        assert isinstance(decl, DeclStmt)
        names = [d.name for d in decl.decls]
        assert names == ["a", "b", "c"]
        assert decl.decls[2].dims

    def test_canonical_for_normalised(self):
        main = _main_of("int main(){ int i; for(i=0;i<10;i++) i = i; return 0; }")
        loop = main.body.stmts[1]
        assert isinstance(loop, For)
        assert loop.var == "i" and not loop.inclusive

    def test_for_le_inclusive(self):
        main = _main_of("int main(){ int i; for(i=1;i<=5;i+=2) i=i; return 0; }")
        loop = main.body.stmts[1]
        assert loop.inclusive
        assert loop.step.value == 2

    def test_decl_init_for_wrapped(self):
        main = _main_of("int main(){ for(int m=0;m<3;m++) m=m; return 0; }")
        wrapper = main.body.stmts[0]
        assert isinstance(wrapper, Block)
        assert isinstance(wrapper.stmts[-1], For)

    def test_descending_for(self):
        main = _main_of("int main(){ int i; for(i=9;i>=0;i--) i=i; return 0; }")
        loop = main.body.stmts[1]
        assert isinstance(loop, For) and loop.inclusive

    def test_noncanonical_for_desugars_to_while(self):
        src = "int main(){ int i=0, s=1; for(; s<100; ) s = s*2; return s; }"
        main = _main_of(src)
        assert any(isinstance(s, While) for s in walk(main))

    def test_compound_assignment(self):
        main = _main_of("int main(){ int x = 1; x += 2; x++; return x; }")
        ops = [s.op for s in main.body.stmts if isinstance(s, Assign)]
        assert ops == ["+", "+"]

    def test_if_else(self):
        main = _main_of("int main(){ int a=1; if (a) a=2; else a=3; return a; }")
        stmt = main.body.stmts[1]
        assert isinstance(stmt, If) and stmt.other is not None

    def test_globals_and_functions(self):
        prog = parse_program("int g[4];\nint helper(int x){ return x; }\nint main(){ return helper(1); }")
        assert [g.name for g in prog.globals] == ["g"]
        assert [f.name for f in prog.functions] == ["helper", "main"]

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_program("int main(){ int a = 1 return a; }")


class TestPragmas:
    def test_region_construct(self):
        main = _main_of(
            "int main(){ int a=0;\n#pragma acc parallel copy(a)\n{ a = 1; }\nreturn a; }"
        )
        constructs = [s for s in walk(main) if isinstance(s, AccConstruct)]
        assert len(constructs) == 1
        assert constructs[0].directive.kind == "parallel"
        assert constructs[0].directive.clause("copy") is not None

    def test_loop_directive_binds_to_for(self):
        main = _main_of(
            "int main(){ int i,a[5];\n#pragma acc parallel\n{\n#pragma acc loop\nfor(i=0;i<5;i++) a[i]=i;\n}\nreturn 0; }"
        )
        loops = [s for s in walk(main) if isinstance(s, AccLoop)]
        assert len(loops) == 1 and loops[0].loop.var == "i"

    def test_loop_directive_requires_for(self):
        with pytest.raises(ParseError):
            parse_program("int main(){\n#pragma acc loop\nint x;\nreturn 0; }")

    def test_loop_directive_keeps_decl_init(self):
        main = _main_of(
            "int main(){ int a[5];\n#pragma acc parallel loop copy(a[0:5])\nfor(int i=0;i<5;i++) a[i]=i;\nreturn 0; }"
        )
        # the induction declaration must be preserved around the AccLoop
        found = [s for s in walk(main) if isinstance(s, AccLoop)]
        assert len(found) == 1

    def test_standalone_update_wait(self):
        main = _main_of(
            "int main(){ int a[5];\n#pragma acc update host(a[0:5])\n#pragma acc wait(2)\nreturn 0; }"
        )
        standalones = [s for s in walk(main) if isinstance(s, AccStandalone)]
        kinds = [s.directive.kind for s in standalones]
        assert kinds == ["update", "wait"]

    def test_declare_attaches_to_function(self):
        prog = parse_program(
            "int main(){ int a[4];\n#pragma acc declare create(a[0:4])\nreturn 0; }"
        )
        assert len(prog.main.declares) == 1
        assert prog.main.declares[0].kind == "declare"

    def test_file_scope_declare_attaches_to_next_function(self):
        prog = parse_program(
            "int g[4];\n#pragma acc declare create(g[0:4])\nint main(){ return 0; }"
        )
        assert len(prog.main.declares) == 1

    def test_data_sections_parse(self):
        main = _main_of(
            "int main(){ int a[10];\n#pragma acc data copy(a[2:6])\n{ }\nreturn 0; }"
        )
        construct = next(s for s in walk(main) if isinstance(s, AccConstruct))
        ref = construct.directive.clause("copy").refs[0]
        assert ref.sections[0].start.value == 2
        assert ref.sections[0].length.value == 6

    def test_reduction_clause(self):
        main = _main_of(
            "int main(){ int s=0,i;\n#pragma acc parallel loop reduction(+:s)\nfor(i=0;i<4;i++) s+=i;\nreturn s; }"
        )
        loop = next(s for s in walk(main) if isinstance(s, AccLoop))
        clause = loop.directive.clause("reduction")
        assert clause.op == "+" and clause.var_names == ["s"]

    def test_pcopy_alias_normalised(self):
        main = _main_of(
            "int main(){ int a[4];\n#pragma acc data pcopy(a[0:4])\n{ }\nreturn 0; }"
        )
        construct = next(s for s in walk(main) if isinstance(s, AccConstruct))
        assert construct.directive.clause("present_or_copy") is not None

    def test_unknown_clause_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int main(){\n#pragma acc parallel zorp(1)\n{ }\nreturn 0; }")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int main(){\n#pragma acc teleport\n{ }\nreturn 0; }")
