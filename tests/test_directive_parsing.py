"""Focused tests for the shared directive/clause parser across both
surface syntaxes."""

import pytest

from repro.frontend.errors import ParseError
from repro.ir import Binary, IntLit, walk
from repro.ir.acc import normalize_clause_name


def c_directive(text: str):
    from repro.frontend.directives import DirectiveParser
    from repro.frontend.tokens import TokenStream
    from repro.minic.lexer import tokenize
    from repro.minic.parser import CParser

    parser = CParser(tokenize("int main(){return 0;}"))
    ts = TokenStream(tokenize(text))
    return DirectiveParser(parser.parse_expression).parse(ts, source=text)


def f_directive(text: str):
    from repro.frontend.directives import DirectiveParser
    from repro.frontend.tokens import TokenKind, TokenStream
    from repro.minifort.lexer import tokenize
    from repro.minifort.parser import FortranParser

    parser = FortranParser(tokenize("program t\nend program t\n"))
    toks = [t for t in tokenize(text) if t.kind is not TokenKind.NEWLINE]
    return DirectiveParser(parser.parse_expression, fortran_sections=True).parse(
        TokenStream(toks), source=text)


class TestKinds:
    def test_multiword_kinds(self):
        assert c_directive("parallel loop").kind == "parallel loop"
        assert c_directive("kernels loop").kind == "kernels loop"
        assert c_directive("enter data copyin(a[0:4])").kind == "enter data"

    def test_single_kinds(self):
        for kind in ("parallel", "kernels", "data", "host_data", "loop",
                     "declare", "update"):
            assert c_directive(kind).kind == kind

    def test_unknown_kind_raises(self):
        with pytest.raises(ParseError):
            c_directive("warp_speed")


class TestClauseForms:
    def test_bare_wait(self):
        d = c_directive("wait")
        assert d.kind == "wait" and not d.clauses

    def test_wait_with_tag(self):
        d = c_directive("wait(7)")
        assert d.clause("wait").expr.value == 7

    def test_cache_argument(self):
        d = c_directive("cache(a[0:16])")
        ref = d.clause("cache").refs[0]
        assert ref.name == "a" and ref.sections[0].length.value == 16

    def test_async_bare_and_with_expr(self):
        assert c_directive("parallel async").clause("async").expr is None
        assert c_directive("parallel async(t)").clause("async").expr is not None

    def test_gang_with_count(self):
        d = c_directive("loop gang(4)")
        assert d.clause("gang").expr.value == 4

    def test_multiple_refs_and_clauses(self):
        d = c_directive("parallel copy(a[0:4], b[0:4]) copyin(c[0:4]) if(x)")
        assert d.clause("copy").var_names == ["a", "b"]
        assert d.clause("copyin").var_names == ["c"]
        assert d.clause("if") is not None

    def test_comma_separated_clauses(self):
        # Fortran style allows commas between clauses
        d = f_directive("parallel copy(a(1:4)), num_gangs(2)")
        assert d.clause("copy") is not None
        assert d.clause("num_gangs") is not None

    def test_reduction_operator_forms(self):
        for op in ("+", "*", "max", "min", "&&", "||", "&", "|", "^"):
            d = c_directive(f"loop reduction({op}:s)")
            assert d.clause("reduction").op == op

    def test_fortran_reduction_spellings(self):
        for op in (".and.", ".or.", "iand", "ior", "ieor", "max"):
            d = f_directive(f"loop reduction({op}:s)")
            assert d.clause("reduction").op == op

    def test_default_clause(self):
        d = c_directive("parallel default(none)")
        assert d.clause("default").op == "none"

    def test_unknown_clause_raises(self):
        with pytest.raises(ParseError):
            c_directive("parallel sideways(3)")


class TestSections:
    def test_c_start_length(self):
        d = c_directive("data copy(a[3:9])")
        section = d.clause("copy").refs[0].sections[0]
        assert section.start.value == 3 and section.length.value == 9

    def test_c_multidim_sections(self):
        d = c_directive("data copy(m[0:4][0:8])")
        assert len(d.clause("copy").refs[0].sections) == 2

    def test_fortran_lo_hi_normalised(self):
        d = f_directive("data copy(a(2:7))")
        section = d.clause("copy").refs[0].sections[0]
        assert section.start.value == 2
        # length is built as (7 - 2) + 1
        assert isinstance(section.length, Binary)

    def test_fortran_single_element(self):
        d = f_directive("data copy(a(5))")
        section = d.clause("copy").refs[0].sections[0]
        assert section.start.value == 5
        assert section.length.value == 1

    def test_bare_scalar_ref(self):
        d = c_directive("data copy(flag)")
        assert not d.clause("copy").refs[0].sections


class TestAliases:
    def test_pcopy_family(self):
        assert normalize_clause_name("pcopy") == "present_or_copy"
        assert normalize_clause_name("pcopyin") == "present_or_copyin"
        assert normalize_clause_name("pcopyout") == "present_or_copyout"
        assert normalize_clause_name("pcreate") == "present_or_create"

    def test_update_self_alias(self):
        d = c_directive("update self(a[0:4])")
        assert d.clause("host") is not None

    def test_without_clause_helper(self):
        d = c_directive("parallel copy(a[0:4]) async(1)")
        stripped = d.without_clause("async")
        assert stripped.clause("async") is None
        assert stripped.clause("copy") is not None
        # the original is untouched
        assert d.clause("async") is not None


class TestDuplicateScalarClauses:
    """A single-valued clause appearing twice is rejected at parse time
    (`num_gangs(2) num_gangs(4)` is ambiguous, not additive)."""

    def test_duplicate_num_gangs_rejected(self):
        with pytest.raises(ParseError, match="duplicate clause 'num_gangs'"):
            c_directive("parallel num_gangs(2) num_gangs(4)")

    def test_duplicate_if_rejected_fortran(self):
        with pytest.raises(ParseError, match="duplicate clause 'if'"):
            f_directive("parallel if(1) if(0)")

    def test_error_carries_clause_location(self):
        with pytest.raises(ParseError) as err:
            c_directive("parallel num_gangs(2) num_gangs(4)")
        # the error points at the *second* occurrence
        assert err.value.loc.column == len("parallel num_gangs(2) ") + 1

    def test_repeated_wait_args_still_allowed(self):
        # multiple wait arguments name multiple queues; not single-valued
        d = c_directive("parallel async(1) wait(2) wait(3)")
        assert len(d.clauses_named("wait")) == 2

    def test_distinct_scalar_clauses_fine(self):
        d = c_directive("parallel num_gangs(2) num_workers(4) vector_length(8)")
        assert len(d.clauses) == 3


class TestFrontendErrorLocations:
    """Malformed directives must fail with the *real* source line/column —
    directive payloads are sub-lexed, and their tokens are rebased."""

    C_PREFIX = "int main() {\n  int a[4];\n  "
    F_PREFIX = "program t\n  integer :: a(4)\n  "

    def _c(self, directive_line, rest="  { }\n  return 1;\n}\n"):
        from repro.minic import parse_program

        return parse_program(self.C_PREFIX + directive_line + "\n" + rest)

    def _f(self, directive_line,
           rest="  !$acc end parallel\n  main = 1\nend program t\n"):
        from repro.minifort import parse_program

        return parse_program(self.F_PREFIX + directive_line + "\n" + rest)

    def test_c_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            self._c("#pragma acc parallel copy(a[0:4]")
        assert err.value.loc.line == 3

    def test_c_unknown_clause(self):
        line = "#pragma acc parallel frobnicate(a)"
        with pytest.raises(ParseError, match="unknown OpenACC clause") as err:
            self._c(line)
        assert err.value.loc.line == 3
        assert err.value.loc.column == 2 + line.index("frobnicate") + 1

    def test_c_bad_section_syntax(self):
        line = "#pragma acc parallel copy(a[0:4:2])"
        with pytest.raises(ParseError) as err:
            self._c(line)
        assert err.value.loc.line == 3
        # points at the stray second ':'
        assert err.value.loc.column == 2 + line.rindex(":") + 1

    def test_fortran_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            self._f("!$acc parallel copy(a(1:4)")
        assert err.value.loc.line == 3

    def test_fortran_unknown_clause(self):
        line = "!$acc parallel frobnicate(a)"
        with pytest.raises(ParseError, match="unknown OpenACC clause") as err:
            self._f(line)
        assert err.value.loc.line == 3
        assert err.value.loc.column == 2 + line.index("frobnicate") + 1

    def test_fortran_bad_section_syntax(self):
        line = "!$acc parallel copy(a(1:4:2))"
        with pytest.raises(ParseError) as err:
            self._f(line)
        assert err.value.loc.line == 3
        assert err.value.loc.column == 2 + line.rindex(":", 0, line.rindex(")")) + 1

    def test_c_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown OpenACC directive"):
            self._c("#pragma acc warp_speed")
