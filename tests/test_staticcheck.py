"""Tests for the static checker: diagnostics model, the three analysis
passes, the corpus lint entry points, and the harness/CLI wiring."""

import json

import pytest

from repro.harness import HarnessConfig, ValidationRunner
from repro.harness.report import render_text
from repro.harness.runner import FailureKind
from repro.ir.acc import Clause, DataRef, Directive
from repro.staticcheck import (
    ALLOWED_CLAUSES,
    CODE_CATALOG,
    Diagnostic,
    check_directive,
    legal_clauses,
    lint_source,
    lint_suite,
    lint_template,
    render_lint_json,
    sort_diagnostics,
    summarize,
)
from repro.spec.versions import ACC_10, ACC_20
from repro.suite.registry import SuiteRegistry, openacc10_suite
from repro.templates import TestTemplate as Template


def codes(diags):
    return [d.code for d in diags]


def lint_c(source):
    return lint_source(source, language="c", name="test.c")


def lint_f(source):
    return lint_source(source, language="fortran", name="test.f90")


def template(code, *, feature="parallel", language="c", name="t.c", **kw):
    return Template(name=name, feature=feature, language=language,
                    code=code, **kw)


# ---------------------------------------------------------------------------
# diagnostics model
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_undeclared_code_rejected(self):
        with pytest.raises(ValueError, match="undeclared diagnostic code"):
            Diagnostic("ACC999", "nope")

    def test_every_code_has_a_catalog_entry(self):
        for code in CODE_CATALOG:
            assert code.startswith("ACC")
            assert CODE_CATALOG[code]

    def test_render_includes_location_and_hint(self):
        from repro.ir.astnodes import SourceLocation

        d = Diagnostic("ACC101", "clause 'x' not permitted on 'y'",
                       loc=SourceLocation("f.c", 3, 7), hint="remove it")
        assert d.render() == (
            "3:7: error: ACC101 clause 'x' not permitted on 'y' "
            "(hint: remove it)"
        )

    def test_sort_is_deterministic(self):
        from repro.ir.astnodes import SourceLocation

        a = Diagnostic("ACC102", "b", loc=SourceLocation("f", 2, 1))
        b = Diagnostic("ACC101", "a", loc=SourceLocation("f", 1, 9))
        c = Diagnostic("ACC101", "c", loc=SourceLocation("f", 2, 1))
        assert codes(sort_diagnostics([a, b, c])) == [
            "ACC101", "ACC101", "ACC102"
        ]

    def test_summarize_limits(self):
        diags = [Diagnostic("ACC101", f"m{i}") for i in range(5)]
        text = summarize(diags, limit=2)
        assert "(+3 more)" in text


# ---------------------------------------------------------------------------
# pass 1: legality (ACC1xx)
# ---------------------------------------------------------------------------


class TestLegalityMatrix:
    def test_clean_program_has_no_diagnostics(self):
        src = """
        int main() {
          int i, n = 4; int a[4];
          #pragma acc parallel loop copy(a[0:n])
          for(i=0; i<n; i++) a[i] = i;
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc101_clause_not_permitted(self):
        src = """
        int main() {
          int x = 0;
          #pragma acc data private(x)
          { x = 1; }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC101"]
        assert "'private' not permitted on 'data'" in diags[0].message

    def test_acc101_v20_directive_at_10(self):
        d = Directive(kind="enter data",
                      clauses=[Clause("copyin")])
        diags = check_directive(d, ACC_10)
        assert codes(diags) == ["ACC101"]
        assert "2.0" in diags[0].hint
        assert check_directive(d, ACC_20) == []

    def test_acc102_duplicate_single_valued(self):
        d = Directive(kind="parallel", clauses=[
            Clause("num_gangs"), Clause("num_gangs"),
        ])
        assert codes(check_directive(d)) == ["ACC102"]

    def test_acc103_variable_in_two_data_clauses(self):
        src = """
        int main() {
          int n = 4; int a[4];
          #pragma acc data copy(a[0:n]) copyin(a[0:n])
          { }
          return 1;
        }
        """
        diags = lint_c(src)
        # the dataenv pass also sees the copyin as dead (ACC406)
        assert codes(diags) == ["ACC103", "ACC406"]
        assert "'a'" in diags[0].message

    def test_acc104_seq_conflicts_with_parallelism(self):
        src = """
        int main() {
          int i, n = 4; int a[4];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop seq independent
            for(i=0; i<n; i++) a[i] = i;
          }
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC104"]

    def test_acc105_gang_inside_vector(self):
        src = """
        int main() {
          int i, j, n = 4; int a[4];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop vector
            for(i=0; i<n; i++) {
              #pragma acc loop gang
              for(j=0; j<n; j++) a[j] = j;
            }
          }
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC105"]

    def test_acc105_correct_order_is_clean(self):
        src = """
        int main() {
          int i, j, n = 4; int a[4];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) {
              #pragma acc loop vector
              for(j=0; j<n; j++) a[j] = j;
            }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc106_nested_compute(self):
        src = """
        int main() {
          int x = 0;
          #pragma acc parallel
          {
            #pragma acc kernels
            { x = 1; }
          }
          return 1;
        }
        """
        assert "ACC106" in codes(lint_c(src))

    def test_acc107_cache_outside_loop(self):
        src = """
        int main() {
          int n = 4; int a[4];
          #pragma acc cache(a[0:n])
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC107"]

    def test_acc107_cache_inside_combined_loop_is_clean(self):
        # `parallel loop` is a compute region AND a loop: cache in its
        # body must not be flagged
        src = """
        int main() {
          int i, n = 4; int a[4], b[4];
          #pragma acc parallel loop copy(a[0:n], b[0:n])
          for(i=0; i<n; i++) {
            #pragma acc cache(a[0:n])
            b[i] = a[i];
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc108_update_inside_compute(self):
        src = """
        int main() {
          int n = 4; int a[4];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc update host(a[0:n])
          }
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC108"]

    def test_acc108_update_outside_compute_is_clean(self):
        src = """
        int main() {
          int n = 4; int a[4];
          #pragma acc data copy(a[0:n])
          {
            #pragma acc update host(a[0:n])
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc109_reduction_var_also_private(self):
        d = Directive(kind="loop", clauses=[
            Clause("reduction", op="+", refs=[DataRef(name="s")]),
            Clause("private", refs=[DataRef(name="s")]),
        ])
        assert "ACC109" in codes(check_directive(d))

    def test_fortran_surface_is_checked_too(self):
        src = """
        program t
          integer :: x
          x = 0
          !$acc data private(x)
          x = 1
          !$acc end data
          main = 1
        end program t
        """
        assert codes(lint_f(src)) == ["ACC101"]

    def test_matrix_is_shared_with_the_compiler(self):
        from repro.compiler import pipeline

        assert pipeline.ALLOWED_CLAUSES is ALLOWED_CLAUSES

    def test_legal_clauses_versioned(self):
        assert "default" not in legal_clauses(ACC_10)["parallel"]
        assert "default" in legal_clauses(ACC_20)["parallel"]
        assert "enter data" not in legal_clauses(ACC_10)
        assert "enter data" in legal_clauses(ACC_20)


# ---------------------------------------------------------------------------
# pass 2: dependence / races (ACC2xx)
# ---------------------------------------------------------------------------


class TestDependence:
    def test_acc201_carried_dependence_under_independent(self):
        src = """
        int main() {
          int i, n = 8; int a[8];
          #pragma acc kernels copy(a[0:n])
          {
            #pragma acc loop independent
            for(i=1; i<n; i++) a[i] = a[i-1] + 1;
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC201"]
        assert "loop-carried dependence" in diags[0].message

    def test_acc201_independent_without_dependence_is_clean(self):
        src = """
        int main() {
          int i, n = 8; int a[8], b[8];
          #pragma acc kernels copy(a[0:n]) copyin(b[0:n])
          {
            #pragma acc loop independent
            for(i=0; i<n; i++) a[i] = b[i] + 1;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc202_unsynchronised_accumulation(self):
        src = """
        int main() {
          int i, s = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n], s)
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) s = s + a[i];
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC202"]
        assert "reduction" in diags[0].hint

    def test_acc202_with_reduction_clause_is_clean(self):
        src = """
        int main() {
          int i, s = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n], s)
          {
            #pragma acc loop gang reduction(+:s)
            for(i=0; i<n; i++) s = s + a[i];
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc203_shared_scalar_write(self):
        src = """
        int main() {
          int i, t = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) t = a[i];
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC203"]
        assert "'t'" in diags[0].message

    def test_acc203_one_diagnostic_per_scalar(self):
        src = """
        int main() {
          int i, t = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) { t = a[i]; t = a[i] + 1; }
          }
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC203"]

    def test_privatisation_on_loop_suppresses_race(self):
        src = """
        int main() {
          int i, t = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang private(t)
            for(i=0; i<n; i++) { t = a[i]; a[i] = t + 1; }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_privatisation_on_enclosing_construct_suppresses_race(self):
        src = """
        int main() {
          int i, t = 0, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n]) private(t)
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) { t = a[i]; a[i] = t + 1; }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_declaration_inside_body_suppresses_race(self):
        src = """
        int main() {
          int i, n = 8; int a[8];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang
            for(i=0; i<n; i++) { int t = a[i]; a[i] = t + 1; }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_seq_loop_is_not_workshared(self):
        src = """
        int main() {
          int i, last = 0, n = 8;
          #pragma acc parallel
          {
            #pragma acc loop seq
            for(i=0; i<n; i++) last = i;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_bare_loop_in_kernels_is_not_workshared(self):
        # the implementation *may* parallelise it, but the template does
        # not assert parallelism — conservatively not analysed
        src = """
        int main() {
          int i, t = 0, n = 8; int a[8];
          #pragma acc kernels copy(a[0:n])
          {
            #pragma acc loop
            for(i=0; i<n; i++) t = a[i];
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_inner_reduction_not_charged_to_outer_loop(self):
        # the paper's num_workers pattern: outer gang loop privatises the
        # accumulator, inner worker loop reduces into it
        src = """
        int main() {
          int i, j, s = 0, n = 4; int a[4];
          #pragma acc parallel copy(a[0:n])
          {
            #pragma acc loop gang private(s)
            for(i=0; i<n; i++) {
              s = 0;
              #pragma acc loop worker reduction(+:s)
              for(j=0; j<n; j++) s = s + j;
              a[i] = s;
            }
          }
          return 1;
        }
        """
        assert lint_c(src) == []


# ---------------------------------------------------------------------------
# pass 3: corpus lint (ACC3xx)
# ---------------------------------------------------------------------------


_FUNCTIONAL_OK = """
int main() {
  int i, n = 4; int a[4];
  <acctv:check>
  #pragma acc parallel loop copy(a[0:n])
  </acctv:check>
  for(i=0; i<n; i++) a[i] = i;
  return 1;
}
"""


class TestCorpusLint:
    def test_acc301_unparseable_template(self):
        t = template("int main() { return 1;\n")  # unclosed brace
        diags = lint_template(t)
        assert codes(diags) == ["ACC301"]
        assert diags[0].loc.line > 0

    def test_clean_template(self):
        assert lint_template(template(_FUNCTIONAL_OK)) == []

    def test_acc302_cross_touching_unrelated_code(self):
        code = """
int main() {
  int i, n = 4; int a[4];
  #pragma acc parallel loop copy(a[0:n])
  for(i=0; i<n; i++) a[i] = i;
  <acctv:check>
  for(i=0; i<n; i++) if (a[i] != i) return 0;
  </acctv:check>
  <acctv:crosscheck>
  for(i=0; i<n; i++) if (a[i] != 0) return 0;
  </acctv:crosscheck>
  return 1;
}
"""
        diags = lint_template(template(code))
        assert "ACC302" in codes(diags)

    def test_acc302_directive_centred_block_is_allowed(self):
        # the loop_independent pattern: the cross swaps the whole loop,
        # including its body, because the block contains the directive
        code = """
int main() {
  int i, n = 4; int a[4];
  #pragma acc kernels copy(a[0:n])
  {
  <acctv:check>
  #pragma acc loop independent
  for(i=0; i<n; i++) a[i] = i;
  </acctv:check>
  <acctv:crosscheck>
  #pragma acc loop
  for(i=0; i<n; i++) a[i] = i + 1;
  </acctv:crosscheck>
  }
  return 1;
}
"""
        diags = lint_template(template(code))
        assert "ACC302" not in codes(diags)

    def test_acc303_vacuous_substitution(self):
        code = """
int main() {
  int i, n = 4; int a[4];
  #pragma acc parallel loop copy(a[0:n])
  for(i=0; i<n; i++) a[i] = i;
  <acctv:check>
  #pragma acc wait
  </acctv:check>
  <acctv:crosscheck>
  #pragma acc wait
  </acctv:crosscheck>
  return 1;
}
"""
        t = template(code, crossexpect="different")
        assert "ACC303" in codes(lint_template(t))
        # declared 'same' is coherent (the async pass still flags the
        # wait-with-no-async-work fixture as ACC502)
        t2 = template(code, crossexpect="same")
        assert codes(lint_template(t2)) == ["ACC502"]

    def test_shipped_corpus_is_clean(self):
        report = lint_suite(openacc10_suite())
        assert report.checked > 0
        assert report.clean
        assert report.codes() == {}

    def test_json_rendering(self):
        report = lint_suite(openacc10_suite())
        payload = json.loads(render_lint_json(report))
        assert payload["format"] == "repro.lint/v1"
        assert payload["templates_checked"] == report.checked
        assert payload["clean"] is True


# ---------------------------------------------------------------------------
# harness lint gate
# ---------------------------------------------------------------------------


_BAD_TEMPLATE = """
int main() {
  int x = 0;
  #pragma acc data private(x)
  { x = 1; }
  return 1;
}
"""


class TestHarnessGate:
    def make_suite(self):
        return openacc10_suite()

    def test_static_error_attribution(self):
        t = template(_BAD_TEMPLATE, name="bad.c")
        runner = ValidationRunner(config=HarnessConfig(iterations=2, lint=True))
        result = runner.run_template(t)
        assert not result.passed
        assert result.failure_kind is FailureKind.STATIC_ERROR
        assert "ACC101" in result.functional.failure_detail()
        # the unit never reached the compiler
        assert result.functional.iterations == []
        assert result.cross is None

    def test_clean_template_unaffected_by_gate(self):
        t = template(_FUNCTIONAL_OK, name="ok.c")
        on = ValidationRunner(config=HarnessConfig(iterations=2, lint=True))
        off = ValidationRunner(config=HarnessConfig(iterations=2))
        assert on.run_template(t).passed
        assert off.run_template(t).passed

    def test_gate_off_by_default(self):
        t = template(_BAD_TEMPLATE, name="bad.c")
        runner = ValidationRunner(config=HarnessConfig(iterations=1))
        result = runner.run_template(t)
        # without the gate the program still compiles and runs (the
        # simulated compiler accepts it or not — but never STATIC_ERROR)
        assert result.failure_kind is not FailureKind.STATIC_ERROR

    def test_reports_identical_across_policies(self):
        suite = self.make_suite()
        rendered = []
        for policy, workers in (("serial", 1), ("process", 2)):
            config = HarnessConfig(
                iterations=2, lint=True, policy=policy, workers=workers,
                feature_prefixes=["loop"],
            )
            report = ValidationRunner(config=config).run_suite(suite)
            rendered.append(render_text(report))
        assert rendered[0] == rendered[1]

    def test_static_error_journal_roundtrip(self):
        from repro.journal.codec import decode_result, encode_result

        t = template(_BAD_TEMPLATE, name="bad.c")
        runner = ValidationRunner(config=HarnessConfig(iterations=1, lint=True))
        result = runner.run_template(t)
        payload = json.loads(json.dumps(encode_result(result)))
        back = decode_result(payload, t)
        assert back.functional.static_error == result.functional.static_error
        assert back.failure_kind is FailureKind.STATIC_ERROR

    def test_obs_counters(self):
        from repro.obs import Tracer

        tracer = Tracer()
        t = template(_BAD_TEMPLATE, name="bad.c")
        runner = ValidationRunner(
            config=HarnessConfig(iterations=1, lint=True), tracer=tracer
        )
        runner.run_template(t)
        [lint] = [s for s in tracer.spans if s.name == "lint"]
        assert lint.attrs["codes"].get("ACC101") == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_lint_all_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "lint-clean" in out
        assert "0 template(s)" not in out

    def test_lint_json_output(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "lint.json"
        assert main(["lint", "--format", "json",
                     "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["clean"] is True
        assert payload["templates_checked"] > 0

    def test_lint_empty_selection_fails(self, capsys):
        from repro.cli import main

        assert main(["lint", "--feature", "no.such.feature"]) == 1

    def test_validate_lint_flag_plumbs_through(self):
        from repro.cli import build_parser, _config

        args = build_parser().parse_args(
            ["validate", "--lint", "--iterations", "1"]
        )
        assert _config(args).lint is True


# ---------------------------------------------------------------------------
# registry did-you-mean (satellite)
# ---------------------------------------------------------------------------


def _registry_template(feature, name="t1"):
    return f"""<acctv:test>
<acctv:testname>{name}</acctv:testname>
<acctv:directive>{feature}</acctv:directive>
<acctv:language>c</acctv:language>
<acctv:testcode>
int main() {{ return 1; }}
</acctv:testcode>
</acctv:test>"""


class TestRegistrySuggestions:
    def test_unknown_feature_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'parallel.async'"):
            SuiteRegistry([_registry_template("parallel.asink")])

    def test_duplicate_names_both_templates_and_suggests(self):
        with pytest.raises(ValueError) as err:
            SuiteRegistry([
                _registry_template("parallel.async", "t1"),
                _registry_template("parallel.async", "t2"),
            ])
        message = str(err.value)
        assert "t1" in message and "t2" in message
        assert "did you mean" in message
