"""Tests for the whole-program passes (ACC4xx data-environment flow,
ACC5xx async-race analysis) and the reporting infrastructure that rides
with them: SARIF export and the corpus baseline, the one filter between
the passes' findings and the lint report."""

import json

from repro.compiler import Compiler, CompilerBehavior
from repro.harness import HarnessConfig, ValidationRunner
from repro.harness.runner import FailureKind
from repro.staticcheck import (
    Severity,
    baseline_from_findings,
    lint_source,
    lint_suite,
    lint_template,
    lint_template_raw,
    loads_baseline,
    merge_reports,
    render_lint_sarif,
    sarif_report,
    shipped_baseline,
    validate_sarif,
)
from repro.suite import combination_suite, openacc20_suite
from repro.suite.registry import openacc10_suite
from repro.templates import TestTemplate as Template
from repro.templates.generator import generate_functional


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
# pass 4: data-environment flow (ACC4xx)
# ---------------------------------------------------------------------------


class TestDataEnvFlow:
    def test_acc401_host_read_of_stale_copy(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) a[i] = i;
            if (a[0] != 0) return 0;
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC401"]
        assert diags[0].severity is Severity.ERROR
        assert "device copy is newer" in diags[0].message

    def test_acc401_update_host_restores_coherence(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc update host(a[0:4])
            if (a[0] != 0) return 0;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc401_discarded_writes_is_warning(self):
        # the testsuite's copyin probes rely on device writes being
        # discarded at region exit — a smell, not an error
        src = """
        int main() {
          int i; int a[4];
          for(i=0;i<4;i++) a[i] = 7;
          #pragma acc parallel loop copyin(a[0:4])
          for(i=0;i<4;i++) a[i] = 0;
          if (a[0] != 7) return 0;
          return 1;
        }
        """
        diags = lint_c(src)
        # the unread copyin is also dead (ACC406); the interesting part
        # is that the stale read is a warning, not an error
        acc401 = [d for d in diags if d.code == "ACC401"]
        assert len(acc401) == 1
        assert acc401[0].severity is Severity.WARNING
        assert "discarded" in acc401[0].message

    def test_acc402_read_of_stale_device_copy(self):
        src = """
        int main() {
          int i; int a[4]; int b[4];
          #pragma acc data create(a[0:4]) copyout(b[0:4])
          {
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc parallel loop present(a[0:4])
            for(i=0;i<4;i++) b[i] = a[i];
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC402"]
        assert diags[0].severity is Severity.ERROR

    def test_acc402_update_device_restores_coherence(self):
        src = """
        int main() {
          int i; int a[4]; int b[4];
          #pragma acc data create(a[0:4]) copyout(b[0:4])
          {
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc update device(a[0:4])
            #pragma acc parallel loop present(a[0:4])
            for(i=0;i<4;i++) b[i] = a[i];
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc402_not_charged_when_same_kernel_writes(self):
        # scratch arrays initialised and consumed in one region are fine
        src = """
        int main() {
          int i; int t[4]; int b[4];
          #pragma acc data create(t[0:4]) copyout(b[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) { t[i] = i; b[i] = t[i] + 1; }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc403_dead_copyout(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copyout(a[0:4])
          {
            i = 0;
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC403"]
        assert diags[0].severity is Severity.WARNING

    def test_acc403_written_copyout_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copyout(a[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) a[i] = i;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc404_conflicting_nested_clause(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc data copyin(a[0:4])
            {
              #pragma acc parallel loop
              for(i=0;i<4;i++) a[i] = i;
            }
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC404"]
        assert diags[0].severity is Severity.ERROR

    def test_acc404_nested_present_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc data present(a[0:4])
            {
              #pragma acc parallel loop
              for(i=0;i<4;i++) a[i] = i;
            }
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc405_update_without_device_copy(self):
        src = """
        int main() {
          int i; int a[4];
          for(i=0;i<4;i++) a[i] = i;
          #pragma acc update device(a[0:4])
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC405"]
        assert diags[0].severity is Severity.WARNING

    def test_acc405_update_inside_data_region_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc update device(a[0:4])
            #pragma acc parallel loop
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc406_dead_copyin(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copyin(a[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) a[i] = 0;
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert "ACC406" in codes(diags)
        acc406 = [d for d in diags if d.code == "ACC406"]
        assert acc406[0].severity is Severity.WARNING

    def test_acc406_read_copyin_is_clean(self):
        src = """
        int main() {
          int i; int a[4]; int b[4];
          #pragma acc data copyin(a[0:4]) copyout(b[0:4])
          {
            #pragma acc parallel loop
            for(i=0;i<4;i++) b[i] = a[i];
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_declare_scratch_divergence_is_warning(self):
        # others.py's declare-create scratch idiom: host and device copies
        # deliberately diverge; the lint may warn but must not error
        src = """
        int main() {
          int i; int t[4]; int b[4];
          #pragma acc declare create(t)
          for(i=0;i<4;i++) t[i] = -3;
          #pragma acc parallel loop copyout(b[0:4]) present(t)
          for(i=0;i<4;i++) { t[i] = i; b[i] = t[i]; }
          if (t[0] != -3) return 0;
          return 1;
        }
        """
        diags = lint_c(src)
        assert all(d.severity is not Severity.ERROR for d in diags)

    def test_fortran_surface_is_checked(self):
        src = """
        program t
          integer :: i
          integer :: a(4)
          !$acc data copy(a)
          !$acc parallel loop
          do i = 1, 4
            a(i) = i
          end do
          i = a(1)
          !$acc end data
          main = 1
        end program t
        """
        diags = lint_f(src)
        assert codes(diags) == ["ACC401"]
        assert diags[0].loc.line == 10


# ---------------------------------------------------------------------------
# pass 5: async/wait happens-before (ACC5xx)
# ---------------------------------------------------------------------------


class TestAsyncGraph:
    def test_acc501_cross_queue_write_write(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(1)
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc parallel loop async(2)
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC501"]
        assert diags[0].severity is Severity.ERROR

    def test_acc501_wait_between_queues_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(1)
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc wait(1)
            #pragma acc parallel loop async(2)
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc501_same_queue_is_ordered(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(1)
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc parallel loop async(1)
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc501_constant_propagated_tags(self):
        # the runtime_api idiom: int tag = 2; async(tag)
        src = """
        int main() {
          int i; int a[4]; int t1 = 1; int t2 = 2;
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(t1)
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc parallel loop async(t2)
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC501"]

    def test_unresolvable_tags_stay_silent(self):
        # queue identity unknown -> never speculate a race
        src = """
        int main(int q) {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(q)
            for(i=0;i<4;i++) a[i] = i;
            #pragma acc parallel loop async(q + 1)
            for(i=0;i<4;i++) a[i] = a[i] + 1;
          }
          return 1;
        }
        """
        assert "ACC501" not in codes(lint_c(src))

    def test_acc502_wait_on_unused_queue(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copy(a[0:4]) async(1)
          for(i=0;i<4;i++) a[i] = i;
          #pragma acc wait(2)
          #pragma acc wait(1)
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC502"]
        assert diags[0].severity is Severity.WARNING

    def test_acc502_wait_on_used_queue_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copy(a[0:4]) async(1)
          for(i=0;i<4;i++) a[i] = i;
          #pragma acc wait(1)
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_acc502_bare_wait_without_async(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copy(a[0:4])
          for(i=0;i<4;i++) a[i] = i;
          #pragma acc wait
          return 1;
        }
        """
        assert codes(lint_c(src)) == ["ACC502"]

    def test_acc503_host_read_before_wait(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copy(a[0:4]) async(1)
          for(i=0;i<4;i++) a[i] = i;
          if (a[0] != 0) return 0;
          #pragma acc wait(1)
          return 1;
        }
        """
        diags = lint_c(src)
        assert codes(diags) == ["ACC503"]
        assert diags[0].severity is Severity.WARNING

    def test_acc503_wait_before_host_read_is_clean(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copy(a[0:4]) async(1)
          for(i=0;i<4;i++) a[i] = i;
          #pragma acc wait(1)
          if (a[0] != 0) return 0;
          return 1;
        }
        """
        assert lint_c(src) == []

    def test_data_region_exit_is_implicit_sync(self):
        src = """
        int main() {
          int i; int a[4];
          #pragma acc data copy(a[0:4])
          {
            #pragma acc parallel loop async(1)
            for(i=0;i<4;i++) a[i] = i;
          }
          if (a[0] != 0) return 0;
          return 1;
        }
        """
        assert "ACC503" not in codes(lint_c(src))


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def _finding(self, code="ACC401"):
        raw = lint_source("""
int main() {
  int i; int a[4];
  #pragma acc data copy(a[0:4])
  {
    #pragma acc parallel loop
    for(i=0;i<4;i++) a[i] = i;
    if (a[0] != 0) return 0;
  }
  return 1;
}
""", language="c", name="probe.c")
        assert codes(raw) == [code]
        return raw[0]

    def test_round_trip(self):
        d = self._finding()
        baseline = baseline_from_findings([("probe.c", d)])
        back = loads_baseline(baseline.render())
        assert back.entries == baseline.entries
        assert back.allowance("probe.c", "ACC401") == 1

    def test_apply_is_count_capped(self):
        d = self._finding()
        baseline = baseline_from_findings([("probe.c", d)])
        kept, dropped = baseline.apply("probe.c", [d, d])
        assert len(kept) == 1 and dropped == 1

    def test_other_template_not_covered(self):
        d = self._finding()
        baseline = baseline_from_findings([("probe.c", d)])
        kept, dropped = baseline.apply("other.c", [d])
        assert len(kept) == 1 and dropped == 0

    def test_baseline_is_the_only_filter(self):
        # a comment naming the code is just a comment: only a baseline
        # allowance drops the finding
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc data copy(a[0:4])
  {
    #pragma acc parallel loop
    for(i=0;i<4;i++) a[i] = i;
    if (a[0] != 0) return 0;  // acc-lint: disable=ACC401
  }
  return 1;
}
""", name="commented.c")
        raw = lint_template_raw(t)
        assert codes(raw) == ["ACC401"]
        assert lint_template(t, baseline=None) == raw
        allowance = baseline_from_findings([("commented.c", raw[0])])
        assert lint_template(t, baseline=allowance) == []

    def test_shipped_baseline_covers_the_corpus(self):
        baseline = shipped_baseline()
        assert baseline.total > 0
        # every allowance is exercised by an actual raw finding
        suites = [openacc10_suite(), openacc20_suite(), combination_suite()]
        raw_by_name = {}
        for suite in suites:
            for t in suite:
                found = {}
                for d in lint_template_raw(t):
                    found[d.code] = found.get(d.code, 0) + 1
                if found:
                    raw_by_name[t.name] = found
        assert raw_by_name == baseline.entries


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def test_corpus_sarif_is_schema_valid(self):
        report = merge_reports([
            lint_suite(openacc10_suite()),
            lint_suite(openacc20_suite()),
            lint_suite(combination_suite()),
        ])
        payload = sarif_report(report)
        assert validate_sarif(payload) == []
        assert payload["version"] == "2.1.0"

    def test_findings_become_results(self):
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc data copy(a[0:4])
  {
    #pragma acc parallel loop async(1)
    for(i=0;i<4;i++) a[i] = i;
    #pragma acc parallel loop async(2)
    for(i=0;i<4;i++) a[i] = a[i] + 1;
  }
  return 1;
}
""", name="racy.c", feature="parallel.async")
        report = lint_suite(openacc10_suite(), templates=[t], baseline=None)
        payload = sarif_report(report)
        assert validate_sarif(payload) == []
        results = payload["runs"][0]["results"]
        assert len(results) == 1
        result = results[0]
        assert result["ruleId"] == "ACC501"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "racy.c"
        assert loc["region"]["startLine"] >= 1

    def test_rules_cover_the_catalog(self):
        from repro.staticcheck import CODE_CATALOG

        payload = sarif_report(lint_suite(openacc10_suite(), templates=[]))
        rules = payload["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(CODE_CATALOG)

    def test_render_ends_with_newline(self):
        text = render_lint_sarif(lint_suite(openacc10_suite(), templates=[]))
        assert text.endswith("\n")
        json.loads(text)

    def test_validator_rejects_bad_version(self):
        payload = sarif_report(lint_suite(openacc10_suite(), templates=[]))
        payload["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(payload))

    def test_validator_rejects_incoherent_rule_index(self):
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc parallel loop copy(a[0:4]) async(1)
  for(i=0;i<4;i++) a[i] = i;
  #pragma acc wait(2)
  #pragma acc wait(1)
  return 1;
}
""")
        payload = sarif_report(
            lint_suite(openacc10_suite(), templates=[t], baseline=None))
        payload["runs"][0]["results"][0]["ruleIndex"] = 0
        assert any("ruleIndex" in p for p in validate_sarif(payload))

    def test_validator_rejects_zero_start_line(self):
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc parallel loop copy(a[0:4]) async(1)
  for(i=0;i<4;i++) a[i] = i;
  #pragma acc wait(2)
  #pragma acc wait(1)
  return 1;
}
""")
        payload = sarif_report(
            lint_suite(openacc10_suite(), templates=[t], baseline=None))
        result = payload["runs"][0]["results"][0]
        result["locations"][0]["physicalLocation"]["region"] = {
            "startLine": 0,
        }
        assert any("startLine" in p for p in validate_sarif(payload))

    def test_validator_rejects_missing_message(self):
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc parallel loop copy(a[0:4]) async(1)
  for(i=0;i<4;i++) a[i] = i;
  #pragma acc wait(2)
  #pragma acc wait(1)
  return 1;
}
""")
        payload = sarif_report(
            lint_suite(openacc10_suite(), templates=[t], baseline=None))
        payload["runs"][0]["results"][0]["message"] = {}
        assert any("message" in p for p in validate_sarif(payload))


# ---------------------------------------------------------------------------
# full-corpus invariants
# ---------------------------------------------------------------------------


class TestCorpusModuloBaseline:
    def test_full_corpus_is_clean_modulo_baseline(self):
        report = merge_reports([
            lint_suite(openacc10_suite()),
            lint_suite(openacc20_suite()),
            lint_suite(combination_suite()),
        ])
        assert report.checked > 200
        assert report.codes() == {}
        assert report.error_count == 0

    def test_baseline_is_doing_real_work(self):
        # the raw view is NOT clean: the baseline carries the testsuite's
        # deliberate divergence probes (copyin discard, async probes)
        with_baseline = lint_suite(openacc10_suite())
        raw = lint_suite(openacc10_suite(), baseline=None)
        assert with_baseline.baselined > 0
        assert raw.diagnostics
        # but even raw, nothing is error severity (gate stays byte-stable)
        assert raw.error_count == 0


# ---------------------------------------------------------------------------
# differential oracle: accsim vs the async pass
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    def _divergent_templates(self, suite):
        """Templates whose functional result changes when async queues
        are executed eagerly (i.e. accsim says timing is observable)."""
        ref = Compiler()
        eager = Compiler(CompilerBehavior(ignore_async=True))
        out = []
        for t in suite:
            if "async" not in t.code and "wait" not in t.code:
                continue
            src = generate_functional(t).source
            a = ref.compile(src, t.language).run().value
            b = eager.compile(src, t.language).run().value
            if a != b:
                out.append(t)
        return out

    def test_accsim_divergence_implies_async_finding(self):
        divergent = self._divergent_templates(openacc10_suite())
        # non-vacuous: the suite ships deliberate async-visibility probes
        assert len(divergent) >= 4
        for t in divergent:
            async_codes = {d.code for d in lint_template_raw(t)
                           if d.code.startswith("ACC5")}
            assert async_codes, (
                f"{t.name} is timing-observable under accsim but the "
                f"async pass found nothing"
            )

    def test_hand_built_race_diverges_and_is_flagged(self):
        t = template("""
int main() {
  int i; int a[4];
  for(i=0;i<4;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[0:4]) async(1)
  for(i=0;i<4;i++) a[i] = 9;
  if (a[0] != 0) return 0;
  #pragma acc wait(1)
  return 1;
}
""", name="probe_race.c")
        src = generate_functional(t).source
        ref = Compiler().compile(src, "c").run().value
        eager = Compiler(CompilerBehavior(ignore_async=True)) \
            .compile(src, "c").run().value
        assert ref != eager  # accsim sees the timing dependence...
        assert any(d.code.startswith("ACC5")
                   for d in lint_template_raw(t))  # ...and so do we


# ---------------------------------------------------------------------------
# CLI: --select/--ignore, sarif, baseline and cache flags
# ---------------------------------------------------------------------------


class TestLintCliNewFlags:
    def test_unknown_select_code_suggests_and_fails(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "ACC40X"]) == 1
        err = capsys.readouterr().err
        assert "unknown diagnostic code" in err
        assert "did you mean 'ACC406'" in err

    def test_unknown_ignore_code_fails(self, capsys):
        from repro.cli import main

        assert main(["lint", "--ignore", "AC501"]) == 1
        assert "did you mean" in capsys.readouterr().err

    def test_select_prefix_expands(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "lint.json"
        assert main(["lint", "--all", "--no-baseline", "--select", "ACC5",
                     "--format", "json", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["diagnostics"]
        assert all(d["code"].startswith("ACC5")
                   for d in payload["diagnostics"])

    def test_ignore_drops_codes(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "lint.json"
        assert main(["lint", "--all", "--no-baseline",
                     "--ignore", "ACC401,ACC503",
                     "--format", "json", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        seen = set(payload["codes"])
        assert "ACC401" not in seen and "ACC503" not in seen

    def test_sarif_output_validates(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "lint.sarif"
        assert main(["lint", "--all", "--format", "sarif",
                     "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert validate_sarif(payload) == []

    def test_update_baseline_reproduces_shipped(self, tmp_path):
        from pathlib import Path

        from repro.cli import main
        import repro.staticcheck.suppress as suppress

        path = tmp_path / "baseline.json"
        assert main(["lint", "--all", "--baseline", str(path),
                     "--update-baseline"]) == 0
        assert path.read_text() == Path(suppress._SHIPPED_PATH).read_text()


# ---------------------------------------------------------------------------
# harness gate: new codes attribute as STATIC_ERROR
# ---------------------------------------------------------------------------


_RACY_TEMPLATE = """
int main() {
  int i; int a[4];
  #pragma acc data copy(a[0:4])
  {
    #pragma acc parallel loop async(1)
    for(i=0;i<4;i++) a[i] = i;
    #pragma acc parallel loop async(2)
    for(i=0;i<4;i++) a[i] = a[i] + 1;
  }
  return 1;
}
"""


class TestHarnessGateNewCodes:
    def test_acc501_attributes_as_static_error(self):
        t = template(_RACY_TEMPLATE, name="racy.c")
        runner = ValidationRunner(config=HarnessConfig(iterations=1,
                                                       lint=True))
        result = runner.run_template(t)
        assert not result.passed
        assert result.failure_kind is FailureKind.STATIC_ERROR
        assert "ACC501" in result.functional.failure_detail()
        assert result.functional.iterations == []

    def test_warning_codes_do_not_trip_the_gate(self):
        # ACC503 is warning severity; the gate only stops on errors
        t = template("""
int main() {
  int i; int a[4];
  #pragma acc parallel loop copy(a[0:4]) async(1)
  for(i=0;i<4;i++) a[i] = i;
  if (a[0] != 0) return 0;
  #pragma acc wait(1)
  return 1;
}
""", name="probe.c")
        runner = ValidationRunner(config=HarnessConfig(iterations=1,
                                                       lint=True))
        result = runner.run_template(t)
        assert result.failure_kind is not FailureKind.STATIC_ERROR

    def test_obs_counter_for_new_code(self):
        from repro.obs import Tracer

        tracer = Tracer()
        t = template(_RACY_TEMPLATE, name="racy.c")
        runner = ValidationRunner(
            config=HarnessConfig(iterations=1, lint=True), tracer=tracer)
        runner.run_template(t)
        [lint] = [s for s in tracer.spans if s.name == "lint"]
        assert lint.attrs["codes"].get("ACC501") == 1


# ---------------------------------------------------------------------------
# satellite: combined-construct clause inheritance in the dependence pass
# ---------------------------------------------------------------------------


class TestCombinedClauseInheritance:
    """Audit result: clauses written on a combined construct
    (``parallel loop`` / ``kernels loop``) are honoured by the
    dependence pass exactly as if they were split across the construct
    and the loop.  These document the audited behaviour."""

    def test_reduction_on_combined_construct_suppresses_acc202(self):
        src = """
        int main() {
          int i, s = 0; int a[4];
          #pragma acc parallel loop copy(a[0:4]) reduction(+:s)
          for(i=0;i<4;i++) s = s + a[i];
          return 1;
        }
        """
        assert "ACC202" not in codes(lint_c(src))

    def test_private_on_combined_construct_suppresses_acc203(self):
        src = """
        int main() {
          int i, t; int a[4];
          #pragma acc parallel loop copy(a[0:4]) private(t)
          for(i=0;i<4;i++) { t = i; a[i] = t; }
          return 1;
        }
        """
        assert "ACC203" not in codes(lint_c(src))

    def test_independent_on_combined_kernels_loop_still_checked(self):
        src = """
        int main() {
          int i; int a[8];
          #pragma acc kernels loop copy(a[0:8]) independent
          for(i=1;i<8;i++) a[i] = a[i-1] + 1;
          return 1;
        }
        """
        assert "ACC201" in codes(lint_c(src))

    def test_data_clause_on_combined_construct_reaches_dataenv(self):
        # copyin on the combined construct is seen by the ACC4xx pass:
        # the kernel only writes, so the copyin is dead
        src = """
        int main() {
          int i; int a[4];
          #pragma acc parallel loop copyin(a[0:4])
          for(i=0;i<4;i++) a[i] = 0;
          return 1;
        }
        """
        assert "ACC406" in codes(lint_c(src))
