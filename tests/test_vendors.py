"""Tests for the vendor simulations: Table I calibration, bug composition,
detection of each showcase bug from Section V-B."""

import pytest

from repro.analysis import PAPER_TABLE1, detected_bug_ids, table1_counts
from repro.compiler import Compiler, CompileError
from repro.compiler.behavior import REFERENCE_BEHAVIOR
from repro.compiler.vendors import (
    BugRecord,
    compose_behavior,
    vendor_version,
    vendor_versions,
)
from repro.compiler.vendors.bugmodel import feature_unsupported_patch
from repro.harness import HarnessConfig, ValidationRunner
from repro.suite import openacc10_suite


class TestBugComposition:
    def test_set_fields_union(self):
        bug1 = BugRecord.make("b1", "t", "c",
                              {"unsupported_directives": frozenset({"cache"})})
        bug2 = BugRecord.make("b2", "t", "c",
                              {"unsupported_directives": frozenset({"declare"})})
        behavior = compose_behavior(REFERENCE_BEHAVIOR, [bug1, bug2])
        assert behavior.unsupported_directives == {"cache", "declare"}

    def test_bool_fields_set(self):
        bug = BugRecord.make("b", "t", "c", {"skip_scalar_data_transfers": True})
        assert compose_behavior(REFERENCE_BEHAVIOR, [bug]).skip_scalar_data_transfers

    def test_no_bugs_is_reference(self):
        assert compose_behavior(REFERENCE_BEHAVIOR, []) is REFERENCE_BEHAVIOR

    def test_feature_patch_mapping(self):
        assert feature_unsupported_patch("cache") == {
            "unsupported_directives": frozenset({"cache"})
        }
        assert feature_unsupported_patch("parallel.copyin") == {
            "unsupported_clauses": frozenset({("parallel", "copyin")})
        }
        assert feature_unsupported_patch("runtime.acc_malloc") == {
            "unsupported_routines": frozenset({"acc_malloc"})
        }
        assert feature_unsupported_patch("loop.reduction.int_bitxor") == {
            "broken_reductions": frozenset({"^"})
        }


class TestTable1Calibration:
    @pytest.mark.parametrize("vendor", ["caps", "pgi", "cray"])
    def test_counts_match_paper_exactly(self, vendor):
        for row in table1_counts(vendor):
            assert (row.c_bugs, row.fortran_bugs) == row.paper_counts, (
                f"{vendor} {row.version}: model {(row.c_bugs, row.fortran_bugs)}"
                f" != paper {row.paper_counts}"
            )

    def test_all_paper_versions_modelled(self):
        for vendor, versions in PAPER_TABLE1.items():
            modelled = {vv.version for vv in vendor_versions(vendor)}
            assert modelled == set(versions)

    def test_bug_ids_unique_within_version(self):
        for vendor in ("caps", "pgi", "cray"):
            for vv in vendor_versions(vendor):
                for lang in ("c", "fortran"):
                    ids = [b.bug_id for b in vv.bugs(lang)]
                    assert len(ids) == len(set(ids))


class TestShowcaseBugs:
    """Each Section V-B bug must be observable through the suite."""

    def test_caps_constant_expression_bug(self):
        """Fig. 9: variable num_gangs rejected before 3.1.0."""
        old = Compiler(vendor_version("caps", "3.0.7").behavior("c"))
        src = """
int main(){
  int gangs = 8, gang_num = 0;
  #pragma acc parallel num_gangs(gangs) reduction(+:gang_num)
  { gang_num++; }
  return (gang_num == 8);
}
"""
        with pytest.raises(CompileError):
            old.compile(src, "c")
        fixed = Compiler(vendor_version("caps", "3.1.0").behavior("c"))
        assert fixed.compile(src, "c").run().value == 1

    def test_pgi_async_wedge(self):
        """Fig. 10: acc_async_test stuck at -1 with data clauses present."""
        pgi = Compiler(vendor_version("pgi", "13.8").behavior("c"))
        src = """
int main(){
  int i, N = 10, tag = 3, is_sync = -1;
  int A[10], C[10];
  for(i=0;i<N;i++){ A[i]=i; C[i]=0; }
  #pragma acc kernels copyin(A[0:N]) copy(C[0:N]) async(tag)
  for(i=0;i<N;i++) C[i] = A[i] + 1;
  is_sync = acc_async_test(tag);
  return is_sync;
}
"""
        assert pgi.compile(src, "c").run().value == -1

    def test_pgi_async_fine_with_data_construct(self):
        """Moving data clauses out restores async (Section V-B)."""
        pgi = Compiler(vendor_version("pgi", "13.2").behavior("c"))
        src = """
int main(){
  int i, N = 10, tag = 3, ok = 1, is_sync = -1;
  int A[10], C[10];
  for(i=0;i<N;i++){ A[i]=i; C[i]=0; }
  #pragma acc data copyin(A[0:N]) copy(C[0:N])
  {
    #pragma acc kernels async(tag)
    {
      #pragma acc loop
      for(i=0;i<N;i++) C[i] = A[i] + 1;
    }
    is_sync = acc_async_test(tag);
    if (is_sync != 0) ok = 0;
    #pragma acc wait(tag)
    is_sync = acc_async_test(tag);
    if (is_sync == 0) ok = 0;
  }
  return ok;
}
"""
        assert pgi.compile(src, "c").run().value == 1

    def test_cray_scalar_copy_bug(self):
        cray = Compiler(vendor_version("cray", "8.1.2").behavior("c"))
        src = """
int main(){
  int flag = 0;
  #pragma acc parallel copy(flag)
  { flag = 1; }
  return flag;
}
"""
        assert cray.compile(src, "c").run().value == 0

    def test_cray_dead_region_elimination(self):
        """Fig. 11: a copy-only region is deleted entirely."""
        cray = Compiler(vendor_version("cray", "8.1.2").behavior("c"))
        src = """
int main(){
  int i, b[4], c[4];
  for(i=0;i<4;i++){ b[i]=9; c[i]=0; }
  #pragma acc parallel copyout(b[0:4], c[0:4])
  {
    #pragma acc loop
    for(i=0;i<4;i++) c[i] = b[i];
  }
  return c[0];
}
"""
        assert cray.compile(src, "c").run().value == 0

    def test_worker_ignored_in_pgi_profile(self):
        behavior = vendor_version("pgi", "13.8").behavior("c")
        assert behavior.worker_ignored


class TestVendorSuiteRuns:
    @pytest.fixture(scope="class")
    def suite(self):
        return openacc10_suite()

    def _rate(self, vendor, version, language, suite):
        vv = vendor_version(vendor, version)
        config = HarnessConfig(iterations=1, run_cross=False,
                               languages=(language,))
        runner = ValidationRunner(vv.behavior(language), config)
        return runner.run_suite(suite)

    def test_clean_caps_passes_everything(self, suite):
        report = self._rate("caps", "3.3.4", "c", suite)
        assert report.pass_rate() == 100.0
        report = self._rate("caps", "3.3.4", "fortran", suite)
        assert report.pass_rate() == 100.0

    def test_caps_beta_much_worse_than_final(self, suite):
        beta = self._rate("caps", "3.0.7", "c", suite).pass_rate()
        final = self._rate("caps", "3.3.3", "c", suite).pass_rate()
        assert beta < final - 30

    def test_caps_308_fortran_regression(self, suite):
        before = self._rate("caps", "3.0.7", "fortran", suite).pass_rate()
        regressed = self._rate("caps", "3.0.8", "fortran", suite).pass_rate()
        assert regressed < before - 15

    def test_pgi_132_dip(self, suite):
        prior = self._rate("pgi", "12.10", "c", suite).pass_rate()
        dip = self._rate("pgi", "13.2", "c", suite).pass_rate()
        recovered = self._rate("pgi", "13.4", "c", suite).pass_rate()
        assert dip < prior
        assert recovered > dip

    def test_cray_flat_over_versions(self, suite):
        first = self._rate("cray", "8.1.2", "c", suite).pass_rate()
        last = self._rate("cray", "8.2.0", "c", suite).pass_rate()
        assert first == last

    def test_every_bug_detected_by_suite(self, suite):
        """The suite must detect (attribute a failing test to) every bug of
        a representative version of each vendor."""
        for vendor, version in (("pgi", "13.8"), ("cray", "8.1.2"),
                                ("caps", "3.1.0")):
            vv = vendor_version(vendor, version)
            for language in ("c", "fortran"):
                bugs = vv.bugs(language)
                if not bugs:
                    continue
                config = HarnessConfig(iterations=1, run_cross=False,
                                       languages=(language,))
                runner = ValidationRunner(vv.behavior(language), config)
                report = runner.run_suite(suite)
                detected = detected_bug_ids(vv, language, report)
                undetected = {b.bug_id for b in bugs if b.affects} - detected
                assert not undetected, f"{vendor} {version} {language}: {undetected}"
