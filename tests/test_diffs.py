"""Tests for differential version comparison (the vendor feedback loop)."""


from repro.analysis import compare_versions
from repro.harness import HarnessConfig


class TestCompareVersions:
    def test_caps_beta_to_final_everything_fixed(self, suite10):
        diff = compare_versions("caps", "3.1.0", "3.3.4", "c", suite10)
        assert not diff.regressed
        assert not diff.still_failing
        assert len(diff.fixed) > 10
        assert diff.improved

    def test_pgi_132_regression_visible(self, suite10):
        diff = compare_versions("pgi", "12.10", "13.2", "c", suite10)
        assert "kernels.copyin" in diff.regressed
        assert not diff.improved

    def test_pgi_134_recovery(self, suite10):
        diff = compare_versions("pgi", "13.2", "13.4", "c", suite10)
        assert "kernels.copyin" in diff.fixed
        assert not diff.regressed
        # the async family persists (Section V-B)
        assert "parallel.async" in diff.still_failing

    def test_cray_no_changes(self, suite10):
        diff = compare_versions("cray", "8.1.2", "8.2.0", "c", suite10)
        assert not diff.fixed and not diff.regressed
        assert diff.still_failing  # the flat 16-bug inventory

    def test_cray_fortran_817_fix(self, suite10):
        diff = compare_versions("cray", "8.1.6", "8.1.7", "fortran", suite10)
        assert diff.fixed == ["loop.collapse"]
        assert not diff.regressed

    def test_summary_format(self, suite10):
        diff = compare_versions("caps", "3.3.3", "3.3.4", "c", suite10)
        text = diff.summary()
        assert "caps 3.3.3 -> 3.3.4 [c]" in text
        assert "0 fixed, 0 regressed" in text

    def test_cli_compare(self, capsys):
        from repro.cli import main

        code = main(["compare", "caps", "3.2.3", "3.3.3", "--language", "c"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed:" in out and "update.async" in out

    def test_callers_config_is_not_narrowed(self, suite10):
        config = HarnessConfig(iterations=1, run_cross=False,
                               languages=("c", "fortran"),
                               features=["parallel", "kernels.copyin"])
        diff = compare_versions("pgi", "12.10", "13.2", "fortran", suite10,
                                config)
        assert config.languages == ("c", "fortran")
        assert diff.language == "fortran"

    def test_both_versions_share_one_cache(self, suite10, monkeypatch):
        import repro.analysis.diffs as diffs
        import repro.harness.engine as engine

        calls, reports = [], []
        real_run_units = engine.run_units
        real_run_campaign = diffs.run_campaign

        def recording(units, runners, *args):
            calls.append(runners)
            return real_run_units(units, runners, *args)

        def campaign(*args, **kwargs):
            reports.extend(real_run_campaign(*args, **kwargs))
            return reports

        monkeypatch.setattr(engine, "run_units", recording)
        monkeypatch.setattr(diffs, "run_campaign", campaign)
        config = HarnessConfig(iterations=1, run_cross=False,
                               features=["parallel", "kernels", "loop"])
        compare_versions("caps", "3.3.3", "3.3.4", "c", suite10, config)
        # one campaign: one unit loop over both versions' cells
        [runners] = calls
        assert len(runners) == 2
        assert runners[0].cache is not None
        assert runners[0].cache is runners[1].cache
        # the second version repeats runs of the first one's
        assert reports[1].metrics.memo_hits > 0
