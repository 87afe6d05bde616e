"""Tests for the analysis layer (pass-rate sweeps, bug counting)."""

from dataclasses import replace

import pytest

from repro.analysis import (
    PAPER_TABLE1,
    run_vendor_version,
    table1_counts,
    vendor_pass_rates,
)
from repro.compiler.vendors import vendor_version
from repro.harness import HarnessConfig, render_csv
from repro.obs.live import read_live


class TestTable1:
    def test_transcription_shape(self):
        assert set(PAPER_TABLE1) == {"caps", "pgi", "cray"}
        for versions in PAPER_TABLE1.values():
            assert len(versions) == 8

    def test_rows_expose_paper_comparison(self):
        rows = table1_counts("cray")
        assert all(r.matches_paper for r in rows)
        assert rows[0].paper_counts == (16, 6)


class TestPassRateSweeps:
    def test_single_point(self, suite10):
        vv = vendor_version("caps", "3.3.4")
        point = run_vendor_version(
            vv, "c", suite10, HarnessConfig(iterations=1, run_cross=False)
        )
        assert point.pass_rate == 100.0
        assert point.tests == len(suite10.for_language("c"))
        assert point.failures == 0

    def test_failures_complement_pass_rate(self, suite10):
        vv = vendor_version("cray", "8.1.2")
        point = run_vendor_version(
            vv, "c", suite10, HarnessConfig(iterations=1, run_cross=False)
        )
        expected_rate = 100.0 * (point.tests - point.failures) / point.tests
        assert point.pass_rate == pytest.approx(expected_rate)
        assert point.failures >= vv.bug_count("c") - 2  # latent bugs allowed

    def test_vendor_sweep_structure(self, suite10):
        rates = vendor_pass_rates(
            "cray", suite10,
            HarnessConfig(iterations=1, run_cross=False),
            languages=("fortran",),
        )
        series = rates["fortran"]
        assert [p.version for p in series] == [
            "8.1.2", "8.1.3", "8.1.4", "8.1.5", "8.1.6", "8.1.7", "8.1.8",
            "8.2.0",
        ]
        # Fortran gains exactly the 8.1.7 fix
        assert series[5].pass_rate >= series[4].pass_rate

    def test_shared_config_not_mutated(self, suite10):
        # run_vendor_version used to assign config.languages in place,
        # leaving the caller's (often shared) config pinned to the last
        # language it happened to run
        config = HarnessConfig(iterations=1, run_cross=False)
        before = tuple(config.languages)
        run_vendor_version(vendor_version("caps", "3.3.4"), "c",
                           suite10, config)
        assert tuple(config.languages) == before

    def test_sweep_leaves_config_reusable(self, suite10):
        config = HarnessConfig(iterations=1, run_cross=False)
        vendor_pass_rates("caps", suite10, config, languages=("c",))
        assert tuple(config.languages) == ("c", "fortran")
        # the untouched config still drives a fortran point correctly
        point = run_vendor_version(vendor_version("caps", "3.3.4"),
                                   "fortran", suite10, config)
        assert point.language == "fortran"
        assert point.tests == len(suite10.for_language("fortran"))


def _sweep_csvs(points) -> list:
    return [render_csv(p.report) for series in points.values() for p in series]


class TestSweepCampaign:
    """A Fig. 8 sweep is one campaign: one unit list, one pool, one
    stream."""

    _CONFIG = HarnessConfig(iterations=1, run_cross=False,
                            feature_prefixes=["parallel"])

    def test_live_stream_holds_every_cell(self, suite10, tmp_path):
        stream = tmp_path / "sweep.ndjson"
        points = vendor_pass_rates(
            "caps", suite10, replace(self._CONFIG, live_stream=str(stream)))
        ran = sum(p.tests for series in points.values() for p in series)
        parsed = read_live(str(stream))
        keys = [r["fields"]["unit"]
                for r in parsed.events("unit.finished")]
        assert parsed.tally().units_done == ran == len(keys)
        assert parsed.final_snapshot["units_done"] == ran
        assert len(set(keys)) == len(keys)
        # the cells' integer counters sum to the campaign's
        campaign = parsed.final_snapshot["run_metrics"]
        cells = [p.report.metrics for series in points.values()
                 for p in series]
        for name in ("templates", "iterations_run", "programs_executed",
                     "memo_hits", "cache_hits", "cache_misses"):
            assert sum(getattr(m, name) for m in cells) == campaign[name]

    def test_pooled_sweep_opens_one_pool(self, suite10, monkeypatch):
        from repro.harness import engine

        pools = []

        class Counting(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Counting)
        serial = vendor_pass_rates("caps", suite10, self._CONFIG)
        pooled = vendor_pass_rates(
            "caps", suite10,
            replace(self._CONFIG, policy="process", workers=2))
        assert len(pools) == 1
        assert _sweep_csvs(pooled) == _sweep_csvs(serial)
        # each worker keeps one cache for the whole sweep, so its execute
        # memo serves a run another version already made
        assert sum(p.report.metrics.memo_hits
                   for series in pooled.values() for p in series) > 0

    def test_cell_reports_split_the_campaign(self, suite10):
        points = vendor_pass_rates("caps", suite10, self._CONFIG)
        cells = [p for series in points.values() for p in series]
        for p in cells:
            assert p.report.config.languages == (p.language,)
            assert [r.template for r in p.report.results] == \
                suite10.select(languages=(p.language,),
                               prefixes=["parallel"])
            assert p.report.metrics.templates == p.tests
            assert p.report.elapsed_s == p.report.metrics.wall_s >= 0.0
