"""Tests of the campaign workload benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/workloads -q``.  The
workload passes here run a handful of templates, not the whole corpus.
"""

from __future__ import annotations

import pytest

from repro.harness import render_csv
from repro.suite import openacc10_suite

from benchmarks.workloads import catalog, cli, tracing

#: a few templates per language that reach data clauses, async queues,
#: reductions, compile errors under CAPS and wrong values under Titan faults
FEATURES = ("parallel.async", "data.copyout", "update.host", "wait",
            "loop.reduction.int_add", "parallel loop.reduction",
            "parallel.num_gangs", "declare.create", "env.ACC_DEVICE_TYPE")


class Subset:
    """Duck-typed suite holding only FEATURES (``select`` is all the
    harness asks of a suite)."""

    def __init__(self, suite):
        self.templates = [t for t in suite if t.feature in FEATURES]

    def select(self, languages=None, features=None, prefixes=None):
        return [t for t in self.templates
                if languages is None or t.language in languages]


@pytest.fixture(scope="module")
def subset():
    return Subset(openacc10_suite())


@pytest.fixture(scope="module")
def golden():
    return catalog.load_golden()


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


CLOCK = Clock()


class Fake:
    """outer -> inner -> leaf, advancing the injected clock by known steps."""

    @staticmethod
    def outer():
        CLOCK.now += 1
        Fake.inner()
        CLOCK.now += 2
        Fake.inner()
        CLOCK.now += 1

    @staticmethod
    def inner():
        CLOCK.now += 3
        Fake.leaf()

    @staticmethod
    def leaf():
        CLOCK.now += 5

    @classmethod
    def recursive(cls, depth):
        CLOCK.now += 1
        if depth:
            cls.recursive(depth - 1)


def _fake_hooks():
    return (tracing.Hook("outer", f"{__name__}:Fake.outer"),
            tracing.Hook("inner", f"{__name__}:Fake.inner"),
            tracing.Hook("leaf", f"{__name__}:Fake.leaf"),
            tracing.Hook("recursive", f"{__name__}:Fake.recursive"))


def test_self_time_subtracts_child_spans():
    rec = tracing.SpanRecorder(clock=CLOCK)
    with tracing.patched(_fake_hooks(), rec):
        Fake.outer()
        Fake.recursive(2)
    assert rec.self_times() == {"outer": 4, "inner": 6, "leaf": 10,
                                "recursive": 3}
    assert rec.calls() == {"outer": 1, "inner": 2, "leaf": 2, "recursive": 3}
    # nested spans of one layer count once in its total
    assert rec.total_times() == {"outer": 20, "inner": 16, "leaf": 10,
                                 "recursive": 3}
    assert sum(rec.self_times().values()) == 23


def test_patched_restores_attributes_on_error():
    before = tracing.hook_targets(_fake_hooks())
    with pytest.raises(ZeroDivisionError):
        with tracing.patched(_fake_hooks(), tracing.SpanRecorder()):
            1 / 0
    after = tracing.hook_targets(_fake_hooks())
    assert all(a[2] is b[2] for a, b in zip(before, after))


# ---------------------------------------------------------------------------
# traced passes of the real workloads
# ---------------------------------------------------------------------------


def _run(workload, subset, tmp_path, recorder=None):
    tmp_path.mkdir(exist_ok=True)
    env = catalog.Env(subset, 20140519, str(tmp_path), serial=True)
    if recorder is None:
        return workload.run(env)
    with tracing.patched(tracing.LAYER_HOOKS, recorder):
        return workload.run(env)


@pytest.mark.parametrize("name", sorted(catalog.WORKLOADS))
def test_traced_pass_matches_untraced_and_restores(name, subset, golden,
                                                   tmp_path):
    workload = catalog.WORKLOADS[name]
    before = tracing.hook_targets(tracing.LAYER_HOOKS)
    plain = _run(workload, subset, tmp_path / "plain")
    rec = tracing.SpanRecorder()
    traced = _run(workload, subset, tmp_path / "traced", recorder=rec)
    after = tracing.hook_targets(tracing.LAYER_HOOKS)

    assert [a[2] is b[2] for a, b in zip(before, after)] == \
        [True] * len(tracing.LAYER_HOOKS)
    assert ([render_csv(r) for _, r in traced.runs]
            == [render_csv(r) for _, r in plain.runs])
    for behavior, report in traced.runs:
        expected = golden[catalog.golden_key(behavior, report.config)]
        for template, result in zip(
                (r.template for r in report.results), report.results):
            key = f"{template.feature}:{template.language}"
            assert catalog.verdict(result) == expected[key], key
    assert rec.calls()["harness.runner"] == sum(
        len(r.results) for _, r in traced.runs)
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))


def test_per_layer_metrics_cover_the_spec(subset, tmp_path):
    rec = tracing.SpanRecorder()
    result = _run(catalog.WORKLOADS["durable_campaign"], subset, tmp_path,
                  recorder=rec)
    traced_s = rec.ends[-1] - rec.starts[0]
    layers = cli.per_layer_metrics(rec, [r.metrics for _, r in result.runs],
                                   traced_s, overhead=1.0,
                                   replay_s=result.replay_s, utilization=1.0)
    spec = cli.load_spec()
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert {w["name"] for w in spec["workloads"]} == set(catalog.WORKLOADS)
    units = len(result.runs[0][1].results)
    # one append per unit plus the resume; one lint per unit
    assert layers["journal.calls"] == units + 1
    assert layers["staticcheck.calls"] == units
    # inner layers explain most of the pass; the harness keeps some glue
    assert 0.5 < layers["trace_attributed"] < 1


# ---------------------------------------------------------------------------
# the verdict oracle
# ---------------------------------------------------------------------------


def test_corrupted_golden_entry_is_counted(subset, tmp_path):
    result = _run(catalog.WORKLOADS["certainty"], subset, tmp_path)
    (behavior, report), = result.runs
    key = catalog.golden_key(behavior, report.config)
    own = {key: {f"{r.template.feature}:{r.template.language}":
                 catalog.verdict(r) for r in report.results}}

    clean = catalog.Verifier(own)
    clean.add("pass", result, subset.select())
    assert (clean.total.units, clean.total.failed) == (len(report.results), 0)

    unit = next(iter(own[key]))
    passed, kind, certainty, conclusive = own[key][unit]
    corrupted = {key: dict(own[key], **{unit: [not passed, kind, certainty,
                                               conclusive]})}
    bad = catalog.Verifier(corrupted)
    bad.add("pass", result, subset.select())
    assert bad.total.failed == 1
    assert bad.total.failed / bad.total.units > 0


def test_slices_partition_the_corpus():
    suite = openacc10_suite()
    for stride in (4, 10):
        picked = [t for i in range(stride)
                  for t in catalog.Sample(suite, stride, i).select()]
        assert sorted(map(id, picked)) == sorted(map(id, suite.select()))
        first = catalog.Sample(suite, stride).select()
        assert {t.language for t in first} == {"c", "fortran"}
        assert len(first) == sum(-(-len(suite.for_language(lang)) // stride)
                                 for lang in ("c", "fortran"))


def test_slice_pass_is_checked_against_its_own_templates(golden, tmp_path):
    suite = openacc10_suite()
    sample = catalog.Sample(suite, 8, 3)
    result = catalog.WORKLOADS["certainty"].run(
        catalog.Env(sample, 20140519, str(tmp_path)))
    verifier = catalog.Verifier(golden)
    assert verifier.add("warm-up", result, sample.select()).failed == 0
    # the warm-up is not the csv reference of any slice
    assert verifier.csv == {}
    # checked against the whole corpus, the other templates are missing
    check = catalog.Verifier(golden).add("pass", result, suite.select())
    assert check.failed == len(suite.select()) - len(sample.select())


def test_verifier_flags_csv_drift_and_partial_replay(subset, tmp_path):
    result = _run(catalog.WORKLOADS["durable_campaign"], subset, tmp_path)
    (behavior, report), = result.runs
    key = catalog.golden_key(behavior, report.config)
    own = {key: {f"{r.template.feature}:{r.template.language}":
                 catalog.verdict(r) for r in report.results}}
    templates = subset.select()
    verifier = catalog.Verifier(own)
    verifier.add("pass 1", result, templates, csv_key=0)
    assert verifier.total.failed == 0
    result.replayable -= 1
    verifier.add("pass 2", result, templates, csv_key=0)
    assert verifier.total.failed == 1
    verifier.csv[0] = [render_csv(report).replace("pass", "FAIL", 1)]
    verifier.add("pass 3", result, templates, csv_key=0)
    assert verifier.total.failed > 2
    # another slice has its own csv reference
    result.replayable += 1
    failed = verifier.total.failed
    verifier.add("pass 4", result, templates, csv_key=1)
    assert verifier.total.failed == failed


# ---------------------------------------------------------------------------
# timing arithmetic and compare
# ---------------------------------------------------------------------------


def test_setup_probes_are_spread_over_the_timed_stretch():
    due = [cli._probes_due(t / 10, 20) for t in range(0, 300)]
    assert due[0] == 1 and due[-1] == cli.SETUP_SAMPLES
    assert all(b - a in (0, 1) for a, b in zip(due, due[1:]))
    # the last probe is due before the stretch ends
    assert cli._probes_due(20 * (1 - 1e-3), 20) == cli.SETUP_SAMPLES


def test_setup_is_scaled_to_the_nominal_reference():
    nominal = cli.NOMINAL_REFERENCE_S
    assert cli.setup_seconds(0.2, nominal) == pytest.approx(0.2)
    # a host whose reference loop runs four times slower gets half credit
    assert cli.setup_seconds(0.2, 4 * nominal) == pytest.approx(0.1)


def _time(slice_, wall, reference, units):
    return cli.SliceTime(slice_, wall, wall, reference, units, [], 0.0)


def test_slice_figures_are_normalised_per_run():
    # slice 0 ran twice at different host speeds, slice 1 three times
    times = [_time(0, 1.0, 0.010, [0.004, 0.006]),
             _time(1, 2.0, 0.010, [0.020]),
             _time(0, 2.0, 0.020, [0.008, 0.012]),
             _time(1, 3.0, 0.010, [0.030]),
             _time(1, 2.2, 0.010, [0.022])]
    groups = cli.by_slice(times, 2)
    wall = cli.slice_sum(groups, lambda t: t.wall / t.reference, "ref")
    # slice 0 reads 100 both times, slice 1 reads 200, 300 and 220
    assert wall["value"] == pytest.approx(100 + 220)
    assert wall["q1"] == pytest.approx(100 + 210)
    assert wall["q3"] == pytest.approx(100 + 260)
    assert wall["n"] == 2
    p50, p90 = cli.unit_bands(groups)
    # per-unit medians in reference units: 0.4, 0.6 and 2.2
    assert p50["value"] == pytest.approx(0.6) and p50["n"] == 3
    assert p90["value"] == pytest.approx(0.6 + 0.8 * 1.6)
    assert p50["unit"] == p90["unit"] == "ref"


def test_reference_loop_is_fixed_work():
    assert cli.reference_loop(1000) == cli.reference_loop(1000) == 256
    assert cli.time_reference() > 0


def _record(wall, q1, q3, error_frac=0.0):
    metric = {"value": wall, "q1": q1, "q3": q3}
    return {"workloads": {"w": {
        "error_frac": error_frac,
        "end_to_end": {"wall_ref": metric}}}}


def test_compare_flags_regressions_and_unresolved():
    spec = {"end_to_end": [{"name": "wall_ref", "unit": "ref",
                            "better": "lower", "bound": 0.1}]}
    rows, n = cli.compare(_record(10, 9.9, 10.1), _record(10.5, 10.4, 10.6), spec)
    assert n == 0 and rows[1].endswith("ok")
    rows, n = cli.compare(_record(10, 9.9, 10.1), _record(12, 11.9, 12.1), spec)
    assert n == 1 and "REGRESSION" in rows[1]
    rows, n = cli.compare(_record(10, 8, 12), _record(12, 11.9, 12.1), spec)
    assert n == 0 and "unresolved" in rows[1]
    rows, n = cli.compare(_record(10, 9.9, 10.1),
                          _record(10, 9.9, 10.1, error_frac=0.01), spec)
    assert n == 1 and "REGRESSION" in rows[2]
