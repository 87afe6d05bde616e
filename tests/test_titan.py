"""Tests for the Titan production-harness simulation (Section VII)."""

import pytest

from repro.compiler import CompilerBehavior
from repro.harness import HarnessConfig
from repro.harness.titan import (
    STACK_CUDA,
    STACK_OPENCL,
    TitanCluster,
    TitanHarness,
    default_stacks,
)
from repro.suite import openacc10_suite


@pytest.fixture(scope="module")
def harness():
    cluster = TitanCluster(num_nodes=8, degraded_fraction=0.25, seed=7)
    # a small feature slice keeps sweeps fast while still exercising the
    # degraded-node fault classes (update / async / copyout / reductions)
    return TitanHarness(
        cluster,
        openacc10_suite(),
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             feature_prefixes=["update", "parallel"]),
    )


class TestCluster:
    def test_degraded_fraction(self):
        cluster = TitanCluster(num_nodes=20, degraded_fraction=0.25, seed=1)
        degraded = [n for n in cluster.nodes if not n.healthy]
        assert len(degraded) == 5

    @pytest.mark.parametrize("num_nodes,fraction,expected", [
        (1, 0.25, 1),   # round() gave 0: a "degraded" cluster with no
        (2, 0.25, 1),   # degraded node (banker's rounding of 0.5)
        (3, 0.10, 1),
        (4, 0.25, 1),
        (6, 0.34, 3),
        (30, 0.10, 3),  # float fuzz: 30*0.1 = 3.0000000000000004
        (5, 0.0, 0),
        (3, 1.0, 3),
    ])
    def test_degraded_count_small_clusters(self, num_nodes, fraction,
                                           expected):
        # any nonzero fraction must degrade at least one node — the whole
        # point of a degraded cluster fixture is that something is broken
        cluster = TitanCluster(num_nodes=num_nodes,
                               degraded_fraction=fraction, seed=1)
        degraded = [n for n in cluster.nodes if not n.healthy]
        assert len(degraded) == expected

    def test_heal_restores_factory_stacks(self):
        cluster = TitanCluster(num_nodes=4, degraded_fraction=1.0, seed=1)
        node = cluster.nodes[2]
        assert not node.healthy
        cluster.heal(node.node_id)
        assert node.healthy
        assert node.stacks == default_stacks()

    def test_deterministic_construction(self):
        a = TitanCluster(num_nodes=10, seed=3)
        b = TitanCluster(num_nodes=10, seed=3)
        assert [n.healthy for n in a.nodes] == [n.healthy for n in b.nodes]

    def test_stacks_have_distinct_backends(self):
        stacks = default_stacks()
        assert (stacks[STACK_CUDA].concrete_device_type
                is not stacks[STACK_OPENCL].concrete_device_type)

    def test_upgrade_preserves_degradation(self):
        cluster = TitanCluster(num_nodes=8, degraded_fraction=0.5, seed=2)
        new = CompilerBehavior(name="titan-cc", version="cuda-next")
        cluster.upgrade_stack(STACK_CUDA, new)
        for node in cluster.nodes:
            if node.healthy:
                assert node.stacks[STACK_CUDA].version == "cuda-next"
            else:
                # degraded nodes carry faults on top of the new version
                assert node.stacks[STACK_CUDA] != new


class TestHarness:
    def test_healthy_nodes_pass_degraded_flagged(self, harness):
        checks = harness.sweep(sample_size=8, seed=0, stacks=(STACK_CUDA,))
        healthy = [c for c in checks if c.healthy]
        degraded = [c for c in checks if not c.healthy]
        assert healthy and degraded
        assert all(not c.flagged for c in healthy)
        assert all(c.flagged for c in degraded)

    def test_sweep_covers_both_stacks(self, harness):
        checks = harness.sweep(sample_size=2, seed=1)
        stacks = {c.stack for c in checks}
        assert stacks == {STACK_CUDA, STACK_OPENCL}

    def test_timeline_tracks_regression_and_recovery(self):
        cluster = TitanCluster(num_nodes=6, degraded_fraction=0.0, seed=5)
        harness = TitanHarness(
            cluster, openacc10_suite(),
            config=HarnessConfig(iterations=1, run_cross=False,
                                 languages=("c",),
                                 feature_prefixes=["update"]),
        )
        regressed = CompilerBehavior(name="titan-cc", version="cuda-bad",
                                     ignore_update=True)
        fixed = CompilerBehavior(name="titan-cc", version="cuda-fixed")
        records = harness.timeline(
            epochs=3, sample_size=3,
            upgrades={1: (STACK_CUDA, regressed), 2: (STACK_CUDA, fixed)},
        )
        assert records[0][STACK_CUDA] == 100.0
        assert records[1][STACK_CUDA] < 100.0
        assert records[2][STACK_CUDA] == 100.0
        # a cluster-wide stack regression must not quarantine the nodes:
        # every sampled check of the stack failing points at the rollout
        assert all(r["quarantined"] == 0.0 for r in records)

    def test_sweep_span_attributes_survive_roundtrip(self, tmp_path):
        # span.set() used to run after the span closed, so drained and
        # serialized traces carried a titan.sweep span with no checks or
        # flagged attributes
        from repro.obs import Tracer, read_trace, write_trace

        cluster = TitanCluster(num_nodes=4, degraded_fraction=0.5, seed=7)
        tracer = Tracer()
        harness = TitanHarness(
            cluster, openacc10_suite(),
            config=HarnessConfig(iterations=1, run_cross=False,
                                 languages=("c",),
                                 feature_prefixes=["update"]),
            tracer=tracer,
        )
        checks = harness.sweep(sample_size=4, seed=0, stacks=(STACK_CUDA,))
        path = tmp_path / "titan.jsonl"
        write_trace(str(path), tracer)
        trace = read_trace(str(path))
        sweep_spans = [s for s in trace.spans if s.name == "titan.sweep"]
        assert len(sweep_spans) == 1
        span = sweep_spans[0]
        assert span.attrs["checks"] == len(checks)
        assert span.attrs["flagged"] == sum(1 for c in checks if c.flagged)
        assert span.attrs["quarantined"] == len(harness.quarantined)

    def test_live_progress_spans_the_sweep(self, tmp_path):
        # a pipeline's owner announces its units: the sweep announces its
        # whole sample before the first check, each re-check and recovery
        # probe its own templates before it runs, so progress never reads
        # near done while checks are still to come
        from repro.obs.live import read_live

        stream = tmp_path / "titan.ndjson"
        suite = openacc10_suite()
        config = HarnessConfig(iterations=1, run_cross=False,
                               languages=("c",), feature_prefixes=["update"],
                               live_stream=str(stream))
        harness = TitanHarness(TitanCluster(num_nodes=4,
                                            degraded_fraction=0.5, seed=7),
                               suite, config=config)
        checks = harness.sweep(sample_size=3, seed=0)
        assert harness.quarantined  # the triage re-checks ran
        harness.probe_quarantined()
        harness.finish()
        parsed = read_live(str(stream))
        selection = len(suite.select(languages=("c",), prefixes=["update"]))
        extends = [e["fields"]["units"]
                   for e in parsed.events("campaign.extend")]
        later = (len(parsed.events("titan.recheck"))
                 + len(parsed.events("titan.probe")))
        assert later > 0
        assert extends == [len(checks) * selection] + [selection] * later
        assert all(s["total_units"] >= extends[0]
                   for s in parsed.snapshots())
        final = parsed.final_snapshot
        assert final["units_done"] == final["total_units"] == sum(extends)
