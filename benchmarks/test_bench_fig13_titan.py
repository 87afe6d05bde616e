"""Figure 13 / Section VII: production use on the Titan simulation.

The suite "runs on random nodes to check functionality requirements of the
nodes" and "is also used to test different software stacks (OpenACC to
CUDA or OpenCL)" and "to track functionality improvements or degradation
over time".  This bench regenerates all three workflows: a random-node
sweep across both stacks (degraded nodes must be flagged, healthy ones
must not), and a longitudinal timeline across a bad rollout and its fix.
"""

import pytest

from benchmarks.conftest import print_series
from repro.compiler import CompilerBehavior
from repro.harness import HarnessConfig
from repro.harness.titan import (
    STACK_CUDA,
    STACK_OPENCL,
    TitanCluster,
    TitanHarness,
)


def test_bench_fig13_node_sweep(benchmark, suite10):
    cluster = TitanCluster(num_nodes=16, degraded_fraction=0.25, seed=42)
    harness = TitanHarness(
        cluster, suite10,
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             feature_prefixes=["parallel", "update"]),
    )

    def sweep():
        return harness.sweep(sample_size=8, seed=3)

    checks = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        f"node {c.node_id:3d} {c.stack:15s} "
        f"{'healthy ' if c.healthy else 'DEGRADED'} "
        f"pass {c.pass_rate:6.1f}% {'FLAGGED' if c.flagged else ''}"
        for c in checks
    ]
    print_series("Fig. 13 — validation sweep over random Titan nodes", rows)

    # both stacks validated on each sampled node
    assert {c.stack for c in checks} == {STACK_CUDA, STACK_OPENCL}
    # the harness flags exactly the degraded nodes
    for check in checks:
        assert check.flagged == (not check.healthy), (
            f"node {check.node_id} ({check.stack}) misclassified"
        )


def test_bench_fig13_timeline(benchmark, suite10):
    cluster = TitanCluster(num_nodes=8, degraded_fraction=0.0, seed=11)
    harness = TitanHarness(
        cluster, suite10,
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             feature_prefixes=["update", "wait"]),
    )
    regressed = CompilerBehavior(name="titan-cc", version="cuda-2",
                                 ignore_update=True)
    fixed = CompilerBehavior(name="titan-cc", version="cuda-3")

    def track():
        return harness.timeline(
            epochs=4, sample_size=4,
            upgrades={1: (STACK_CUDA, regressed), 3: (STACK_CUDA, fixed)},
        )

    records = benchmark.pedantic(track, rounds=1, iterations=1)

    rows = [
        f"epoch {int(r['epoch'])}: cuda {r[STACK_CUDA]:6.1f}%  "
        f"opencl {r[STACK_OPENCL]:6.1f}%  "
        f"flagged(cuda)={int(r[STACK_CUDA + ':flagged'])}"
        for r in records
    ]
    print_series("Fig. 13 — functionality tracking across stack upgrades", rows)

    # the bad rollout degrades epochs 1-2; the fix restores epoch 3
    assert records[0][STACK_CUDA] == 100.0
    assert records[1][STACK_CUDA] < 100.0
    assert records[2][STACK_CUDA] < 100.0
    assert records[3][STACK_CUDA] == 100.0
    # the OpenCL stack is unaffected throughout (stack isolation)
    assert all(r[STACK_OPENCL] == 100.0 for r in records)
