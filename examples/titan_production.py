#!/usr/bin/env python3
"""Production use on the simulated Titan cluster (Section VII / Fig. 13).

Builds a 16-node cluster where a quarter of the nodes are degraded, then:

1. sweeps a random node sample, validating both software stacks
   (OpenACC->CUDA and OpenACC->OpenCL) on each — degraded nodes are
   flagged by the suite;
2. tracks aggregate functionality over six epochs across a bad compiler
   rollout and its subsequent fix.

Run:  python examples/titan_production.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401  (installed, or PYTHONPATH already set)
except ModuleNotFoundError:  # source checkout: resolve src/ from this file
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import CompilerBehavior
from repro.harness import HarnessConfig
from repro.harness.titan import (
    STACK_CUDA,
    STACK_OPENCL,
    TitanCluster,
    TitanHarness,
)
from repro.suite import openacc10_suite


def main() -> None:
    cluster = TitanCluster(num_nodes=16, degraded_fraction=0.25, seed=2012)
    harness = TitanHarness(
        cluster,
        openacc10_suite(),
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             feature_prefixes=["parallel", "update", "wait"]),
    )

    degraded = sorted(n.node_id for n in cluster.nodes if not n.healthy)
    print(f"cluster: {len(cluster.nodes)} nodes; degraded (hidden from the "
          f"harness): {degraded}\n")

    print("=== random-node validation sweep (both software stacks) ===")
    checks = harness.sweep(sample_size=6, seed=1)
    for check in checks:
        flag = "FLAGGED" if check.flagged else "ok"
        print(f"  node {check.node_id:2d}  {check.stack:15s} "
              f"pass {check.pass_rate:6.1f}%  -> {flag}")
    caught = {c.node_id for c in checks if c.flagged}
    print(f"  flagged nodes: {sorted(caught)} "
          f"(all genuinely degraded: {caught <= set(degraded)})\n")

    print("=== functionality tracking across stack upgrades ===")
    bad_rollout = CompilerBehavior(name="titan-cc", version="cuda-new",
                                   async_wedged_by_compute_data_clauses=True)
    fix = CompilerBehavior(name="titan-cc", version="cuda-new-fixed")
    records = harness.timeline(
        epochs=6, sample_size=5,
        upgrades={2: (STACK_CUDA, bad_rollout), 4: (STACK_CUDA, fix)},
    )
    for record in records:
        epoch = int(record["epoch"])
        note = {2: "  <- bad CUDA-stack rollout", 4: "  <- fix deployed"}.get(epoch, "")
        print(f"  epoch {epoch}: cuda {record[STACK_CUDA]:6.1f}%  "
              f"opencl {record[STACK_OPENCL]:6.1f}%{note}")


if __name__ == "__main__":
    main()
