"""Hot-path benchmarks: the closure-lowered interpreter vs the reference
tree walker (``tests/treewalk.py``).

The recorded baseline lives in ``benchmarks/BENCH_hotpath.json`` (written
by ``python -m benchmarks.record``); CI re-records on every PR and gates on
regression.  The in-test floor here is deliberately conservative (2x, vs
the 3x the recorded baseline must show) so a loaded CI box never flakes
this suite — the real bar is enforced by ``benchmarks.record --compare``
and by the committed-baseline assertions below.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import print_series
from benchmarks.record import MICRO_SOURCE, SCHEMA
from repro.compiler import Compiler, ExecutionLimits
from tests.treewalk import oracle

_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_hotpath.json")


@pytest.fixture(scope="module")
def micro():
    compiled = Compiler().compile(MICRO_SOURCE, "c", "hotpath_micro.c")
    compiled.lowered()
    return compiled


_LIMITS = ExecutionLimits(max_steps=50_000_000)


def test_bench_interpreter_tree(benchmark, micro):
    with oracle():
        result = benchmark.pedantic(
            lambda: micro.run(limits=_LIMITS),
            rounds=2, iterations=1,
        )
    assert result.steps > 1_000_000


def test_bench_interpreter_closures(benchmark, micro):
    result = benchmark.pedantic(
        lambda: micro.run(limits=_LIMITS),
        rounds=2, iterations=1,
    )
    assert result.steps > 1_000_000


def test_closures_speedup_floor(micro):
    """Closures must beat the tree walker by >=2x on the same box, with an
    identical ExecutionResult (the equivalence half of the contract)."""
    def best_of(reps=3):
        best, result = None, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = micro.run(limits=_LIMITS)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, result

    with oracle():
        tree_s, tree_result = best_of()
    closures_s, closures_result = best_of()
    assert closures_result == tree_result
    speedup = tree_s / closures_s
    print_series("Interpreter hot path", [
        f"tree     {tree_result.steps / tree_s:>12,.0f} steps/s",
        f"closures {closures_result.steps / closures_s:>12,.0f} steps/s",
        f"speedup  {speedup:>12.2f}x",
    ])
    assert speedup >= 2.0, (
        f"closures only {speedup:.2f}x over the tree walker"
    )


class TestRecordedBaseline:
    """The committed baseline is itself part of the acceptance surface."""

    @pytest.fixture(scope="class")
    def baseline(self):
        with open(_BASELINE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_schema_and_fields(self, baseline):
        assert baseline["schema"] == SCHEMA
        micro = baseline["microbench"]
        assert micro["tree_steps_per_sec"] > 0
        assert micro["closures_steps_per_sec"] > 0
        assert baseline["engine"]["closures"]["iterations_per_sec"] > 0
        assert baseline["generation"]["templates_per_sec"] > 0
        assert baseline["fig8a"]["wall_s"] > 0

    def test_recorded_speedup_meets_the_bar(self, baseline):
        # the PR's acceptance criterion: >=3x interpreter steps/sec,
        # recorded on the machine that produced the committed baseline
        assert baseline["microbench"]["speedup"] >= 3.0
