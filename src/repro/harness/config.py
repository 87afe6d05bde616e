"""Harness configuration (Section III: "Compiler configuration" and
"Feature selection")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.faults import FaultPlan

#: execution policies understood by :mod:`repro.harness.engine`
EXECUTION_POLICIES = ("serial", "process")


@dataclass
class HarnessConfig:
    """Knobs for a validation run.

    ``iterations`` is the paper's M: every test is repeated and the cross
    results feed the certainty statistic pc = 1 - (1 - nf/M)^M.

    ``workers``/``policy`` select the execution engine: ``serial`` runs
    templates in order in-process, ``process`` fans the suite out over a
    pool of worker processes.  Both produce identical reports for the same
    configuration (template order and per-iteration seeds are derived from
    the config, never from scheduling).
    """

    iterations: int = 3
    #: interpreter step budget per run; exceeding it is classified as the
    #: paper's "executes forever" runtime error
    max_steps: int = 2_000_000
    #: languages to exercise (both by default, as in the paper)
    languages: Sequence[str] = ("c", "fortran")
    #: restrict to these dotted feature ids (None = all)
    features: Optional[Sequence[str]] = None
    #: restrict to features under these prefixes, e.g. ["parallel", "loop"]
    feature_prefixes: Optional[Sequence[str]] = None
    #: run cross tests (disabling them is the ablation of the cross-test
    #: methodology benchmark)
    run_cross: bool = True
    #: base RNG seed; iteration k runs with seed base+k so repeated runs are
    #: reproducible yet not identical
    rng_seed: int = 20140519
    #: execution policy: 'serial' | 'process'
    policy: str = "serial"
    #: pool size for the 'process' policy (ignored by 'serial')
    workers: int = 1
    #: share parses and runs across phases (see repro.compiler.cache): the
    #: parse tier and the execute memo
    compile_cache: bool = True
    #: bounded retry budget per work unit: a template whose run dies on a
    #: harness fault (injected or real) is re-run up to this many times
    #: before it degrades to a HARNESS_ERROR-marked result
    retries: int = 0
    #: base backoff between retries of one unit (doubles per attempt; the
    #: runner's sleeper is injectable so tests are instant)
    retry_backoff_s: float = 0.05
    #: per-template wall-clock budget in seconds (None = unbounded) —
    #: distinct from max_steps, which bounds interpreter work, not time
    template_timeout_s: Optional[float] = None
    #: deterministic fault-injection plan (see repro.faults); None = no
    #: faults
    fault_plan: Optional[FaultPlan] = None
    #: opt-in static pre-compile gate: run repro.staticcheck over each
    #: template first, and mark units with error diagnostics STATIC_ERROR
    #: (a corpus defect) instead of compiling/running them
    lint: bool = False
    #: live telemetry (repro.obs.live): append a repro.obs.live/v1 NDJSON
    #: stream of unit events and campaign snapshots to this file.  Pure
    #: observation — reports stay byte-identical with it on or off
    live_stream: Optional[str] = None
    #: live telemetry: repaint a TTY status line (stderr) on each snapshot
    status: bool = False
    #: live telemetry: atomically rewrite a Prometheus textfile-exporter
    #: .prom file on each snapshot
    prom: Optional[str] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1 (got {self.iterations}): with zero "
                "iterations every phase is vacuously 'all correct' and any "
                "compiler passes with certainty 0"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1 (got {self.max_steps})")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {self.workers})")
        if self.policy not in EXECUTION_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"expected one of {', '.join(EXECUTION_POLICIES)}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0 (got {self.retries})")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0 (got {self.retry_backoff_s})"
            )
        if self.template_timeout_s is not None and self.template_timeout_s <= 0:
            raise ValueError(
                "template_timeout_s must be > 0 when set "
                f"(got {self.template_timeout_s})"
            )
        for knob in ("live_stream", "prom"):
            value = getattr(self, knob)
            if value is not None and not str(value).strip():
                raise ValueError(f"{knob} must be a non-empty path when set")

    @property
    def live_enabled(self) -> bool:
        """True when any live-telemetry sink is configured."""
        return bool(self.live_stream or self.status or self.prom)

    def iteration_seeds(self):
        return [self.rng_seed + k for k in range(self.iterations)]
