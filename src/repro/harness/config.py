"""Harness configuration (Section III: "Compiler configuration" and
"Feature selection")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compiler.interp import BACKENDS as INTERPRETER_BACKENDS
from repro.compiler.interp import DEFAULT_BACKEND
from repro.faults import FaultPlan

#: execution policies understood by :mod:`repro.harness.engine`
EXECUTION_POLICIES = ("serial", "thread", "process")


@dataclass
class HarnessConfig:
    """Knobs for a validation run.

    ``iterations`` is the paper's M: every test is repeated and the cross
    results feed the certainty statistic pc = 1 - (1 - nf/M)^M.

    ``workers``/``policy`` select the execution engine: ``serial`` runs
    templates in order in-process, ``thread``/``process`` fan the suite out
    over a pool.  All policies produce identical reports for the same
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
    #: execution policy: 'serial' | 'thread' | 'process'
    policy: str = "serial"
    #: pool size for the thread/process policies (ignored by 'serial')
    workers: int = 1
    #: memoise compiles across phases/runs (see repro.compiler.cache)
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
    #: interpreter backend: 'closures' (repro.compiler.closures, the
    #: default and the production path) or 'tree' (the reference walker,
    #: kept as the differential oracle).  Purely an execution knob — both
    #: backends produce byte-identical reports for the same configuration
    backend: str = DEFAULT_BACKEND
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
        if self.backend not in INTERPRETER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {', '.join(INTERPRETER_BACKENDS)}"
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

    # ------------------------------------------------------- wire round trip

    def to_dict(self) -> dict:
        """A JSON-safe dict round-trippable through :meth:`from_dict`.

        The :mod:`repro.server` wire format: campaign submissions carry
        their config this way, and the server journal stores it so a
        restarted server rebuilds the exact same campaign key.
        """
        from dataclasses import asdict

        data = asdict(self)
        data["languages"] = list(self.languages)
        for knob in ("features", "feature_prefixes"):
            value = getattr(self, knob)
            data[knob] = list(value) if value is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessConfig":
        """Rebuild a config from :meth:`to_dict` output (or a hand-written
        submission dict; ``fault_plan`` also accepts a CLI spec string
        like ``'worker=0.5,seed=7'``).  Unknown keys are rejected — a
        typo'd submission must fail loudly, not run a default campaign.
        """
        from dataclasses import fields as dc_fields

        known = {f.name for f in dc_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        kwargs = dict(data)
        plan = kwargs.get("fault_plan")
        if isinstance(plan, str):
            kwargs["fault_plan"] = FaultPlan.parse(plan)
        elif isinstance(plan, dict):
            kwargs["fault_plan"] = FaultPlan(**plan)
        for knob in ("languages", "features", "feature_prefixes"):
            value = kwargs.get(knob)
            if isinstance(value, list):
                kwargs[knob] = tuple(value)
        return cls(**kwargs)
