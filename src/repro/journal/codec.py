"""Journal payload codec and campaign keys.

``encode_result``/``decode_result`` round-trip a
:class:`~repro.harness.runner.TestResult` through plain JSON so a resumed
campaign can rebuild *exactly* the result objects an uninterrupted run
would hold — every field a renderer reads (verdicts, iteration outcomes,
failure details, generated sources) survives, which is what makes the
resumed report byte-identical.

Campaign keys are canonical JSON-safe dicts binding a journal to one
campaign: the suite selection, the compiler behaviour under test, the
result-affecting harness config, the seeds, and the code version.  Pure
execution knobs (``policy``, ``workers``, ``compile_cache``,
``retry_backoff_s``) are deliberately excluded — the engine guarantees
they never change results, so a campaign may be resumed under a different
policy or pool size.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Dict, List, Optional, Sequence

import repro
from repro.harness.config import HarnessConfig
from repro.harness.runner import (
    FailureKind,
    IterationOutcome,
    PhaseResult,
    SuiteRunReport,
    TestResult,
)
from repro.journal.wal import JOURNAL_FORMAT, JournalMismatchError

#: config fields that can never change results (engine determinism
#: guarantee; the live-telemetry knobs only *observe* a run) and therefore
#: stay out of the campaign key
_EXECUTION_ONLY_CONFIG = {"policy", "workers", "compile_cache",
                          "retry_backoff_s",
                          "live_stream", "status", "prom"}


def canonicalize(obj):
    """Reduce ``obj`` to JSON-round-trip-stable data (sorted, no sets)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonicalize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items(),
                                                           key=lambda kv: str(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return sorted((canonicalize(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    if isinstance(obj, Enum):
        return canonicalize(obj.value)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def config_fingerprint(config: HarnessConfig) -> dict:
    """The result-affecting subset of a config, canonicalized."""
    fields = dataclasses.asdict(config)
    return canonicalize({k: v for k, v in fields.items()
                         if k not in _EXECUTION_ONLY_CONFIG})


def validate_campaign_key(suite: str, behavior, config: HarnessConfig) -> dict:
    """Campaign key for a ``repro validate`` run."""
    return {
        "format": JOURNAL_FORMAT,
        "command": "validate",
        "code_version": repro.__version__,
        "suite": suite,
        "compiler": behavior.label,
        "behavior": canonicalize(behavior),
        "config": config_fingerprint(config),
    }


def titan_campaign_key(config: HarnessConfig, *, nodes: int, degraded: float,
                       seed: int, sample: int, recheck: int) -> dict:
    """Campaign key for a ``repro titan`` sweep."""
    return {
        "format": JOURNAL_FORMAT,
        "command": "titan",
        "code_version": repro.__version__,
        "nodes": nodes,
        "degraded": degraded,
        "seed": seed,
        "sample": sample,
        "recheck": recheck,
        "config": config_fingerprint(config),
    }


def unit_keys(templates: Sequence) -> List[str]:
    """Stable, unique journal keys for a template list, in order.

    ``feature:language`` is unique in practice; a duplicate (two templates
    for the same pair) gets a deterministic ``~n`` suffix in selection
    order, mirroring the tracer's span-ID rule.
    """
    seen: Dict[str, int] = {}
    keys: List[str] = []
    for template in templates:
        base = f"{template.feature}:{template.language}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        keys.append(base if n == 0 else f"{base}~{n + 1}")
    return keys


# ---------------------------------------------------------------------------
# TestResult round-trip
# ---------------------------------------------------------------------------


def _encode_iteration(it: IterationOutcome) -> dict:
    return {
        "ok": it.ok,
        "value": it.value,
        "error": it.error,
        "kind": it.kind.value if it.kind is not None else None,
        "steps": it.steps,
        "bytes_to_device": it.bytes_to_device,
        "bytes_to_host": it.bytes_to_host,
        "queue_waits": it.queue_waits,
        "queue_max_pending": it.queue_max_pending,
    }


def _decode_iteration(data: dict) -> IterationOutcome:
    kind = data.get("kind")
    return IterationOutcome(
        ok=bool(data.get("ok")),
        value=data.get("value"),
        error=data.get("error"),
        kind=FailureKind(kind) if kind is not None else None,
        steps=int(data.get("steps", 0)),
        bytes_to_device=int(data.get("bytes_to_device", 0)),
        bytes_to_host=int(data.get("bytes_to_host", 0)),
        queue_waits=int(data.get("queue_waits", 0)),
        queue_max_pending=int(data.get("queue_max_pending", 0)),
    )


def _encode_phase(phase: PhaseResult) -> dict:
    return {
        "mode": phase.mode,
        "source": phase.source,
        "compile_error": phase.compile_error,
        "harness_error": phase.harness_error,
        "static_error": phase.static_error,
        "compile_s": phase.compile_s,
        "run_s": phase.run_s,
        "cache_hit": phase.cache_hit,
        "lower_hit": phase.lower_hit,
        "executed": phase.executed,
        "iterations": [_encode_iteration(it) for it in phase.iterations],
    }


def _decode_phase(data: dict) -> PhaseResult:
    iterations = [_decode_iteration(it) for it in data.get("iterations", [])]
    # journals written before iterations were replicated lack the key:
    # those campaigns executed every iteration
    executed = data.get("executed")
    return PhaseResult(
        mode=data.get("mode", "functional"),
        source=data.get("source", ""),
        compile_error=data.get("compile_error"),
        harness_error=data.get("harness_error"),
        static_error=data.get("static_error"),
        compile_s=float(data.get("compile_s", 0.0)),
        run_s=float(data.get("run_s", 0.0)),
        cache_hit=bool(data.get("cache_hit", False)),
        lower_hit=(bool(data["lower_hit"])
                   if data.get("lower_hit") is not None else None),
        executed=int(executed) if executed is not None else len(iterations),
        iterations=iterations,
    )


def encode_result(result: TestResult) -> dict:
    """One completed work unit as a JSON-safe journal payload."""
    return {
        "elapsed_s": result.elapsed_s,
        "functional": _encode_phase(result.functional),
        "cross": _encode_phase(result.cross)
        if result.cross is not None else None,
    }


def decode_result(payload: dict, template) -> TestResult:
    """Rebuild a :class:`TestResult` from a journal payload + its template."""
    cross = payload.get("cross")
    return TestResult(
        template=template,
        functional=_decode_phase(payload.get("functional") or {}),
        cross=_decode_phase(cross) if cross is not None else None,
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
    )


# ---------------------------------------------------------------------------
# Titan StackCheck round-trip
# ---------------------------------------------------------------------------


def encode_check(check) -> dict:
    """One Titan node/stack check (its whole mini suite run) as a payload."""
    report = check.report
    return {
        "node": check.node_id,
        "stack": check.stack,
        "healthy": check.healthy,
        "compiler_label": report.compiler_label,
        "elapsed_s": report.elapsed_s,
        "results": [
            {"unit": key, "result": encode_result(result)}
            for key, result in zip(
                unit_keys([r.template for r in report.results]),
                report.results,
            )
        ],
    }


def decode_check(payload: dict, templates_by_key: Dict[str, object],
                 config: HarnessConfig):
    """Rebuild a Titan :class:`~repro.harness.titan.StackCheck`."""
    from repro.harness.titan import StackCheck

    results: List[TestResult] = []
    for entry in payload.get("results", []):
        template = templates_by_key.get(entry.get("unit"))
        if template is None:
            raise JournalMismatchError(
                f"journal references template {entry.get('unit')!r} that the "
                "current suite selection does not contain — the suite or "
                "code version changed under the journal"
            )
        results.append(decode_result(entry.get("result") or {}, template))
    report = SuiteRunReport(
        compiler_label=payload.get("compiler_label", "?"),
        config=config,
        results=results,
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
    )
    return StackCheck(
        node_id=int(payload.get("node", -1)),
        stack=str(payload.get("stack", "?")),
        healthy=bool(payload.get("healthy", True)),
        report=report,
    )


def template_map(suite, config: HarnessConfig) -> Dict[str, object]:
    """Key -> template for the selection a config makes on a suite (the
    lookup side of :func:`decode_check`)."""
    templates = list(suite.select(
        languages=config.languages,
        features=config.features,
        prefixes=config.feature_prefixes,
    ))
    return dict(zip(unit_keys(templates), templates))
