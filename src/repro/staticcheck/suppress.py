"""The checked-in lint baseline: the one filter between the passes and
the report.

The testsuite corpus deliberately probes host/device divergence and async
timing (``copyin`` discard semantics, ``acc_async_test`` while busy), and
those expected findings must stay green without being globally disabled.
The baseline is a checked-in JSON inventory of them keyed by
``template name -> code -> count``.  A baseline entry is an *allowance*:
up to ``count`` findings of that code are dropped for that template, so a
template that regresses further still fires.  The shipped allowance for
the built-in suites lives next to this module in ``corpus_baseline.json``
and is applied by default; ``repro lint --update-baseline`` regenerates it
from a raw run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.diagnostics import Diagnostic

#: format tag of the baseline file
BASELINE_FORMAT = "repro.lint-baseline/v1"

#: shipped allowance for the built-in suites
_SHIPPED_PATH = Path(__file__).with_name("corpus_baseline.json")


@dataclass
class Baseline:
    """Allowance of known findings: ``template -> code -> count``."""

    entries: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(sum(codes.values()) for codes in self.entries.values())

    def allowance(self, template: str, code: str) -> int:
        return self.entries.get(template, {}).get(code, 0)

    def apply(
        self, template: str, diags: Sequence[Diagnostic]
    ) -> Tuple[List[Diagnostic], int]:
        """Drop up to the allowed count per code, oldest-position first.

        Returns ``(kept, baselined_count)``.
        """
        budget = dict(self.entries.get(template, {}))
        if not budget:
            return list(diags), 0
        kept: List[Diagnostic] = []
        dropped = 0
        for d in diags:
            if budget.get(d.code, 0) > 0:
                budget[d.code] -= 1
                dropped += 1
            else:
                kept.append(d)
        return kept, dropped

    def render(self) -> str:
        payload = {
            "format": BASELINE_FORMAT,
            "templates": {
                name: dict(sorted(codes.items()))
                for name, codes in sorted(self.entries.items())
                if codes
            },
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def loads_baseline(text: str) -> Baseline:
    payload = json.loads(text)
    if payload.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"not a lint baseline file (format "
            f"{payload.get('format')!r}, expected {BASELINE_FORMAT!r})"
        )
    entries: Dict[str, Dict[str, int]] = {}
    for name, codes in payload.get("templates", {}).items():
        entries[name] = {str(c): int(n) for c, n in codes.items()}
    return Baseline(entries=entries)


def load_baseline(path) -> Baseline:
    return loads_baseline(Path(path).read_text(encoding="utf-8"))


_shipped_cache: Optional[Baseline] = None


def shipped_baseline() -> Baseline:
    """The checked-in allowance for the built-in suites (cached)."""
    global _shipped_cache
    if _shipped_cache is None:
        if _SHIPPED_PATH.exists():
            _shipped_cache = load_baseline(_SHIPPED_PATH)
        else:
            _shipped_cache = Baseline()
    return _shipped_cache


def baseline_from_findings(
    findings: Sequence[Tuple[str, Diagnostic]]
) -> Baseline:
    """Build an allowance from ``(template_name, diagnostic)`` pairs."""
    entries: Dict[str, Dict[str, int]] = {}
    for name, diag in findings:
        codes = entries.setdefault(name, {})
        codes[diag.code] = codes.get(diag.code, 0) + 1
    return Baseline(entries=entries)
