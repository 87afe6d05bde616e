"""Diagnostic model for the static analyses.

A :class:`Diagnostic` is one finding of one pass: a stable code, a severity,
a human message, the source location it anchors to and an optional fix
hint.  Codes are partitioned by the pass that emits them (see DESIGN.md
"Static checking"):

* ``ACC1xx`` — directive/clause legality (matrix, duplicates, conflicts,
  region scoping);
* ``ACC2xx`` — conservative loop dependence / race analysis;
* ``ACC3xx`` — corpus lint (template-level: parse failures, functional/
  cross divergence, crossexpect coherence);
* ``ACC4xx`` — whole-program data-environment flow (stale host/device
  copies, dead transfers, conflicting nested mappings);
* ``ACC5xx`` — async/wait happens-before (cross-queue races, host
  accesses overlapping pending async work, dead waits).

Every code the passes can emit is declared in :data:`CODE_CATALOG`; the
CI corpus gate treats any code outside a run's recorded baseline as a
regression, so new codes must be added here (and documented) first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from repro.ir.astnodes import SourceLocation


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"

    def __lt__(self, other: "Severity") -> bool:
        order = {"error": 0, "warning": 1}
        return order[self.value] < order[other.value]


#: every diagnostic code the passes may emit, with its one-line meaning
CODE_CATALOG: Dict[str, str] = {
    # -- ACC1xx: directive/clause legality --------------------------------
    "ACC101": "clause not permitted on this directive (legality matrix)",
    "ACC102": "single-valued clause appears more than once",
    "ACC103": "variable named in more than one data clause",
    "ACC104": "conflicting scheduling clauses (seq with independent/"
              "gang/worker/vector)",
    "ACC105": "loop parallelism nesting order violated (gang inside "
              "worker/vector, worker inside vector)",
    "ACC106": "compute region nested inside a compute region "
              "(illegal in OpenACC 1.0)",
    "ACC107": "cache directive not inside a loop body",
    "ACC108": "update directive inside a compute region",
    "ACC109": "reduction variable also has a private/firstprivate copy",
    # -- ACC2xx: loop dependence / race analysis --------------------------
    "ACC201": "independent asserted on a loop with a detectable "
              "loop-carried dependence",
    "ACC202": "reduction-pattern accumulation in a work-shared loop "
              "without a reduction clause",
    "ACC203": "shared scalar written in a work-shared loop (race)",
    # -- ACC3xx: corpus lint ----------------------------------------------
    "ACC301": "generated functional variant does not parse",
    "ACC302": "functional/cross pair diverges outside the tested feature",
    "ACC303": "crossexpect incoherent with the substitution",
    # -- ACC4xx: whole-program data-environment flow ----------------------
    "ACC401": "host reads an array whose device copy is newer (stale "
              "host copy; missing update host / copyout)",
    "ACC402": "device reads an array whose device copy is stale "
              "(missing update device, or created without transfer)",
    "ACC403": "dead copyout: device copy is never written in the region",
    "ACC404": "conflicting data clause for an array already present "
              "from an enclosing region",
    "ACC405": "update directive names an array with no device copy",
    "ACC406": "dead copyin: device copy is never read in the region",
    # -- ACC5xx: async/wait happens-before --------------------------------
    "ACC501": "unsynchronized write-write or read-write on one array "
              "from different async queues",
    "ACC502": "wait targets a queue no async clause ever uses",
    "ACC503": "host touches data (or observes completion state) of "
              "async work that has not been waited on",
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    loc: SourceLocation = field(default_factory=SourceLocation)
    #: suggested remediation, shown after the message in text output
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODE_CATALOG:
            raise ValueError(
                f"undeclared diagnostic code {self.code!r}; add it to "
                "repro.staticcheck.diagnostics.CODE_CATALOG first"
            )

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """``line:col: error: ACC101 message (hint: ...)``"""
        where = ""
        if self.loc.line or self.loc.column:
            where = f"{self.loc.line}:{self.loc.column}: "
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{where}{self.severity.value}: {self.code} {self.message}{hint}"

    def __str__(self) -> str:
        return f"{self.code} {self.message}"


def sort_diagnostics(diags: List[Diagnostic]) -> List[Diagnostic]:
    """Deterministic order: source position, then code, then message.

    The harness lint gate folds diagnostics into report rows, so the order
    must never depend on traversal accidents or scheduling.
    """
    return sorted(
        diags,
        key=lambda d: (d.loc.line, d.loc.column, d.code, d.message),
    )


def errors_only(diags: List[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diags if d.is_error]


def summarize(diags: List[Diagnostic], limit: int = 3) -> str:
    """Compact one-line summary for report cells and harness attribution."""
    shown = sort_diagnostics(list(diags))[:limit]
    text = "; ".join(str(d) for d in shown)
    extra = len(diags) - len(shown)
    if extra > 0:
        text += f" (+{extra} more)"
    return text
