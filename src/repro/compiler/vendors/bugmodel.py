"""Bug inventory model.

A :class:`BugRecord` is one vendor bug as the paper's Table I counts them:
an identifiable defect in one language frontend of one compiler version
range.  Its ``patch`` is a partial :class:`CompilerBehavior` update; a
version's behaviour for a language is the reference behaviour plus the
union of its bug patches (:func:`compose_behavior`).

:func:`feature_unsupported_patch` maps a feature id to the patch that makes
that feature fail compilation — the dominant bug class in early/beta
releases ("if the user uses an OpenACC feature that is not yet supported by
the compiler", Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR

#: behaviour fields that merge as set-unions when composing patches
_SET_FIELDS = (
    "unsupported_directives",
    "unsupported_clauses",
    "unsupported_routines",
    "ignored_loop_levels",
    "broken_reductions",
)


@dataclass(frozen=True)
class BugRecord:
    """One counted vendor bug."""

    bug_id: str
    title: str
    language: str  # 'c' | 'fortran'
    patch: Tuple[Tuple[str, object], ...] = ()
    #: feature ids whose tests this bug is expected to fail (documentation
    #: and detection-check targets; collateral failures may add more)
    affects: Tuple[str, ...] = ()
    description: str = ""

    @staticmethod
    def make(bug_id: str, title: str, language: str,
             patch: Optional[Dict[str, object]] = None,
             affects: Iterable[str] = (),
             description: str = "") -> "BugRecord":
        items = tuple(sorted((patch or {}).items()))
        return BugRecord(
            bug_id=bug_id, title=title, language=language, patch=items,
            affects=tuple(affects), description=description,
        )


def compose_behavior(
    base: CompilerBehavior, bugs: Iterable[BugRecord]
) -> CompilerBehavior:
    """Reference/base behaviour plus the union of the bug patches."""
    changes: Dict[str, object] = {}
    for bug in bugs:
        for key, value in bug.patch:
            if key in _SET_FIELDS:
                current = changes.get(key, getattr(base, key))
                changes[key] = frozenset(current) | frozenset(value)
            else:
                changes[key] = value
    return base.with_(**changes) if changes else base


#: reduction feature leaf -> clause operator symbol
_REDUCTION_OPS = {
    "add": "+", "mul": "*", "max": "max", "min": "min",
    "bitand": "&", "bitor": "|", "bitxor": "^",
    "logand": "&&", "logor": "||",
}


def feature_unsupported_patch(feature: str) -> Dict[str, object]:
    """Patch making `feature`'s test fail at compile time (or, for
    reduction operators, produce silent wrong code)."""
    if feature.startswith("runtime."):
        return {"unsupported_routines": frozenset({feature.split(".", 1)[1]})}
    if feature.startswith("loop.reduction."):
        leaf = feature.rsplit(".", 1)[-1]          # e.g. int_add
        op = _REDUCTION_OPS[leaf.split("_", 1)[1]]
        return {"broken_reductions": frozenset({op})}
    if "." in feature:
        directive, clause = feature.split(".", 1)
        return {"unsupported_clauses": frozenset({(directive, clause)})}
    return {"unsupported_directives": frozenset({feature})}


def unsupported_feature_bug(vendor: str, version: str, feature: str,
                            language: str) -> BugRecord:
    """Convenience constructor for the unsupported-feature bug class."""
    lang_tag = "c" if language == "c" else "f"
    return BugRecord.make(
        bug_id=f"{vendor}-{version}-{lang_tag}-{feature}",
        title=f"{feature} not supported ({language})",
        language=language,
        patch=feature_unsupported_patch(feature),
        affects=(feature,),
        description=(
            f"The {language} frontend of {vendor} {version} rejects or "
            f"mishandles `{feature}`."
        ),
    )


@dataclass
class VendorVersion:
    """One (vendor, version) with its per-language bug inventory."""

    vendor: str
    version: str
    c_bugs: List[BugRecord] = field(default_factory=list)
    fortran_bugs: List[BugRecord] = field(default_factory=list)
    #: vendor-wide base-behaviour overrides (execution-model mapping etc.)
    base_overrides: Dict[str, object] = field(default_factory=dict)

    def bugs(self, language: str) -> List[BugRecord]:
        return self.c_bugs if language == "c" else self.fortran_bugs

    def bug_count(self, language: str) -> int:
        return len(self.bugs(language))

    def behavior(self, language: str) -> CompilerBehavior:
        base = REFERENCE_BEHAVIOR.with_(
            name=self.vendor, version=self.version, **self.base_overrides
        )
        return compose_behavior(base, self.bugs(language))

    @property
    def label(self) -> str:
        return f"{self.vendor} {self.version}"
