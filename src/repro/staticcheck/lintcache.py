"""Incremental lint cache: template content hash -> diagnostics.

Linting a template is dominated by generating and parsing its functional
variant; for an unchanged corpus that work is pure waste.  The cache maps

    sha256(template identity + code + generation inputs)
        -> the template's serialized diagnostics

and is keyed at the *file* level by a catalog version — a digest of
:data:`~repro.staticcheck.diagnostics.CODE_CATALOG` plus
:data:`ANALYSIS_VERSION` — so adding a code or changing pass logic
invalidates every entry at once rather than silently replaying stale
findings.  Diagnostics round-trip losslessly (code, message, severity,
location, hint), which is what makes a warm ``repro lint`` run
byte-identical to the cold one; the ``hits``/``misses`` counts
(:meth:`LintCache.stats`, printed by ``repro lint --cache``) let the CI
cache smoke see the ratio.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.ioutil import atomic_write_text
from repro.ir.astnodes import SourceLocation
from repro.staticcheck.diagnostics import CODE_CATALOG, Diagnostic, Severity
from repro.templates.model import TestTemplate

#: bump when pass logic changes in a way that alters findings without a
#: catalog change (kept in the cache key alongside the catalog digest)
ANALYSIS_VERSION = 1

CACHE_FORMAT = "repro.lint-cache/v1"


def catalog_version() -> str:
    """Digest of the diagnostic catalog + analysis revision."""
    blob = json.dumps(
        {"catalog": dict(sorted(CODE_CATALOG.items())),
         "analysis": ANALYSIS_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def template_key(template: TestTemplate) -> str:
    """Content hash of everything that feeds one template's lint result."""
    blob = json.dumps(
        {
            "name": template.name,
            "feature": template.feature,
            "language": template.language,
            "version": getattr(template, "version", ""),
            "code": template.code,
            "description": template.description,
            "defaults": dict(sorted((template.defaults or {}).items())),
            "dependences": list(template.dependences or []),
            "crossexpect": getattr(template, "crossexpect", ""),
            "environment": dict(sorted(
                (getattr(template, "environment", None) or {}).items()
            )),
        },
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _diag_to_dict(d: Diagnostic) -> Dict:
    return {
        "code": d.code,
        "message": d.message,
        "severity": d.severity.value,
        "file": d.loc.filename,
        "line": d.loc.line,
        "column": d.loc.column,
        "hint": d.hint,
    }


def _diag_from_dict(data: Dict) -> Diagnostic:
    return Diagnostic(
        code=data["code"],
        message=data["message"],
        severity=Severity(data["severity"]),
        loc=SourceLocation(
            filename=data.get("file", "<unknown>"),
            line=int(data.get("line", 0)),
            column=int(data.get("column", 0)),
        ),
        hint=data.get("hint", ""),
    )


class LintCache:
    """One cache file's worth of template lint results."""

    def __init__(self, path):
        self.path = Path(path)
        self.version = catalog_version()
        self.entries: Dict[str, List[Dict]] = {}
        self.hits = 0
        self.misses = 0
        self.stale = False  # version mismatch discarded a previous file
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if payload.get("format") != CACHE_FORMAT:
            self.stale = True
            return
        if payload.get("catalog_version") != self.version:
            self.stale = True
            return
        entries = payload.get("entries", {})
        if isinstance(entries, dict):
            self.entries = entries

    # ------------------------------------------------------------- lookups

    def lookup(self, template: TestTemplate) -> Optional[List[Diagnostic]]:
        cached = self.entries.get(template_key(template))
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            return [_diag_from_dict(d) for d in cached]
        except (KeyError, ValueError):
            # undecodable entry (e.g. code dropped from the catalog)
            self.hits -= 1
            self.misses += 1
            return None

    def store(self, template: TestTemplate,
              diags: List[Diagnostic]) -> None:
        self.entries[template_key(template)] = [
            _diag_to_dict(d) for d in diags
        ]

    # ------------------------------------------------------------ persists

    def save(self) -> None:
        payload = {
            "format": CACHE_FORMAT,
            "catalog_version": self.version,
            "entries": self.entries,
        }
        atomic_write_text(
            self.path, json.dumps(payload, sort_keys=True) + "\n"
        )

    @property
    def checked(self) -> int:
        return self.hits + self.misses

    def stats(self) -> str:
        total = self.checked
        ratio = (100.0 * self.hits / total) if total else 0.0
        return (f"lint cache: {self.hits} hit(s), {self.misses} miss(es) "
                f"({ratio:.0f}% warm)")
