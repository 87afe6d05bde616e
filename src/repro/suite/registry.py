"""Suite registry: every authored template, parsed and indexed.

The registry validates at construction that each template's feature id
exists in the spec feature tree and that the (feature, language) pair is
unique — the paper's requirement that "single generated test code must test
for only one OpenACC feature".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.spec.features import OPENACC_ALL
from repro.templates import TestTemplate, parse_template


def _did_you_mean(name: str, candidates: Iterable[str]) -> str:
    """`` — did you mean 'x'?`` suffix for error messages, or ''."""
    import difflib

    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return f" — did you mean {matches[0]!r}?" if matches else ""


class SuiteRegistry:
    """Indexed collection of parsed test templates."""

    def __init__(self, template_texts: Iterable[str], label: str = "suite"):
        self.label = label
        self._by_key: Dict[Tuple[str, str], TestTemplate] = {}
        self._order: List[TestTemplate] = []
        for text in template_texts:
            template = parse_template(text)
            if template.feature not in OPENACC_ALL:
                raise ValueError(
                    f"template {template.name!r} tests unknown feature "
                    f"{template.feature!r}"
                    f"{_did_you_mean(template.feature, (f.fid for f in OPENACC_ALL))}"
                )
            key = (template.feature, template.language)
            if key in self._by_key:
                # a duplicate is usually a typo'd/too-generic feature id:
                # suggest a close feature that has no template yet
                free = [
                    f.fid for f in OPENACC_ALL
                    if f.fid != template.feature
                    and (f.fid, template.language) not in self._by_key
                ]
                raise ValueError(
                    f"duplicate template for feature {template.feature!r} "
                    f"({template.language}): {template.name!r} collides with "
                    f"{self._by_key[key].name!r}"
                    f"{_did_you_mean(template.feature, free)}"
                )
            self._by_key[key] = template
            self._order.append(template)

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[TestTemplate]:
        return iter(self._order)

    def get(self, feature: str, language: str) -> Optional[TestTemplate]:
        return self._by_key.get((feature, language))

    def for_language(self, language: str) -> List[TestTemplate]:
        return [t for t in self._order if t.language == language]

    def features(self) -> List[str]:
        seen: Dict[str, None] = {}
        for t in self._order:
            seen.setdefault(t.feature, None)
        return list(seen)

    def select(
        self,
        languages: Optional[Iterable[str]] = None,
        features: Optional[Iterable[str]] = None,
        prefixes: Optional[Iterable[str]] = None,
    ) -> List[TestTemplate]:
        """Feature selection (paper Section III: "User can choose to test
        the directives, their clauses or any other feature")."""
        langs = set(languages) if languages is not None else None
        feats = set(features) if features is not None else None
        prefs = tuple(prefixes) if prefixes is not None else None
        out = []
        for t in self._order:
            if langs is not None and t.language not in langs:
                continue
            if feats is not None and t.feature not in feats:
                continue
            if prefs is not None and not any(
                t.feature == p or t.feature.startswith(p + ".") or
                t.feature.startswith(p + " ")
                for p in prefs
            ):
                continue
            out.append(t)
        return out


def _collect_10() -> List[str]:
    from repro.suite import compute, datacls, environ, loops, others, reductions, runtime_api

    texts: List[str] = []
    texts.extend(compute.templates())
    texts.extend(datacls.templates())
    texts.extend(loops.templates())
    texts.extend(reductions.templates())
    texts.extend(others.templates())
    texts.extend(runtime_api.templates())
    texts.extend(environ.templates())
    return texts


def _collect_20() -> List[str]:
    from repro.suite import acc20

    return acc20.templates()


def _collect_combinations() -> List[str]:
    from repro.suite import combinations

    return combinations.templates()


_SUITE_10: Optional[SuiteRegistry] = None
_SUITE_20: Optional[SuiteRegistry] = None
_SUITE_COMBO: Optional[SuiteRegistry] = None


def openacc10_suite() -> SuiteRegistry:
    """The 1.0 corpus (the paper's "more than 160 test cases")."""
    global _SUITE_10
    if _SUITE_10 is None:
        _SUITE_10 = SuiteRegistry(_collect_10(), label="openacc-1.0")
    return _SUITE_10


def openacc20_suite() -> SuiteRegistry:
    """The forward-looking 2.0 additions (Section V-C)."""
    global _SUITE_20
    if _SUITE_20 is None:
        _SUITE_20 = SuiteRegistry(_collect_20(), label="openacc-2.0-additions")
    return _SUITE_20


def combination_suite() -> SuiteRegistry:
    """Feature-combination tests (Section IX future work — see
    :mod:`repro.suite.combinations`)."""
    global _SUITE_COMBO
    if _SUITE_COMBO is None:
        _SUITE_COMBO = SuiteRegistry(
            _collect_combinations(), label="feature-combinations"
        )
    return _SUITE_COMBO
