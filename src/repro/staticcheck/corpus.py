"""Pass 3: corpus lint — template-level checks over a suite registry.

For every template: the generated *functional* variant must parse and be
clean under the legality (ACC1xx) and dependence (ACC2xx) passes; the
functional/cross pair may differ only at the tested feature (``ACC302``);
and the declared ``crossexpect`` must be coherent with the substitution
(``ACC303``).  The CLI's ``repro lint`` and the CI corpus gate are thin
wrappers over :func:`lint_suite`.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.frontend.dispatch import parse_source
from repro.frontend.errors import FrontendError
from repro.ir.astnodes import SourceLocation
from repro.spec.versions import ACC_10, SpecVersion
from repro.staticcheck.asyncgraph import check_program_async
from repro.staticcheck.dataenv import check_program_dataenv
from repro.staticcheck.dependence import check_program_dependence
from repro.staticcheck.diagnostics import (
    Diagnostic,
    errors_only,
    sort_diagnostics,
)
from repro.staticcheck.legality import check_program_legality
from repro.staticcheck.suppress import Baseline, shipped_baseline
from repro.templates import (
    TemplateError,
    TestTemplate,
    generate_cross,
    generate_functional,
)

#: sentinel: "apply the checked-in corpus baseline"
SHIPPED_BASELINE = "shipped"


def _resolve_baseline(baseline) -> Optional[Baseline]:
    if baseline is SHIPPED_BASELINE or baseline == SHIPPED_BASELINE:
        return shipped_baseline()
    return baseline

#: line prefixes that mark a directive line in generated source
_DIRECTIVE_PREFIXES = ("#pragma acc", "!$acc")


def _template_version(template: TestTemplate) -> SpecVersion:
    try:
        return SpecVersion.parse(template.version)
    except (ValueError, AttributeError):
        return ACC_10


def lint_program(program, version: SpecVersion = ACC_10) -> List[Diagnostic]:
    """Legality, dependence, data-environment and async passes over one
    parsed program."""
    diags = check_program_legality(program, version)
    diags.extend(check_program_dependence(program))
    diags.extend(check_program_dataenv(program))
    diags.extend(check_program_async(program))
    return sort_diagnostics(diags)


def lint_source(
    source: str, language: str = "c", name: str = "<lint>",
    version: SpecVersion = ACC_10,
) -> List[Diagnostic]:
    """Parse and lint one standalone program text."""
    try:
        program = parse_source(source, language, name)
    except FrontendError as err:
        return [Diagnostic(
            "ACC301",
            f"program does not parse: {err.message}",
            loc=err.loc,
        )]
    return lint_program(program, version)


def lint_template_raw(template: TestTemplate,
                      parse=parse_source) -> List[Diagnostic]:
    """All passes for one template, before the baseline allowance
    (callers wanting the net view use :func:`lint_template`).

    ``parse`` has :func:`~repro.frontend.parse_source`'s signature; the
    harness passes its compile cache's parse tier, which must return an
    unmodified program (the passes only read it).
    """
    diags: List[Diagnostic] = []
    try:
        functional = generate_functional(template)
    except TemplateError as err:
        return [Diagnostic("ACC301", f"functional variant fails to "
                                     f"generate: {err}")]
    try:
        program = parse(
            functional.source, template.language, template.name
        )
    except FrontendError as err:
        diags.append(Diagnostic(
            "ACC301",
            f"functional variant does not parse: {err.message}",
            loc=err.loc,
        ))
    else:
        diags.extend(lint_program(program, _template_version(template)))

    if template.has_cross:
        try:
            cross = generate_cross(template)
        except TemplateError as err:
            diags.append(Diagnostic(
                "ACC301", f"cross variant fails to generate: {err}"
            ))
        else:
            diags.extend(_check_pair(template, functional.source,
                                     cross.source))
    return sort_diagnostics(diags)


def lint_template(
    template: TestTemplate, baseline=SHIPPED_BASELINE, parse=parse_source
) -> List[Diagnostic]:
    """All passes for one template (the harness lint gate's view).

    Findings covered by the baseline allowance (the shipped corpus
    baseline by default; pass ``baseline=None`` for the raw view) are
    dropped.  ``parse`` is as for :func:`lint_template_raw`.
    """
    raw = lint_template_raw(template, parse=parse)
    resolved = _resolve_baseline(baseline)
    if resolved is None:
        return raw
    kept, _ = resolved.apply(template.name, raw)
    return kept


# ---------------------------------------------------------------------------
# functional/cross pair coherence
# ---------------------------------------------------------------------------


def _feature_tokens(template: TestTemplate) -> List[str]:
    """Identifier fragments that tie a changed line to the tested feature:
    the feature's dotted components and its root directive words."""
    tokens: List[str] = []
    for part in template.feature.split("."):
        tokens.extend(part.split())
    # clause spelling aliases: present_or_copy is written pcopy in source
    aliased = {
        "present_or_copy": "pcopy", "present_or_copyin": "pcopyin",
        "present_or_copyout": "pcopyout", "present_or_create": "pcreate",
    }
    tokens.extend(aliased[t] for t in list(tokens) if t in aliased)
    return [t for t in tokens if t]


def _is_directive_line(line: str) -> bool:
    stripped = line.strip().lower()
    return any(stripped.startswith(p) for p in _DIRECTIVE_PREFIXES)


def _changed_lines(functional: str, cross: str) -> List[str]:
    """Lines present in exactly one of the two generated programs."""
    matcher = difflib.SequenceMatcher(
        a=functional.splitlines(), b=cross.splitlines(), autojunk=False
    )
    changed: List[str] = []
    for tag, a0, a1, b0, b1 in matcher.get_opcodes():
        if tag == "equal":
            continue
        changed.extend(matcher.a[a0:a1])
        changed.extend(matcher.b[b0:b1])
    return changed


def _directive_block_lines(template: TestTemplate) -> frozenset:
    """Stripped lines of marker blocks that contain a directive line.

    When a substitution block is centred on the tested directive, the whole
    block is the feature's region — a cross may e.g. replace an
    ``independent`` loop with a genuinely dependent one, rewriting the loop
    body alongside the asserting directive.  Blocks with *no* directive
    (runtime-routine substitutions) get no such licence: their changed
    lines must name the feature explicitly.
    """
    from repro.templates.markers import CHECK_RE, CROSS_RE

    allowed: set = set()
    for regex in (CHECK_RE, CROSS_RE):
        for match in regex.finditer(template.code):
            lines = [l.strip() for l in match.group(1).splitlines()]
            if any(_is_directive_line(l) for l in lines):
                allowed.update(l for l in lines if l)
    return frozenset(allowed)


def _check_pair(
    template: TestTemplate, functional: str, cross: str
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    if functional == cross:
        if template.crossexpect == "different":
            diags.append(Diagnostic(
                "ACC303",
                "crossexpect is 'different' but the cross variant is "
                "textually identical to the functional variant",
                hint="the substitution has no effect; fix the markers or "
                     "declare crossexpect 'same'",
            ))
        return diags
    tokens = _feature_tokens(template)
    block_lines = _directive_block_lines(template)
    for line in _changed_lines(functional, cross):
        text = line.strip()
        if not text:
            continue
        if _is_directive_line(text):
            continue
        if text in block_lines:
            # part of a directive-bearing substitution block
            continue
        lowered = text.lower()
        if any(token.lower() in lowered for token in tokens):
            # non-directive change naming the tested feature (runtime
            # routine calls, environment probes)
            continue
        diags.append(Diagnostic(
            "ACC302",
            "functional/cross pair diverges outside the tested feature's "
            f"directive: {text[:60]!r}",
            hint="cross substitution may only change the tested "
                 "directive/clause or calls to the tested routine",
        ))
    return diags


# ---------------------------------------------------------------------------
# suite-level lint
# ---------------------------------------------------------------------------


@dataclass
class TemplateLint:
    """Lint outcome for one template."""

    name: str
    feature: str
    language: str
    suite: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: known findings dropped by the baseline allowance
    baselined: int = 0

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    @property
    def error_count(self) -> int:
        return len(errors_only(self.diagnostics))


@dataclass
class CorpusLintReport:
    """Aggregated lint over one or more suites."""

    suites: List[str] = field(default_factory=list)
    entries: List[TemplateLint] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return len(self.entries)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [d for e in self.entries for d in e.diagnostics]

    @property
    def error_count(self) -> int:
        return sum(e.error_count for e in self.entries)

    @property
    def clean(self) -> bool:
        return self.error_count == 0

    @property
    def baselined(self) -> int:
        return sum(e.baselined for e in self.entries)

    def codes(self) -> Dict[str, int]:
        """Histogram of diagnostic codes, sorted by code."""
        out: Dict[str, int] = {}
        for d in self.diagnostics:
            out[d.code] = out.get(d.code, 0) + 1
        return dict(sorted(out.items()))


def lint_suite(
    suite,
    templates: Optional[Sequence[TestTemplate]] = None,
    baseline=SHIPPED_BASELINE,
) -> CorpusLintReport:
    """Lint every (selected) template of one registry.

    ``baseline`` is a :class:`~repro.staticcheck.suppress.Baseline`,
    ``None`` for the raw view, or :data:`SHIPPED_BASELINE` (the default)
    for the checked-in corpus allowance.
    """
    report = CorpusLintReport(suites=[suite.label])
    pool = list(templates) if templates is not None else list(suite)
    resolved = _resolve_baseline(baseline)
    for template in pool:
        raw = lint_template_raw(template)
        if resolved is not None:
            diags, baselined = resolved.apply(template.name, raw)
        else:
            diags, baselined = list(raw), 0
        report.entries.append(TemplateLint(
            name=template.name,
            feature=template.feature,
            language=template.language,
            suite=suite.label,
            diagnostics=diags,
            baselined=baselined,
        ))
    return report


def merge_reports(reports: Sequence[CorpusLintReport]) -> CorpusLintReport:
    merged = CorpusLintReport()
    for report in reports:
        merged.suites.extend(report.suites)
        merged.entries.extend(report.entries)
    return merged


# ---------------------------------------------------------------------------
# rendering (the CLI's text / JSON formats)
# ---------------------------------------------------------------------------


def render_lint_text(report: CorpusLintReport) -> str:
    lines: List[str] = []
    lines.append(
        f"lint: {report.checked} template(s) checked across "
        f"{', '.join(report.suites)}"
    )
    for entry in report.entries:
        if entry.clean:
            continue
        lines.append(f"{entry.name} ({entry.feature}, {entry.language}):")
        for d in sort_diagnostics(entry.diagnostics):
            lines.append(f"  {d.render()}")
    codes = report.codes()
    if report.baselined:
        lines.append(f"{report.baselined} known finding(s) covered by "
                     "the baseline")
    if codes:
        lines.append("diagnostic codes: " + ", ".join(
            f"{code}={count}" for code, count in codes.items()
        ))
        lines.append(f"{len(report.diagnostics)} diagnostic(s), "
                     f"{report.error_count} error(s)")
    else:
        lines.append("corpus is lint-clean")
    return "\n".join(lines) + "\n"


def render_lint_json(report: CorpusLintReport) -> str:
    def loc_fields(loc: SourceLocation) -> Dict[str, object]:
        return {"file": loc.filename, "line": loc.line, "column": loc.column}

    payload = {
        "format": "repro.lint/v1",
        "suites": report.suites,
        "templates_checked": report.checked,
        "error_count": report.error_count,
        "clean": report.clean,
        "baselined": report.baselined,
        "codes": report.codes(),
        "diagnostics": [
            {
                "template": entry.name,
                "feature": entry.feature,
                "language": entry.language,
                "suite": entry.suite,
                "code": d.code,
                "severity": d.severity.value,
                "message": d.message,
                "hint": d.hint,
                **loc_fields(d.loc),
            }
            for entry in report.entries
            for d in sort_diagnostics(entry.diagnostics)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
