"""Static analysis over the testsuite IR: semantic checking + corpus lint.

Five passes, one diagnostic vocabulary (see DESIGN.md "Static checking"):

* :mod:`repro.staticcheck.legality` — the OpenACC 1.0 clause x directive
  legality matrix, duplicate/conflict rules, and region-scoping checks
  (``ACC1xx``);
* :mod:`repro.staticcheck.dependence` — conservative loop-carried
  dependence and shared-scalar race detection (``ACC2xx``);
* :mod:`repro.staticcheck.corpus` — template-level corpus lint: parse
  cleanliness, functional/cross pair coherence (``ACC3xx``);
* :mod:`repro.staticcheck.dataenv` — whole-program data-environment flow
  on a host/device memory-state lattice (``ACC4xx``);
* :mod:`repro.staticcheck.asyncgraph` — async/wait happens-before
  analysis over queues (``ACC5xx``).

Reporting infrastructure: :mod:`repro.staticcheck.sarif` (SARIF 2.1.0
export) and :mod:`repro.staticcheck.suppress` (the checked-in baseline,
the one filter between the passes' findings and the report).  Every run
analyses every template afresh; no lint result is cached.

Entry points: :func:`lint_source` / :func:`lint_template` for one unit,
:func:`lint_suite` for a registry (what ``repro lint`` and the CI gate
run).
"""

from repro.staticcheck.asyncgraph import check_program_async
from repro.staticcheck.corpus import (
    SHIPPED_BASELINE,
    CorpusLintReport,
    TemplateLint,
    lint_program,
    lint_source,
    lint_suite,
    lint_template,
    lint_template_raw,
    merge_reports,
    render_lint_json,
    render_lint_text,
)
from repro.staticcheck.dataenv import (
    check_program_dataenv,
    declared_arrays,
    flow_events,
    scalar_constants,
)
from repro.staticcheck.dependence import check_program_dependence
from repro.staticcheck.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    Severity,
    errors_only,
    sort_diagnostics,
    summarize,
)
from repro.staticcheck.legality import (
    ALLOWED_CLAUSES,
    LEGAL_CLAUSES_10,
    SINGLE_VALUED_CLAUSES,
    V20_CLAUSES,
    V20_DIRECTIVES,
    check_directive,
    check_program_legality,
    legal_clauses,
)
from repro.staticcheck.regions import Region, build_region_tree, walk_regions
from repro.staticcheck.sarif import (
    render_lint_sarif,
    sarif_report,
    validate_sarif,
)
from repro.staticcheck.suppress import (
    Baseline,
    baseline_from_findings,
    load_baseline,
    loads_baseline,
    shipped_baseline,
)

__all__ = [
    "CODE_CATALOG",
    "Diagnostic",
    "Severity",
    "errors_only",
    "sort_diagnostics",
    "summarize",
    "ALLOWED_CLAUSES",
    "LEGAL_CLAUSES_10",
    "SINGLE_VALUED_CLAUSES",
    "V20_CLAUSES",
    "V20_DIRECTIVES",
    "check_directive",
    "check_program_legality",
    "legal_clauses",
    "check_program_dependence",
    "check_program_dataenv",
    "check_program_async",
    "declared_arrays",
    "flow_events",
    "scalar_constants",
    "Region",
    "build_region_tree",
    "walk_regions",
    "CorpusLintReport",
    "TemplateLint",
    "SHIPPED_BASELINE",
    "lint_program",
    "lint_source",
    "lint_suite",
    "lint_template",
    "lint_template_raw",
    "merge_reports",
    "render_lint_json",
    "render_lint_text",
    "render_lint_sarif",
    "sarif_report",
    "validate_sarif",
    "Baseline",
    "baseline_from_findings",
    "load_baseline",
    "loads_baseline",
    "shipped_baseline",
]
