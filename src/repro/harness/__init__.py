"""The validation harness (paper Section III, Fig. 3).

``runner`` drives the functional -> cross pipeline with repeated iterations
and statistical certainty; ``stats`` implements the paper's p / pa / pc
model; ``report`` renders results as plain text, HTML or CSV with bug
reports carrying code snippets; ``config`` holds compiler configuration and
feature selection; ``titan`` simulates the production deployment of
Section VII (random-node validation across software stacks).
"""

from repro.harness.config import EXECUTION_POLICIES, HarnessConfig
from repro.harness.engine import (
    CampaignInterrupted,
    CancelToken,
    MAX_POOL_DEATHS,
    RunMetrics,
    harness_error_result,
    run_unit_resilient,
)
from repro.harness.stats import (
    accidental_pass_probability,
    certainty,
    cross_fail_probability,
)
from repro.harness.runner import (
    Cell,
    EmptySelectionError,
    FailureKind,
    IterationOutcome,
    PhaseResult,
    SuiteRunReport,
    TemplateTimeout,
    TestResult,
    ValidationRunner,
    run_campaign,
)
from repro.harness.report import (
    render_csv,
    render_html,
    render_metrics_csv,
    render_metrics_text,
    render_text,
    render_bug_report,
)
from repro.harness.titan import (
    Node,
    QuarantineRecord,
    StackCheck,
    TitanCluster,
    TitanHarness,
)

__all__ = [
    "EXECUTION_POLICIES", "HarnessConfig",
    "CampaignInterrupted", "CancelToken", "MAX_POOL_DEATHS", "RunMetrics",
    "harness_error_result", "run_unit_resilient",
    "accidental_pass_probability", "certainty", "cross_fail_probability",
    "Cell", "EmptySelectionError", "FailureKind", "IterationOutcome", "PhaseResult",
    "SuiteRunReport", "TemplateTimeout", "TestResult", "ValidationRunner",
    "run_campaign",
    "render_csv", "render_html", "render_metrics_csv", "render_metrics_text",
    "render_text", "render_bug_report",
    "Node", "QuarantineRecord", "TitanCluster", "TitanHarness", "StackCheck",
]
