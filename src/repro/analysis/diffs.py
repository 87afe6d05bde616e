"""Differential comparison of compiler versions.

The paper's vendor feedback loop (Section I): "We identify and report bugs
found in their OpenACC implementations.  The vendors fix them and inform us
when a newer version of the compiler is released.  We then verify if the
issues were resolved."  This module automates the verification step: run
the suite against two versions and classify every feature as fixed,
regressed, still-failing or stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.passrates import version_cells
from repro.compiler.vendors import vendor_version
from repro.harness import HarnessConfig, run_campaign
from repro.suite import SuiteRegistry, openacc10_suite


@dataclass
class VersionDiff:
    """Feature-level outcome changes between two versions."""

    vendor: str
    old_version: str
    new_version: str
    language: str
    fixed: List[str] = field(default_factory=list)
    regressed: List[str] = field(default_factory=list)
    still_failing: List[str] = field(default_factory=list)
    still_passing: List[str] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return len(self.fixed) > len(self.regressed)

    def summary(self) -> str:
        return (
            f"{self.vendor} {self.old_version} -> {self.new_version} "
            f"[{self.language}]: "
            f"{len(self.fixed)} fixed, {len(self.regressed)} regressed, "
            f"{len(self.still_failing)} still failing"
        )


def compare_versions(
    vendor: str,
    old_version: str,
    new_version: str,
    language: str,
    suite: Optional[SuiteRegistry] = None,
    config: Optional[HarnessConfig] = None,
) -> VersionDiff:
    """Run the suite against both versions and diff the outcomes.

    Both versions run as one campaign: their cells share one compile
    cache, so each source parses once, and a run the new version would
    repeat exactly is served by the execute memo.
    """
    suite = suite or openacc10_suite()
    if config is None:
        config = HarnessConfig(iterations=1, run_cross=False)
    versions = (old_version, new_version)
    cells = version_cells(
        [(vendor_version(vendor, v), language) for v in versions], config)
    outcomes = {
        version: {r.feature: r.passed for r in report.results}
        for version, report in zip(versions, run_campaign(suite, cells))
    }

    diff = VersionDiff(
        vendor=vendor, old_version=old_version, new_version=new_version,
        language=language,
    )
    for feature, old_pass in sorted(outcomes[old_version].items()):
        new_pass = outcomes[new_version].get(feature, old_pass)
        if old_pass and new_pass:
            diff.still_passing.append(feature)
        elif old_pass and not new_pass:
            diff.regressed.append(feature)
        elif not old_pass and new_pass:
            diff.fixed.append(feature)
        else:
            diff.still_failing.append(feature)
    return diff
