"""Pass-rate sweeps across vendor versions (Fig. 8a/8b/8c data)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.compiler.cache import CompileCache
from repro.compiler.vendors import VendorVersion, vendor_versions
from repro.harness import HarnessConfig, SuiteRunReport, ValidationRunner
from repro.suite import SuiteRegistry, openacc10_suite


@dataclass
class PassRatePoint:
    """One bar of one Fig. 8 plot."""

    vendor: str
    version: str
    language: str
    pass_rate: float
    tests: int
    failures: int
    report: SuiteRunReport


def run_vendor_version(
    vv: VendorVersion,
    language: str,
    suite: Optional[SuiteRegistry] = None,
    config: Optional[HarnessConfig] = None,
    tracer=None,
    cache: Optional[CompileCache] = None,
) -> PassRatePoint:
    """Run the suite against one vendor version's language frontend.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records the run as
    one ``run[...]`` span tree per call — passing the same tracer across
    calls accumulates the whole sweep in a single trace.  ``cache`` is
    handed to the runner; passing one cache across calls parses each
    source once for the whole sweep.
    """
    suite = suite or openacc10_suite()
    config = config or HarnessConfig(iterations=1, run_cross=False)
    # narrow to this language on a copy: the caller's config is shared
    # across every (version, language) cell of a sweep, and mutating it
    # left all cells after the first pinned to the first language
    config = replace(config, languages=(language,))
    runner = ValidationRunner(vv.behavior(language), config, cache=cache,
                              tracer=tracer)
    report = runner.run_suite(suite)
    pool = report.for_language(language)
    return PassRatePoint(
        vendor=vv.vendor,
        version=vv.version,
        language=language,
        pass_rate=report.pass_rate(language),
        tests=len(pool),
        failures=len(report.failures(language)),
        report=report,
    )


def vendor_pass_rates(
    vendor: str,
    suite: Optional[SuiteRegistry] = None,
    config: Optional[HarnessConfig] = None,
    languages=("c", "fortran"),
) -> Dict[str, List[PassRatePoint]]:
    """All bars of one Fig. 8 subplot: {language: [point per version]}.

    Every run shares one compile cache, so each source is parsed once
    for the whole sweep; ``config.compile_cache=False`` shares none.
    """
    config = config or HarnessConfig(iterations=1, run_cross=False)
    cache = CompileCache() if config.compile_cache else None
    out: Dict[str, List[PassRatePoint]] = {lang: [] for lang in languages}
    for vv in vendor_versions(vendor):
        for lang in languages:
            out[lang].append(
                run_vendor_version(vv, lang, suite, config, cache=cache)
            )
    return out
