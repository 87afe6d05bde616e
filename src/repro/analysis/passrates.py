"""Pass-rate sweeps across vendor versions (Fig. 8a/8b/8c data)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.vendors import VendorVersion, vendor_versions
from repro.harness import (
    Cell,
    HarnessConfig,
    SuiteRunReport,
    ValidationRunner,
    run_campaign,
)
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


def version_cells(pairs: Sequence[Tuple[VendorVersion, str]],
                  config: HarnessConfig, tracer=None) -> List[Cell]:
    """One campaign cell per (vendor version, language), sharing one
    compile cache and tracer.

    Each cell narrows a copy of ``config`` to its language (the caller's
    config is shared across cells, and mutating it left every cell after
    the first pinned to the first language); its key prefix names the
    version and language.
    """
    cells: List[Cell] = []
    cache = None
    for vv, language in pairs:
        runner = ValidationRunner(vv.behavior(language),
                                  replace(config, languages=(language,)),
                                  cache=cache, tracer=tracer)
        cache, tracer = runner.cache, runner.tracer
        cells.append(Cell(runner,
                          prefix=f"{vv.vendor}-{vv.version}/{language}/"))
    return cells


def _point(vv: VendorVersion, language: str,
           report: SuiteRunReport) -> PassRatePoint:
    return PassRatePoint(
        vendor=vv.vendor,
        version=vv.version,
        language=language,
        pass_rate=report.pass_rate(language),
        tests=len(report.for_language(language)),
        failures=len(report.failures(language)),
        report=report,
    )


def run_vendor_version(
    vv: VendorVersion,
    language: str,
    suite: Optional[SuiteRegistry] = None,
    config: Optional[HarnessConfig] = None,
    tracer=None,
) -> PassRatePoint:
    """Run the suite against one vendor version's language frontend.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records the run as
    one ``run[...]`` span tree.
    """
    suite = suite or openacc10_suite()
    config = config or HarnessConfig(iterations=1, run_cross=False)
    cells = version_cells([(vv, language)], config, tracer)
    return _point(vv, language, run_campaign(suite, cells)[0])


def vendor_pass_rates(
    vendor: str,
    suite: Optional[SuiteRegistry] = None,
    config: Optional[HarnessConfig] = None,
    languages=("c", "fortran"),
) -> Dict[str, List[PassRatePoint]]:
    """All bars of one Fig. 8 subplot: {language: [point per version]}.

    The sweep is one campaign: every (version, language) cell's units run
    through one engine loop (one process pool under ``policy="process"``)
    and one live stream.  The cells share one compile cache, so each
    source is parsed once for the whole sweep; ``config.compile_cache=False``
    shares none.
    """
    suite = suite or openacc10_suite()
    config = config or HarnessConfig(iterations=1, run_cross=False)
    pairs = [(vv, lang) for vv in vendor_versions(vendor) for lang in languages]
    reports = run_campaign(suite, version_cells(pairs, config))
    out: Dict[str, List[PassRatePoint]] = {lang: [] for lang in languages}
    for (vv, lang), report in zip(pairs, reports):
        out[lang].append(_point(vv, lang, report))
    return out
