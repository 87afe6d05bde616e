"""The four campaign workloads and the verdict oracle they are checked by.

Every workload runs the fixed corpus (the 200 OpenACC 1.0 templates) with
the shipped defaults (``HarnessConfig()``, tree backend), exactly as the
``repro sweep`` / ``validate`` / ``titan`` commands would.  The seed sets
``HarnessConfig.rng_seed`` and, for Titan, the cluster and sample seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.passrates import vendor_pass_rates
from repro.compiler import CompilerBehavior
from repro.compiler.behavior import REFERENCE_BEHAVIOR
from repro.compiler.vendors import vendor_versions
from repro.harness import (
    FailureKind,
    HarnessConfig,
    SuiteRunReport,
    TitanCluster,
    TitanHarness,
    ValidationRunner,
    render_csv,
)
from repro.harness.titan import default_degradation, default_stacks
from repro.journal import (
    JournalWriter,
    canonicalize,
    unit_keys,
    validate_campaign_key,
)
from repro.suite import SuiteRegistry

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: one suite run of a pass: the behaviour under test and its report
Run = Tuple[CompilerBehavior, SuiteRunReport]


class Sample:
    """Every ``stride``-th template of each language of a suite, starting
    at the ``offset``-th, in suite order; ``select`` is all the harness
    asks of a suite.  The samples at offsets 0 to ``stride - 1`` partition
    the suite."""

    def __init__(self, suite: SuiteRegistry, stride: int, offset: int = 0):
        self.suite = suite
        languages = dict.fromkeys(t.language for t in suite)
        self.keep = {id(t) for lang in languages
                     for t in suite.for_language(lang)[offset::stride]}

    def select(self, languages=None, features=None, prefixes=None):
        return [t for t in self.suite.select(languages, features, prefixes)
                if id(t) in self.keep]


@dataclass
class Env:
    """What a pass runs against: the suite, the seed, a fresh scratch
    directory, and whether the pass must stay in this process."""

    suite: SuiteRegistry
    seed: int
    scratch: str
    serial: bool = False


@dataclass
class Pass:
    """Every fresh suite run of one pass, in order."""

    runs: List[Run]
    #: durable_campaign: the report rebuilt by replaying the journal
    resumed: Optional[SuiteRunReport] = None
    #: durable_campaign: units the reopened journal held for replay
    replayable: int = 0
    #: durable_campaign: seconds spent reopening and replaying the journal
    replay_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One campaign; why each was chosen is in BENCHMARK.json."""

    name: str
    run: Callable[[Env], Pass]
    #: (behaviour, config) pairs whose verdicts cover every run of any seed
    golden_runs: Callable[[], List[Tuple[CompilerBehavior, HarnessConfig]]]
    #: the corpus is run in this many slices (:class:`Sample`), each short
    #: enough (about half a second) to be timed against the reference loop
    slices: int


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_SWEEP = HarnessConfig(iterations=1, run_cross=False)


def _fig8_pass(env: Env) -> Pass:
    points = vendor_pass_rates("caps", env.suite,
                               replace(_SWEEP, rng_seed=env.seed))
    runs = []
    for i, vv in enumerate(vendor_versions("caps")):
        for language in ("c", "fortran"):
            runs.append((vv.behavior(language), points[language][i].report))
    return Pass(runs)


def _fig8_golden():
    return [(vv.behavior(lang), replace(_SWEEP, languages=(lang,)))
            for vv in vendor_versions("caps") for lang in ("c", "fortran")]


_CERTAINTY = HarnessConfig(iterations=5)


def _certainty_pass(env: Env) -> Pass:
    runner = ValidationRunner(None, replace(_CERTAINTY, rng_seed=env.seed))
    return Pass([(runner.behavior, runner.run_suite(env.suite))])


def _certainty_golden():
    return [(REFERENCE_BEHAVIOR, _CERTAINTY)]


_TITAN = HarnessConfig(iterations=1, run_cross=False, languages=("c",))


class _RecordingTitan(TitanHarness):
    """Keeps every node/stack check, triage re-checks included (``sweep``
    returns only the sampled checks)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs: List[Run] = []

    def check_node(self, node, stack, config=None, unit=None):
        check = super().check_node(node, stack, config=config, unit=unit)
        self.runs.append((node.stacks[stack], check.report))
        return check


def _titan_pass(env: Env) -> Pass:
    cluster = TitanCluster(num_nodes=6, degraded_fraction=0.25, seed=env.seed)
    harness = _RecordingTitan(cluster, env.suite,
                              config=replace(_TITAN, rng_seed=env.seed))
    harness.sweep(sample_size=6, seed=env.seed)
    return Pass(harness.runs)


def _titan_golden():
    # a node's stacks are the healthy pair or one of the rotating fault
    # models, so these ten behaviours cover every cluster seed
    out = []
    for healthy in default_stacks().values():
        out.append((healthy, _TITAN))
        out.extend((default_degradation(healthy, k), _TITAN) for k in range(4))
    return out


_DURABLE = HarnessConfig(iterations=3, lint=True)


def _durable_pass(env: Env) -> Pass:
    if env.serial:
        config = replace(_DURABLE, policy="serial", workers=1)
    else:
        workers = min(len(os.sched_getaffinity(0)), 4)
        config = replace(_DURABLE, policy="process", workers=workers)
    config = replace(config, rng_seed=env.seed,
                     live_stream=os.path.join(env.scratch, "live.ndjson"))
    path = os.path.join(env.scratch, "campaign.journal")
    campaign = validate_campaign_key("openacc10", REFERENCE_BEHAVIOR, config)
    journal = JournalWriter.create(path, campaign)
    try:
        report = ValidationRunner(None, config).run_suite(env.suite,
                                                          journal=journal)
    finally:
        journal.close()
    start = perf_counter()
    journal = JournalWriter.resume(path, campaign)
    replayable = len(journal.records)
    try:
        resumed = ValidationRunner(None, config).run_suite(env.suite,
                                                           journal=journal)
    finally:
        journal.close()
    return Pass([(REFERENCE_BEHAVIOR, report)], resumed=resumed,
                replayable=replayable, replay_s=perf_counter() - start)


def _durable_golden():
    return [(REFERENCE_BEHAVIOR, _DURABLE)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig8_sweep", _fig8_pass, _fig8_golden, slices=10),
    Workload("certainty", _certainty_pass, _certainty_golden, slices=10),
    Workload("titan_sweep", _titan_pass, _titan_golden, slices=10),
    Workload("durable_campaign", _durable_pass, _durable_golden, slices=4),
)}


# ---------------------------------------------------------------------------
# verdict oracle
# ---------------------------------------------------------------------------


def behaviour_key(behavior: CompilerBehavior) -> str:
    text = json.dumps(canonicalize(behavior), sort_keys=True)
    return f"{behavior.label}#{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def golden_key(behavior: CompilerBehavior, config: HarnessConfig) -> str:
    """(behaviour, M, run_cross): the verdicts do not depend on the seed."""
    return (f"{behaviour_key(behavior)}|M={config.iterations}"
            f"|cross={int(config.run_cross)}")


def verdict(result) -> list:
    kind = result.failure_kind
    return [result.passed, kind.value if kind is not None else None,
            result.certainty, result.cross_conclusive]


@dataclass
class Check:
    """Units checked against the golden verdicts and how many differed."""

    units: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.units += other.units
        self.failed += other.failed
        self.notes.extend(other.notes)


def check_runs(golden: Dict[str, Dict[str, list]], runs: List[Run],
               templates: Sequence) -> Check:
    """A unit fails when it is a HARNESS_ERROR, its verdict differs from
    the golden one, or the golden entry is missing; a unit of
    ``templates`` (the corpus the runs were given) in a report's languages
    that the report lacks fails too."""
    check = Check()
    for behavior, report in runs:
        key = golden_key(behavior, report.config)
        expected = golden.get(key, {})
        keys = unit_keys([r.template for r in report.results])
        bad = sum(1 for unit, r in zip(keys, report.results)
                  if r.failure_kind is FailureKind.HARNESS_ERROR
                  or expected.get(unit) != verdict(r))
        languages, present = set(report.config.languages), set(keys)
        missing = sum(1 for unit in unit_keys(
                          [t for t in templates if t.language in languages])
                      if unit not in present)
        check.units += len(keys) + missing
        check.failed += bad + missing
        if bad or missing:
            check.notes.append(f"{key}: {bad} verdict(s) differ, "
                               f"{missing} missing")
    return check


class Verifier:
    """Checks every pass of a run against the golden verdicts, the first
    ``render_csv`` output of the same corpus slice, and (durable_campaign)
    a complete, byte-identical journal replay."""

    def __init__(self, golden: Dict[str, Dict[str, list]]):
        self.golden = golden
        self.total = Check()
        #: slice -> render_csv of every run of its first pass
        self.csv: Dict[int, List[str]] = {}

    def add(self, label: str, result: Pass, templates: Sequence,
            csv_key: Optional[int] = None) -> Check:
        """``templates`` is the corpus the pass was given.  Passes with the
        same ``csv_key`` ran the same corpus slice and must render the same
        ``render_csv``; None (the warm-up) compares with nothing."""
        check = check_runs(self.golden, result.runs, templates)
        if csv_key is not None:
            csv = [render_csv(report) for _, report in result.runs]
            differ = _rows_differing(self.csv.setdefault(csv_key, csv), csv)
            if differ:
                check.failed += differ
                check.notes.append(f"{label}: {differ} render_csv row(s) "
                                   "differ from the slice's first pass")
        if result.resumed is not None:
            fresh = result.runs[0][1]
            units = len(fresh.results)
            lost = max(units - result.replayable, _rows_differing(
                [render_csv(fresh)], [render_csv(result.resumed)]))
            check.units += units
            check.failed += lost
            if lost:
                check.notes.append(f"{label}: resume replayed "
                                   f"{result.replayable}/{units} units, "
                                   f"{lost} not byte-identical")
        self.total.add(check)
        return check


def _rows_differing(a: List[str], b: List[str]) -> int:
    rows_a = "".join(a).splitlines()
    rows_b = "".join(b).splitlines()
    return (sum(1 for x, y in zip(rows_a, rows_b) if x != y)
            + abs(len(rows_a) - len(rows_b)))


def load_golden() -> Dict[str, Dict[str, list]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build_golden(suite: SuiteRegistry) -> Dict[str, Dict[str, list]]:
    """Today's verdicts for every (behaviour, config) any workload runs."""
    golden: Dict[str, Dict[str, list]] = {}
    for workload in WORKLOADS.values():
        for behavior, config in workload.golden_runs():
            report = ValidationRunner(behavior, config).run_suite(suite)
            keys = unit_keys([r.template for r in report.results])
            golden.setdefault(golden_key(behavior, config), {}).update(
                (key, verdict(r)) for key, r in zip(keys, report.results))
    return {k: dict(sorted(v.items())) for k, v in sorted(golden.items())}
