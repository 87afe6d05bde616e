"""Production-use simulation (paper Section VII, Fig. 13).

"The OpenACC validation suite is being used to validate the functionality
of the programming environment of Titan ... to track functionality
improvements or degradation over time.  The suite runs on random nodes to
check functionality requirements of the nodes.  It is also used to test
different software stacks, for example, to test the translation of OpenACC
to CUDA or OpenCL."

The cluster model: nodes carry one compiler behaviour per software stack
(OpenACC->CUDA and OpenACC->OpenCL); a fraction of nodes are *degraded*
(their stack behaves like a buggy compiler — the observable of a flaky GPU
or broken driver at the validation-suite level).  The harness samples
random nodes, validates each stack with a (configurable subset of the)
suite, and tracks per-epoch aggregate pass rates across software-stack
upgrades.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler import CompileCache, CompilerBehavior
from repro.harness.config import HarnessConfig
from repro.harness.engine import CancelToken
from repro.harness.runner import (
    Cell,
    FailureKind,
    SuiteRunReport,
    ValidationRunner,
    run_campaign,
    select_templates,
)
from repro.obs import NULL_TRACER, EventTracer
from repro.spec.devices import ACC_DEVICE_NVIDIA, ACC_DEVICE_OPENCL
from repro.suite.registry import SuiteRegistry

#: the two software stacks of Fig. 13
STACK_CUDA = "openacc-cuda"
STACK_OPENCL = "openacc-opencl"


def default_stacks() -> Dict[str, CompilerBehavior]:
    """A healthy node's stacks: both conforming, different back-end types."""
    return {
        STACK_CUDA: CompilerBehavior(
            name="titan-cc", version="cuda",
            concrete_device_type=ACC_DEVICE_NVIDIA,
            mapping_description="gang->block, worker->warp, vector->threads",
        ),
        STACK_OPENCL: CompilerBehavior(
            name="titan-cc", version="opencl",
            concrete_device_type=ACC_DEVICE_OPENCL,
            mapping_description="gang->workgroup, worker->subgroup, vector->workitems",
        ),
    }


def default_degradation(behavior: CompilerBehavior, node_id: int) -> CompilerBehavior:
    """Deterministic per-node fault models for degraded nodes.

    Rotates through the silent-failure classes a flaky node surfaces at the
    validation-suite level.
    """
    faults = [
        dict(ignore_update=True),
        dict(async_wedged_by_compute_data_clauses=True),
        dict(copyout_not_copied=True),
        dict(broken_reductions=frozenset({"+", "*"})),
    ]
    return behavior.with_(**faults[node_id % len(faults)])


@dataclass
class Node:
    node_id: int
    stacks: Dict[str, CompilerBehavior]
    healthy: bool = True


@dataclass
class StackCheck:
    """Result of validating one stack on one node."""

    node_id: int
    stack: str
    healthy: bool
    report: SuiteRunReport

    @property
    def pass_rate(self) -> float:
        return self.report.pass_rate()

    @property
    def flagged(self) -> bool:
        """Would the production harness flag this node/stack?"""
        return bool(self.report.failures())

    @property
    def harness_errors(self) -> int:
        """Failures charged to the harness itself (infrastructure), not the
        stack under test — the triage axis the quarantine logic cares
        about when fault injection or real flakiness is in play."""
        return sum(
            1 for r in self.report.results
            if r.failure_kind is FailureKind.HARNESS_ERROR
        )


class TitanCluster:
    """A set of nodes, some degraded, each carrying both software stacks."""

    def __init__(
        self,
        num_nodes: int = 16,
        degraded_fraction: float = 0.25,
        seed: int = 2012,
        stacks_factory: Callable[[], Dict[str, CompilerBehavior]] = default_stacks,
        degrade: Callable[[CompilerBehavior, int], CompilerBehavior] = default_degradation,
    ):
        rng = random.Random(seed)
        self.nodes: List[Node] = []
        self._stacks_factory = stacks_factory
        # ceil, not round: banker's rounding made e.g. 2 nodes at fraction
        # 0.25 produce *zero* degraded nodes — any nonzero fraction must
        # degrade at least one node.  (round(x, 9) first kills float fuzz
        # like 30 * 0.1 == 3.0000000000000004 before the ceil.)
        n_degraded = min(
            num_nodes, math.ceil(round(num_nodes * degraded_fraction, 9))
        )
        degraded_ids = set(rng.sample(range(num_nodes), n_degraded))
        for node_id in range(num_nodes):
            stacks = stacks_factory()
            healthy = node_id not in degraded_ids
            if not healthy:
                stacks = {
                    name: degrade(behavior, node_id)
                    for name, behavior in stacks.items()
                }
            self.nodes.append(Node(node_id=node_id, stacks=stacks, healthy=healthy))

    def upgrade_stack(self, stack: str, new_behavior: CompilerBehavior) -> None:
        """Roll a new compiler version onto every *healthy* node's stack
        (degraded nodes keep their faults on top of the new version)."""
        for node in self.nodes:
            if node.healthy:
                node.stacks[stack] = new_behavior
            else:
                node.stacks[stack] = default_degradation(new_behavior, node.node_id)

    def heal(self, node_id: int) -> None:
        """Repair a degraded node (hardware swap / driver fix): it comes
        back healthy with factory-default stacks, so a subsequent recovery
        probe can release it from quarantine."""
        node = self.nodes[node_id]
        node.healthy = True
        node.stacks = self._stacks_factory()


@dataclass
class QuarantineRecord:
    """One quarantined node: what flagged it and how often it was probed."""

    node_id: int
    stack: str
    detail: str
    #: recovery probes run so far (timeline epochs)
    probes: int = 0


class TitanHarness:
    """Random-node validation sweeps and longitudinal tracking.

    Triage (the resilience layer's production face): a flagged node/stack
    is re-checked ``recheck`` times to separate *transient* faults (flaky
    interconnect, a worker death the retry budget did not cover) from
    *persistent* degradation.  Persistently flagged nodes land on the
    quarantine list, are excluded from subsequent sweep samples, and get a
    recovery probe at each :meth:`timeline` epoch so repaired nodes rejoin
    the pool.  When *every* sampled check of a stack is flagged, the stack
    itself (a cluster-wide compiler rollout) is the suspect — no node is
    quarantined for it.
    """

    def __init__(
        self,
        cluster: TitanCluster,
        suite: SuiteRegistry,
        config: Optional[HarnessConfig] = None,
        tracer=None,
        recheck: int = 1,
        journal=None,
        cancel=None,
    ):
        self.cluster = cluster
        self.suite = suite
        # production sweeps favour quick turnaround: 1 iteration, no cross
        self.config = config or HarnessConfig(iterations=1, run_cross=False)
        #: a repro.obs.Tracer shared by every node check of this harness
        #: (a span-free EventTracer when only live telemetry asks for one)
        if tracer is None:
            tracer = EventTracer() if self.config.live_enabled else NULL_TRACER
        self.tracer = tracer
        #: a repro.obs.live.LiveTelemetry pipeline subscribed to the
        #: tracer and handed to every check's campaign, which publishes
        #: one unit per template; the harness announces the units (a
        #: sweep's whole sample, then each re-check and probe) before they
        #: run, and node facts travel on the titan.* events
        self.live = None
        if self.config.live_enabled:
            from repro.obs.live import LiveTelemetry

            self.live = LiveTelemetry.from_config(self.config)
            self.live.begin(total_units=0, command="titan",
                            nodes=len(cluster.nodes))
            self.live.attach(self.tracer)
        #: times a flagged node/stack is re-checked before quarantining
        self.recheck = max(0, recheck)
        #: node id -> QuarantineRecord for persistently flagged nodes
        self.quarantined: Dict[int, QuarantineRecord] = {}
        #: optional repro.journal.JournalWriter — every template of every
        #: node/stack check (sweep, triage re-check, recovery probe) is one
        #: durable work unit keyed ``<check unit>/<feature>:<language>``,
        #: so a killed campaign resumes without re-running a template it
        #: already ran, even part-way through a check
        self.journal = journal
        #: this campaign's CancelToken: cancelling it drains the sweep /
        #: timeline gracefully between node checks (CampaignInterrupted),
        #: and it drains each check's campaign between templates
        self.cancel = cancel if cancel is not None else CancelToken()
        #: one compile cache for every check of this harness, triage
        #: re-checks and recovery probes included: each source is parsed
        #: once, and a run another stack would repeat is served by the
        #: execute memo
        self.cache = CompileCache() if self.config.compile_cache else None

    def _recheck_config(self, offset: int) -> HarnessConfig:
        """The config for a re-check / recovery probe.

        When a fault plan is active, the probe counts as a *later attempt*
        of every unit (``attempt_offset``), so transient injected faults —
        by definition — do not recur, while persistent ones do.
        """
        plan = self.config.fault_plan
        if plan is None or offset == 0:
            return self.config
        return replace(
            self.config,
            fault_plan=replace(plan,
                               attempt_offset=plan.attempt_offset + offset),
        )

    def _announce(self, checks: int) -> None:
        """Grow the live stream's unit total by ``checks`` checks, each of
        the templates the harness config selects."""
        if self.live is not None:
            self.live.extend_total(
                checks * len(select_templates(self.suite, self.config)))

    def finish(self) -> None:
        """Finalize the live-telemetry pipeline (unsubscribe, final
        snapshot, sink close).  Idempotent; a no-op when no live sinks are
        configured."""
        if self.live is not None:
            self.live.end(None)

    def check_node(self, node: Node, stack: str,
                   config: Optional[HarnessConfig] = None,
                   unit: Optional[str] = None) -> StackCheck:
        """Validate one stack on one node: a one-cell campaign.

        ``unit`` names this check; sweeps, triage re-checks and recovery
        probes label their checks distinctly.  It prefixes the keys of the
        check's template units in the harness's journal and live stream,
        so a resumed campaign replays exactly the templates the
        interrupted one completed and runs the rest.  The check does not
        announce its units on the live stream: its caller does (see
        :meth:`_announce`).
        """
        unit = unit or f"sweep:node{node.node_id}:{stack}"
        runner = ValidationRunner(node.stacks[stack],
                                  config or self.config,
                                  cache=self.cache, tracer=self.tracer)
        [report] = run_campaign(self.suite, [Cell(runner, prefix=f"{unit}/")],
                                journal=self.journal, cancel=self.cancel,
                                live=self.live)
        check = StackCheck(
            node_id=node.node_id, stack=stack, healthy=node.healthy,
            report=report,
        )
        if self.tracer.enabled:
            self.tracer.event("titan.checked", unit=unit, node=node.node_id,
                              stack=stack, healthy=node.healthy,
                              flagged=check.flagged,
                              pass_rate=check.pass_rate,
                              harness_errors=check.harness_errors)
            if check.flagged:
                self.tracer.event(
                    "titan.node_flagged", node=node.node_id, stack=stack,
                    healthy=node.healthy, pass_rate=check.pass_rate,
                )
        return check

    def sweep(self, sample_size: int, seed: int = 0,
              stacks: Sequence[str] = (STACK_CUDA, STACK_OPENCL)) -> List[StackCheck]:
        """Validate a random node sample across the given stacks.

        Quarantined nodes are excluded from the sample; flagged checks are
        triaged (re-checked, then quarantined or written off as transient)
        before the sweep returns.
        """
        rng = random.Random(seed)
        eligible = [n for n in self.cluster.nodes
                    if n.node_id not in self.quarantined]
        sample = rng.sample(eligible, min(sample_size, len(eligible)))
        self._announce(len(sample) * len(stacks))
        checks: List[StackCheck] = []
        with self.tracer.span(
                "titan.sweep", key=f"seed={seed}",
                sample=len(sample)) as span:
            for node in sample:
                for stack in stacks:
                    self.cancel.check()
                    with self.tracer.span(
                        "titan.check", key=f"node{node.node_id}:{stack}",
                        healthy=node.healthy,
                    ):
                        checks.append(self.check_node(node, stack))
            quarantined = self._triage(checks)
            # attributes must be set before __exit__: a drained/serialized
            # trace only carries what the span held when it closed
            span.set(checks=len(checks),
                     flagged=sum(1 for c in checks if c.flagged),
                     quarantined=quarantined)
        return checks

    def _triage(self, checks: Sequence[StackCheck]) -> int:
        """Re-check flagged nodes; quarantine the persistently degraded.

        Returns the number of nodes quarantined by this sweep.
        """
        flagged = [c for c in checks if c.flagged]
        if not flagged:
            return 0
        # if every sampled check of a stack failed, suspect the stack (a
        # cluster-wide rollout regression), not the individual nodes
        suspect_stacks = set()
        for stack in {c.stack for c in checks}:
            pool = [c for c in checks if c.stack == stack]
            if len(pool) > 1 and all(c.flagged for c in pool):
                suspect_stacks.add(stack)
                if self.tracer.enabled:
                    self.tracer.event("titan.stack_suspect", stack=stack,
                                      checks=len(pool))
        nodes_by_id = {n.node_id: n for n in self.cluster.nodes}
        quarantined = 0
        for check in flagged:
            if check.stack in suspect_stacks:
                continue
            if check.node_id in self.quarantined:
                continue
            node = nodes_by_id[check.node_id]
            persistent = True
            for r in range(self.recheck):
                self.cancel.check()
                if self.tracer.enabled:
                    self.tracer.event("titan.recheck", node=check.node_id,
                                      stack=check.stack, round=r + 1)
                self._announce(1)
                again = self.check_node(
                    node, check.stack,
                    config=self._recheck_config(r + 1),
                    unit=f"recheck{r + 1}:node{check.node_id}:{check.stack}",
                )
                if not again.flagged:
                    persistent = False
                    break
            if persistent:
                self.quarantined[check.node_id] = QuarantineRecord(
                    node_id=check.node_id, stack=check.stack,
                    detail=(f"{len(check.report.failures())} failures, "
                            f"{check.harness_errors} harness errors"),
                )
                quarantined += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "titan.quarantined", node=check.node_id,
                        stack=check.stack, healthy=check.healthy,
                        harness_errors=check.harness_errors,
                    )
            elif self.tracer.enabled:
                self.tracer.event("titan.flag_transient", node=check.node_id,
                                  stack=check.stack)
        return quarantined

    def probe_quarantined(self, epoch: int = 0) -> List[int]:
        """Recovery probes: re-validate quarantined nodes; release the ones
        that come back clean.  Returns the recovered node ids."""
        recovered: List[int] = []
        nodes_by_id = {n.node_id: n for n in self.cluster.nodes}
        for node_id, record in sorted(self.quarantined.items()):
            self.cancel.check()
            record.probes += 1
            self._announce(1)
            check = self.check_node(
                nodes_by_id[node_id], record.stack,
                config=self._recheck_config(self.recheck + 1 + epoch),
                unit=f"probe{epoch}:node{node_id}:{record.stack}",
            )
            if self.tracer.enabled:
                self.tracer.event("titan.probe", node=node_id,
                                  stack=record.stack, epoch=epoch)
            if not check.flagged:
                recovered.append(node_id)
                if self.tracer.enabled:
                    self.tracer.event("titan.recovered", node=node_id,
                                      stack=record.stack,
                                      probes=record.probes)
        for node_id in recovered:
            del self.quarantined[node_id]
        return recovered

    def timeline(
        self,
        epochs: int,
        sample_size: int = 4,
        upgrades: Optional[Dict[int, Tuple[str, CompilerBehavior]]] = None,
        seed: int = 0,
    ) -> List[Dict[str, float]]:
        """Per-epoch aggregate pass rates per stack (functionality tracking).

        ``upgrades`` maps an epoch index to a (stack, behaviour) rollout
        applied before that epoch's sweep — regressions and fixes in the
        rolled-out compiler show up as rate changes.  Each epoch starts
        with recovery probes of the quarantine list, so repaired nodes
        rejoin the sampling pool; the per-epoch record tracks the list's
        size.
        """
        records: List[Dict[str, float]] = []
        for epoch in range(epochs):
            if upgrades and epoch in upgrades:
                stack, behavior = upgrades[epoch]
                self.cluster.upgrade_stack(stack, behavior)
            recovered = self.probe_quarantined(epoch)
            checks = self.sweep(sample_size, seed=seed + epoch)
            record: Dict[str, float] = {"epoch": float(epoch)}
            for stack in (STACK_CUDA, STACK_OPENCL):
                pool = [c for c in checks if c.stack == stack]
                if pool:
                    record[stack] = sum(c.pass_rate for c in pool) / len(pool)
                record[f"{stack}:flagged"] = float(
                    sum(1 for c in pool if c.flagged)
                )
            record["quarantined"] = float(len(self.quarantined))
            record["recovered"] = float(len(recovered))
            records.append(record)
        return records
