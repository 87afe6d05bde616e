"""Deterministic fault injection (``repro.faults``).

The paper's production story (Section VII) is the suite running unattended
on Titan's flaky nodes: workers die, runs stall, the tooling itself crashes
— and the harness has to keep the campaign's bookkeeping straight anyway.
This package is the *test double* for every robustness claim the harness
makes: a seeded :class:`FaultPlan` describes which failures to inject at
which named sites and at what rates, and a :class:`FaultInjector` fires
them deterministically.

Sites (each checked at a well-defined point in the execution layer):

* ``compile`` — the compiler raises an *internal* error (not a
  :class:`~repro.compiler.errors.CompileError` diagnostic), via the
  :class:`FaultyCompiler` proxy;
* ``iteration`` — a transient runtime crash before iteration *k* of a
  phase;
* ``worker`` — a process-pool worker dies mid-unit (``os._exit``); only
  fired inside process workers;
* ``stall`` — a wall-clock stall before an iteration, long enough to trip
  the per-template timeout;
* ``journal`` — a torn write mid-journal-append (half the record reaches
  the disk, then the simulated crash escapes), the test vector for the
  durable-campaign resume path.

Server sites (the failure modes of the :mod:`repro.server` campaign
server's wire protocol):

* ``conn`` — the campaign server drops a connection mid-frame (a prefix
  of the response line reaches the client); the client's retry policy
  heals it;
* ``frame`` — a ``repro.server/v1`` line is garbled on the wire; the
  tail client reconnects and dedups by ``seq``;
* ``slow_client`` — a tail subscriber stalls for ``stall_s``; the
  bounded subscriber queue evicts oldest and reports the drop count.

:mod:`repro.faults.chaos` composes every site into a seeded
:class:`ChaosSchedule` and drives a server-hosted campaign under it.

Determinism guarantee: whether a site fires depends only on
``(plan.seed, site, key, attempt)`` — never on scheduling, wall-clock or
process identity — so serial, thread and process runs of the same plan
inject the same faults, and a healed (retried) run reproduces the
fault-free run byte for byte.
"""

from repro.faults.plan import FAULT_SITES, FaultPlan
from repro.faults.chaos import ChaosSchedule, drive_to_completion
from repro.faults.injector import (
    FaultInjector,
    FaultyCompiler,
    InjectedCompilerCrash,
    InjectedFault,
    InjectedJournalTear,
    InjectedRuntimeCrash,
    NULL_INJECTOR,
    NullInjector,
)

__all__ = [
    "FAULT_SITES", "FaultPlan",
    "ChaosSchedule", "drive_to_completion",
    "FaultInjector", "FaultyCompiler",
    "InjectedCompilerCrash", "InjectedFault", "InjectedJournalTear",
    "InjectedRuntimeCrash", "NULL_INJECTOR", "NullInjector",
]
