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

Arming every site at rate 1.0 at once (``--inject-faults
'compile=1,iteration=1,worker=1,stall=1,journal=1'``) is the chaos gate:
a ``validate`` campaign resumed until it completes renders byte-identical
to a fault-free run (DESIGN §5i).

Determinism guarantee: whether a site fires depends only on
``(plan.seed, site, key, attempt)`` — never on scheduling, wall-clock or
process identity — so serial and process runs of the same plan inject
the same faults, and a healed (retried) run reproduces the fault-free
run byte for byte.
"""

from repro.faults.plan import FAULT_SITES, FaultPlan
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
    "FaultInjector", "FaultyCompiler",
    "InjectedCompilerCrash", "InjectedFault", "InjectedJournalTear",
    "InjectedRuntimeCrash", "NULL_INJECTOR", "NullInjector",
]
