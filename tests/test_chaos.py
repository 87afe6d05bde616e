"""The chaos suite: every fault site at once against a journaled campaign.

The contract under test (DESIGN §5i): with all five sites armed at rate
1.0 — compiler, iterations, process-pool workers, stalls and journal
appends — a ``validate --journal`` campaign on a process pool, resumed
until it completes, renders byte-identical to a fault-free run, and what
the chaos left on disk passes ``journal fsck``.  The CI ``chaos-smoke``
job replays the same campaign with a ``kill -9`` in the middle.
"""

from __future__ import annotations

import faulthandler
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import FAULT_SITES, FaultPlan
from repro.faults.plan import _SITE_FIELDS
from repro.journal import fsck_journal

#: every site fires once per decision key (transient), so each heals on
#: the next engine retry, pool respawn or resume generation
CHAOS = ("compile=1,iteration=1,worker=1,stall=1,journal=1,"
         "seed=29,stall-s=0.02")

#: small but multi-unit; retries >= 1 is what lets the transient
#: compile/iteration crashes heal in place instead of degrading units to
#: HARNESS_ERROR rows
SLICE = ["validate", "--language", "c", "--iterations", "2",
         "--features", "loop", "parallel", "--format", "csv",
         "--retries", "2"]

#: resumes tolerated before the campaign counts as non-converging
MAX_ROUNDS = 8

#: the chaos campaign takes 1.3-2.5 s; one still running after this long
#: is hung, not slow
DEADLINE_S = 120.0


@contextmanager
def hang_guard(path: Path, seconds: float):
    """Past ``seconds``, write every thread's stack to ``path`` and end
    the process (exit status 1), so a hang fails with a stack on disk.

    faulthandler has one timer per process: arming this one replaces the
    ``faulthandler_timeout`` timer pytest armed for the test, and leaving
    the block cancels the timer altogether.
    """
    with open(path, "w") as dump:
        faulthandler.dump_traceback_later(seconds, exit=True, file=dump)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture()
def hang_dump(tmp_path):
    with hang_guard(tmp_path / "hang-stacks.txt", DEADLINE_S):
        yield


def test_chaos_spec_arms_every_site():
    plan = FaultPlan.parse(CHAOS)
    assert all(getattr(plan, _SITE_FIELDS[site]) == 1.0
               for site in FAULT_SITES)
    assert plan.max_fires == 1 and not plan.persistent


def test_hang_guard_dumps_every_stack_and_ends_the_run(tmp_path):
    dump = tmp_path / "stacks.txt"
    script = (
        "import sys, threading, time\n"
        "from pathlib import Path\n"
        "from tests.test_chaos import hang_guard\n"
        "threading.Thread(target=time.sleep, args=(60,), daemon=True)"
        ".start()\n"
        f"with hang_guard(Path({str(dump)!r}), 0.2):\n"
        "    time.sleep(60)\n"
        "sys.exit(0)\n")
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", script], cwd=root,
                          env={**os.environ,
                               "PYTHONPATH": f"{root / 'src'}:{root}"},
                          capture_output=True, timeout=60)
    assert done.returncode == 1
    stacks = dump.read_text()
    assert "Timeout (0:00:00.200000)!" in stacks
    assert stacks.count("Thread 0x") == 2  # the sleeper and the main thread


@pytest.mark.usefixtures("hang_dump")
class TestChaosCampaign:
    def test_chaos_campaign_terminates_byte_identical(self, tmp_path, capsys):
        reference = tmp_path / "reference.csv"
        chaotic = tmp_path / "chaotic.csv"
        journal = str(tmp_path / "chaos.journal")
        assert main(SLICE + ["--output", str(reference)]) == 0

        args = SLICE + ["--policy", "process", "--workers", "2",
                        "--inject-faults", CHAOS, "--output", str(chaotic)]
        code = main(args + ["--journal", journal])
        rounds = 1
        while code not in (0, 2):
            # a torn journal append stops the campaign (exit 3); the
            # resume truncates the torn tail and replays what landed
            assert code == 3, capsys.readouterr().err
            assert rounds < MAX_ROUNDS, "chaos campaign did not converge"
            code = main(args + ["--resume", journal])
            rounds += 1
        assert code == 0
        # chaos cost something: every journal key tears on its first
        # generation, so at least one resume was needed
        assert rounds > 1
        assert chaotic.read_bytes() == reference.read_bytes()

        report = fsck_journal(journal)
        assert report.resumable
        assert set(report.salvageable_units())  # units actually landed
