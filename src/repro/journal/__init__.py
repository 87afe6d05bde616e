"""Durable campaigns: crash-safe result journal + resume (``repro.journal``).

The paper's suite runs as week-long campaigns on Titan (Section VII) where
the *orchestrating process itself* gets preempted, OOM-killed, or loses
its node.  The retry layer makes the harness survive faults inside a run;
this package makes the campaign survive the harness: every completed work unit is
appended to a checksummed, fsync'd write-ahead journal the moment an
engine hands it back, so the campaign can be SIGKILLed at any instant —
including mid-journal-write — and resumed to a byte-identical report.

* :mod:`~repro.journal.wal` — the JSONL write-ahead log: header record
  binding the journal to a campaign key, per-record SHA-256 checksums,
  resume markers, and the one scan that reads a journal back
  (:func:`fsck_journal`, applying the torn-tail rule).  The scan has two
  verdicts on one :class:`JournalScan`: :func:`read_journal` refuses what
  resume cannot trust, and :mod:`~repro.journal.fsck` renders the same
  status as clean, salvageable or corrupt;
* :mod:`~repro.journal.codec` — campaign keys, unit keys and the payload
  round-trip for :class:`~repro.harness.runner.TestResult`, the one unit
  kind (a Titan check journals its templates).

CLI surface: ``repro validate --journal FILE`` / ``--resume FILE`` (same
for ``repro titan``), ``repro journal inspect FILE`` and ``repro journal
fsck FILE`` (crash-consistency check; see :mod:`repro.journal.fsck`).
"""

from repro.journal.wal import (
    JOURNAL_FORMAT,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    JournalScan,
    JournalWriter,
    fsck_journal,
    read_journal,
    record_line,
)
from repro.journal.fsck import render_fsck
from repro.journal.codec import (
    canonicalize,
    config_fingerprint,
    decode_result,
    encode_result,
    titan_campaign_key,
    unit_keys,
    validate_campaign_key,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JournalCorruptError", "JournalError", "JournalMismatchError",
    "JournalScan", "JournalWriter", "fsck_journal", "read_journal",
    "record_line", "render_fsck",
    "canonicalize", "config_fingerprint",
    "decode_result", "encode_result",
    "titan_campaign_key", "unit_keys",
    "validate_campaign_key",
]
