"""Crash-consistency checking for campaign journals (``repro journal fsck``).

A journal has one reader, :func:`~repro.journal.wal.fsck_journal`: a
tolerant scan that never raises on damage and classifies the file as
``ok``, ``torn``, ``corrupt`` or ``missing``
(:class:`~repro.journal.wal.JournalScan`).  The scan has two verdicts,
and they cannot drift apart because both read the same object:

* resume's — :func:`~repro.journal.wal.read_journal` raises
  :class:`~repro.journal.wal.JournalCorruptError` unless the status is
  ``ok`` or ``torn``, because resuming from a lying journal is worse than
  not resuming at all;
* fsck's — :func:`render_fsck` reports the same status as clean,
  salvageable (a torn tail resume truncates) or corrupt, with the intact
  prefix before the first bad line counted so the report shows what
  re-journaling could recover.
"""

from __future__ import annotations

from repro.journal.wal import JournalScan


def render_fsck(report: JournalScan) -> str:
    """Human-readable fsck report (the CLI's output)."""
    lines = [f"fsck       {report.path}",
             f"  {report.status:8s} {len(report.records)} unit(s), "
             f"{report.valid_bytes} byte(s) intact"
             + (f", {report.bad_bytes} bad" if report.bad_bytes else "")]
    if report.detail:
        lines.append(f"    {report.detail}")
    units = len(report.records)
    if report.clean:
        lines.append(f"verdict    clean — {units} unit(s) journaled, "
                     "nothing to repair")
    elif report.resumable:
        lines.append(f"verdict    salvageable — a resume replays {units} "
                     "unit(s) after truncating the torn tail")
    else:
        lines.append(f"verdict    CORRUPT — resume will refuse; {units} "
                     "unit(s) intact before the damage")
    return "\n".join(lines)
