"""Crash-consistency checking for campaign journals (``repro journal fsck``).

:func:`read_journal` is the strict loader: it refuses a file whose
damage exceeds the torn-tail rule, because resuming from a lying journal
is worse than not resuming at all.  This module is the *diagnostic*
counterpart: it never raises on damage — it scans a journal, classifies
it, and reports what a resume would salvage:

* ``ok`` — every line checksums, clean shutdown;
* ``torn`` — trailing bytes fail to verify *at EOF only* (the state a
  SIGKILL mid-write leaves); resume truncates them and loses nothing
  already fsync'd;
* ``corrupt`` — a bad line with intact records after it, a missing or
  torn header, or an unknown record type; resume refuses this file, but
  the intact prefix *before* the first bad line is still counted so the
  report shows what re-journaling could recover;
* ``missing`` — the path does not exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.journal.wal import JOURNAL_FORMAT, _verify_line


@dataclass
class FsckReport:
    """The fsck verdict for one campaign journal."""

    path: str
    #: 'ok' | 'torn' | 'corrupt' | 'missing'
    status: str
    campaign: dict = field(default_factory=dict)
    #: unit key -> payload from the intact prefix (last record wins)
    records: Dict[str, dict] = field(default_factory=dict)
    generation: int = 0
    resumes: int = 0
    #: byte length of the intact prefix
    valid_bytes: int = 0
    #: bytes past the intact prefix (torn tail or corruption)
    bad_bytes: int = 0
    #: 1-based line number of the first bad line (None when ok)
    first_bad_line: Optional[int] = None
    detail: str = ""

    @property
    def clean(self) -> bool:
        """No corruption, no torn tail."""
        return self.status == "ok"

    @property
    def resumable(self) -> bool:
        """Would ``--resume`` accept this journal (truncating a torn tail)?"""
        return self.status in ("ok", "torn")

    def salvageable_units(self) -> Dict[str, dict]:
        """Unit records a resume would replay (none when it would refuse)."""
        return dict(self.records) if self.resumable else {}


def fsck_journal(path: str) -> FsckReport:
    """Tolerantly scan a campaign journal; never raises on damage."""
    if not os.path.exists(path):
        return FsckReport(path=path, status="missing",
                        detail="file does not exist")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        return FsckReport(path=path, status="corrupt",
                        detail=f"cannot read file: {err}")
    result = FsckReport(path=path, status="ok")
    pos = 0
    lineno = 0
    saw_header = False
    while pos < len(data):
        lineno += 1
        newline = data.find(b"\n", pos)
        complete = newline != -1
        chunk = data[pos:newline] if complete else data[pos:]
        record = _verify_line(chunk) if complete else None
        if record is None:
            at_eof = not complete or newline + 1 >= len(data)
            result.valid_bytes = pos
            result.bad_bytes = len(data) - pos
            result.first_bad_line = lineno
            if not saw_header:
                result.status = "corrupt"
                result.detail = "header record is missing or torn"
            elif at_eof:
                result.status = "torn"
                result.detail = (f"{result.bad_bytes} trailing byte(s) fail "
                                 "to verify — a torn tail; resume truncates "
                                 "them")
            else:
                result.status = "corrupt"
                result.detail = (f"line {lineno}: checksum or parse failure "
                                 "with intact records after it — corruption, "
                                 "not a torn tail; resume refuses this file")
            return result
        kind = record.get("type")
        if not saw_header:
            if kind != "header" or record.get("format") != JOURNAL_FORMAT:
                result.valid_bytes = pos
                result.bad_bytes = len(data) - pos
                result.first_bad_line = lineno
                result.status = "corrupt"
                result.detail = (f"first record must be a {JOURNAL_FORMAT} "
                                 f"header (got {kind!r})")
                return result
            result.campaign = record.get("campaign") or {}
            saw_header = True
        elif kind == "unit":
            result.records[record["unit"]] = record.get("payload") or {}
        elif kind == "resume":
            result.resumes += 1
            result.generation = max(result.generation,
                                    int(record.get("generation", 0)))
        else:
            result.valid_bytes = pos
            result.bad_bytes = len(data) - pos
            result.first_bad_line = lineno
            result.status = "corrupt"
            result.detail = f"line {lineno}: unknown record type {kind!r}"
            return result
        pos = newline + 1
    if not saw_header:
        result.status = "corrupt"
        result.detail = "file is empty (no header)"
        return result
    result.valid_bytes = pos
    return result


def render_fsck(report: FsckReport) -> str:
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
