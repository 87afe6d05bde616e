"""The write-ahead journal: checksummed JSONL records, torn-tail recovery.

File layout (one JSON object per line, ``sha256`` over the rest of the
record, truncated to 16 hex chars)::

    {"type":"header","format":"repro.journal/v1","campaign":{...},"sha256":...}
    {"type":"unit","unit":"parallel.if:c","payload":{...},"sha256":...}
    {"type":"resume","generation":1,"sha256":...}
    ...

* The **header** binds the journal to one campaign key — suite selection,
  vendor behaviour, harness config, seeds, code version.  Resuming under a
  different key raises :class:`JournalMismatchError` naming the differing
  fields.
* Each **unit** record is one completed work unit, appended and fsync'd
  the moment the engine hands the result back — a SIGKILL one instruction
  later loses nothing.
* A **resume** record marks each reopening; its generation feeds the
  ``journal`` fault site so an injected torn write is transient across
  resumes (like every other injected fault).

Torn-tail rule: a crash mid-``write`` leaves trailing bytes that are not a
complete, checksum-valid line.  Such bytes are tolerated **only at the
very end of the file** — they are counted, reported, and truncated before
appending resumes.  A bad record with intact records *after* it is not a
torn tail but corruption; a journal that lies is worse than no journal.

One scan applies the rule: :func:`fsck_journal` walks the bytes once and
classifies the file (:class:`JournalScan`) without ever raising on
damage.  Its two verdicts read that one result — :func:`read_journal`
(resume, ``journal inspect``) raises :class:`JournalCorruptError` unless
the status is ``ok`` or ``torn``, and ``journal fsck`` renders it — so
fsck calls a journal salvageable exactly when resume accepts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults import NULL_INJECTOR
from repro.ioutil import fsync_directory
from repro.obs import NULL_TRACER

#: format tag carried by every header and verified on load
JOURNAL_FORMAT = "repro.journal/v1"


class JournalError(Exception):
    """Base class for journal load/resume failures."""


class JournalMismatchError(JournalError):
    """The journal's campaign key does not match the requested campaign."""


class JournalCorruptError(JournalError):
    """The journal is damaged beyond the torn-tail rule (bad record with
    intact records after it, missing/invalid header, unreadable file)."""


def _checksum(record: dict) -> str:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def record_line(record: dict) -> bytes:
    """Serialize one record as a checksummed JSONL line (with newline)."""
    sealed = dict(record)
    sealed["sha256"] = _checksum(record)
    return (json.dumps(sealed, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _verify_line(chunk: bytes) -> Optional[dict]:
    """Parse and checksum-verify one line; None when invalid."""
    try:
        record = json.loads(chunk.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict):
        return None
    expected = record.pop("sha256", None)
    if expected != _checksum(record):
        return None
    return record


def _record_fault(record: dict) -> str:
    """What is wrong with a checksum-valid record after the header ("" when
    nothing is): a checksum proves the line was written whole, not that
    its fields are well formed."""
    kind = record.get("type")
    if kind == "unit":
        if not isinstance(record.get("unit"), str):
            return (f"unit record's 'unit' is not a string "
                    f"(got {record.get('unit')!r})")
        if not isinstance(record.get("payload", {}), dict):
            return "unit record's 'payload' is not an object"
    elif kind == "resume":
        generation = record.get("generation", 0)
        if not isinstance(generation, int) or isinstance(generation, bool):
            return (f"resume record's 'generation' is not an integer "
                    f"(got {generation!r})")
    else:
        return f"unknown record type {kind!r}"
    return ""


@dataclass
class JournalScan:
    """What one scan of a journal file found: its status and intact prefix.

    ``status`` is the scan's classification:

    * ``ok`` — every line checksums (a clean shutdown);
    * ``torn`` — trailing bytes fail to verify *at EOF only*, the state a
      SIGKILL mid-write leaves; resume truncates them;
    * ``corrupt`` — a bad line with intact records after it, a missing or
      torn header, an unknown record type, a record whose checksum is
      valid but whose fields are wrong, an empty or unreadable file;
    * ``missing`` — the path does not exist.

    The intact prefix before the first bad line is scanned either way, so
    fsck can show what a corrupt journal still holds.
    """

    path: str
    status: str = "ok"
    campaign: dict = field(default_factory=dict)
    #: unit key -> payload (last record wins, in case a crash re-ran a unit)
    records: Dict[str, dict] = field(default_factory=dict)
    #: resume generations recorded so far (0 = the original run)
    generation: int = 0
    resumes: int = 0
    #: byte length of the intact prefix (the file is valid up to here)
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

    @property
    def torn_bytes(self) -> int:
        """Trailing bytes resume truncates (0 after a clean shutdown)."""
        return self.bad_bytes if self.status == "torn" else 0

    def salvageable_units(self) -> Dict[str, dict]:
        """Unit records a resume would replay (none when it would refuse)."""
        return dict(self.records) if self.resumable else {}


def fsck_journal(path: str) -> JournalScan:
    """Scan a journal, verifying checksums and applying the torn-tail rule.

    The one reader of journal bytes: tolerant (never raises on damage) and
    pure (never modifies the file; truncation happens on resume).
    """
    scan = JournalScan(path=path)
    if not os.path.exists(path):
        scan.status, scan.detail = "missing", "file does not exist"
        return scan
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        scan.status, scan.detail = "corrupt", f"cannot read file: {err}"
        return scan
    if not data:
        scan.status, scan.detail = "corrupt", "file is empty (no header)"
        return scan
    pos = 0
    lineno = 0
    while pos < len(data):
        lineno += 1
        newline = data.find(b"\n", pos)
        record = _verify_line(data[pos:newline]) if newline != -1 else None
        kind = record.get("type") if record is not None else None
        status, detail = "corrupt", ""
        if record is None:
            if lineno == 1:
                detail = "header record is missing or torn"
            elif newline == -1 or newline + 1 == len(data):
                status = "torn"
                detail = (f"{len(data) - pos} trailing byte(s) fail to "
                          "verify — a torn tail; resume truncates them")
            else:
                detail = (f"line {lineno}: checksum or parse failure with "
                          "intact records after it — corruption, not a torn "
                          "tail; resume refuses this file")
        elif lineno == 1:
            if kind == "header" and record.get("format") == JOURNAL_FORMAT:
                scan.campaign = record.get("campaign") or {}
            else:
                detail = (f"first record must be a {JOURNAL_FORMAT} header "
                          f"(got {kind!r})")
        else:
            fault = _record_fault(record)
            if fault:
                detail = f"line {lineno}: {fault}"
            elif kind == "unit":
                scan.records[record["unit"]] = record.get("payload") or {}
            else:
                scan.resumes += 1
                scan.generation = max(scan.generation,
                                      record.get("generation", 0))
        if detail:
            scan.status, scan.detail = status, detail
            scan.bad_bytes = len(data) - pos
            scan.first_bad_line = lineno
            break
        pos = newline + 1
    scan.valid_bytes = pos
    return scan


def read_journal(path: str) -> JournalScan:
    """The scan of a journal a resume can trust; raises
    :class:`JournalCorruptError` when the damage exceeds the torn-tail rule.
    """
    scan = fsck_journal(path)
    if not scan.resumable:
        raise JournalCorruptError(f"journal {path!r}: {scan.detail}")
    return scan


def _diff_campaigns(expected: dict, found: dict) -> str:
    """Human-readable list of differing campaign-key fields."""
    parts = []
    for key in sorted(set(expected) | set(found)):
        a, b = found.get(key), expected.get(key)
        if a != b:
            parts.append(f"{key}: journal has {a!r}, this run has {b!r}")
    return "; ".join(parts) or "(keys differ structurally)"


class JournalWriter:
    """Append-only, fsync-per-record campaign journal.

    Construct via :meth:`create` (new campaign) or :meth:`resume`
    (continue an interrupted one).  ``get`` serves replayed payloads;
    ``append`` durably records one completed unit.  Appends are serialized
    by a lock (engines invoke completion callbacks from the coordinating
    thread, but the journal does not rely on that).
    """

    def __init__(self, path: str, campaign: dict, handle,
                 records: Optional[Dict[str, dict]] = None,
                 generation: int = 0, torn_bytes: int = 0,
                 tracer=None, faults=None):
        self.path = path
        self.campaign = campaign
        self.records: Dict[str, dict] = records if records is not None else {}
        #: how many times this journal has been (re)opened; feeds the
        #: ``journal`` fault site's attempt number, so injected torn
        #: writes are transient across resumes
        self.generation = generation
        #: bytes dropped by the torn-tail rule when this writer resumed
        self.torn_bytes = torn_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NULL_INJECTOR
        self._handle = handle
        self._lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, path: str, campaign: dict,
               tracer=None, faults=None) -> "JournalWriter":
        """Start a new campaign journal (truncates any existing file)."""
        handle = open(path, "wb")
        header = {"type": "header", "format": JOURNAL_FORMAT,
                  "campaign": campaign}
        handle.write(record_line(header))
        handle.flush()
        os.fsync(handle.fileno())
        fsync_directory(os.path.dirname(os.path.abspath(path)))
        return cls(path, campaign, handle, tracer=tracer, faults=faults)

    @classmethod
    def resume(cls, path: str, campaign: dict,
               tracer=None, faults=None) -> "JournalWriter":
        """Reopen an interrupted campaign's journal for replay + append.

        Verifies the campaign key, truncates a torn tail, and appends a
        ``resume`` marker so later injected-fault decisions know which
        generation they are in.
        """
        loaded = read_journal(path)
        if loaded.campaign != campaign:
            raise JournalMismatchError(
                f"journal {path!r} belongs to a different campaign — "
                + _diff_campaigns(campaign, loaded.campaign)
            )
        handle = open(path, "r+b")
        if loaded.torn_bytes:
            handle.truncate(loaded.valid_bytes)
        handle.seek(0, os.SEEK_END)
        generation = loaded.generation + 1
        handle.write(record_line({"type": "resume", "generation": generation}))
        handle.flush()
        os.fsync(handle.fileno())
        writer = cls(path, campaign, handle, records=dict(loaded.records),
                     generation=generation, torn_bytes=loaded.torn_bytes,
                     tracer=tracer, faults=faults)
        tracer = writer.tracer
        if tracer.enabled:
            if loaded.torn_bytes:
                tracer.event("journal.torn_tail", path=path,
                             dropped_bytes=loaded.torn_bytes)
            tracer.event("journal.resumed", path=path,
                         generation=generation, units=len(writer.records))
        return writer

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()

    # ------------------------------------------------------------- record io

    def get(self, unit: str) -> Optional[dict]:
        """The replayed payload for ``unit``, or None if it must be run."""
        return self.records.get(unit)

    def append(self, unit: str, payload: dict) -> None:
        """Durably record one completed unit (write + flush + fsync).

        The ``journal`` fault site fires *mid-write*: a prefix of the line
        reaches the disk and the simulated crash propagates — exactly the
        state a SIGKILL between ``write`` and ``fsync`` leaves behind, and
        what the torn-tail rule exists to clean up.
        """
        line = record_line({"type": "unit", "unit": unit, "payload": payload})
        with self._lock:
            if self.faults.journal_site(unit, self.generation):
                self._handle.write(line[: max(1, len(line) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                from repro.faults import InjectedJournalTear

                raise InjectedJournalTear(
                    f"injected torn journal write (unit={unit!r}, "
                    f"generation={self.generation})"
                )
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.records[unit] = payload
        if self.tracer.enabled:
            self.tracer.event("journal.append", unit=unit)
