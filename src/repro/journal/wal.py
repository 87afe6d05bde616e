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
complete, checksum-valid line.  On load, such bytes are tolerated **only
at the very end of the file** — they are counted, reported, and truncated
before appending resumes.  A bad record with intact records *after* it is
not a torn tail but corruption, and raises :class:`JournalCorruptError`;
a journal that lies is worse than no journal.
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


@dataclass
class LoadedJournal:
    """The intact prefix of a journal file."""

    path: str
    campaign: dict
    #: unit key -> payload (last record wins, in case a crash re-ran a unit)
    records: Dict[str, dict] = field(default_factory=dict)
    #: resume generations recorded so far (0 = the original run)
    generation: int = 0
    resumes: int = 0
    #: byte length of the intact prefix (the file is valid up to here)
    valid_bytes: int = 0
    #: trailing bytes dropped by the torn-tail rule (0 = clean shutdown)
    torn_bytes: int = 0


def read_journal(path: str) -> LoadedJournal:
    """Load a journal, verifying checksums and applying the torn-tail rule.

    Pure: never modifies the file (truncation happens on resume).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise JournalCorruptError(f"cannot read journal {path!r}: {err}") from err
    loaded = LoadedJournal(path=path, campaign={})
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
            # invalid bytes are a torn tail only at the very end of the file
            if complete and newline + 1 < len(data):
                raise JournalCorruptError(
                    f"journal {path!r} line {lineno}: checksum or parse "
                    "failure with intact records after it — this is "
                    "corruption, not a torn tail; refusing to trust the file"
                )
            if not saw_header:
                raise JournalCorruptError(
                    f"journal {path!r}: header record is missing or torn"
                )
            loaded.valid_bytes = pos
            loaded.torn_bytes = len(data) - pos
            return loaded
        kind = record.get("type")
        if not saw_header:
            if kind != "header" or record.get("format") != JOURNAL_FORMAT:
                raise JournalCorruptError(
                    f"journal {path!r}: first record must be a "
                    f"{JOURNAL_FORMAT} header (got {kind!r})"
                )
            loaded.campaign = record.get("campaign") or {}
            saw_header = True
        elif kind == "unit":
            loaded.records[record["unit"]] = record.get("payload") or {}
        elif kind == "resume":
            loaded.resumes += 1
            loaded.generation = max(loaded.generation,
                                    int(record.get("generation", 0)))
        else:
            raise JournalCorruptError(
                f"journal {path!r} line {lineno}: unknown record type {kind!r}"
            )
        pos = newline + 1
    if not saw_header:
        raise JournalCorruptError(f"journal {path!r} is empty (no header)")
    loaded.valid_bytes = pos
    return loaded


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
