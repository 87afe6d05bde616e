"""The asyncio campaign server (``repro serve``).

One process serves many concurrent campaign submissions: each campaign
runs ``ValidationRunner.run_suite`` on the engine its config names
inside a bounded worker pool, owns a per-campaign
:class:`~repro.harness.engine.CancelToken` (cancelling
one client's campaign never touches its neighbours — the bugfix this
whole layer stands on), streams its ``repro.obs.live`` records to any
number of ``tail`` clients, and is journaled twice over:

* the *server journal* (``server.journal``, an ordinary
  :mod:`repro.journal` WAL keyed by campaign id, last-record-wins)
  records every submission spec and state transition, so a killed
  server restarts knowing exactly which campaigns were in flight;
* each campaign's *unit journal* (``<id>.journal``) records completed
  work units, so a re-enqueued campaign replays instead of re-running.

Threading model: the asyncio loop owns all client I/O and the
subscriber fan-out; campaigns run in a ``ThreadPoolExecutor`` and reach
the loop only via ``call_soon_threadsafe``.  Campaign state is guarded
by one lock because both sides read it.

Supervision (DESIGN §5i): every tail subscriber sits behind a *bounded*
queue with drop-oldest eviction — a stalled client costs at most
``tail_buffer`` records of memory, and the drop count is surfaced on
the stream's end line.  With ``watchdog_s`` set, a per-campaign
watchdog derives liveness from the campaign's live-telemetry fan-out:
no record within ``watchdog_s`` cancels the campaign's token and
re-queues it, up to ``restart_budget`` restarts, after which the
campaign is marked ``failed`` with a resume hint.  A ``fault_plan``
arms the server-side chaos sites (``conn``, ``frame``,
``slow_client``) against the wire protocol itself.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.server import protocol
from repro.server.protocol import (
    SERVER_FORMAT,
    ProtocolError,
    encode_line,
    normalize_spec,
    state_exit_code,
)

#: default TCP port ("repro" has 5 letters, v1 protocol, port space taste)
DEFAULT_PORT = 7781

#: default per-subscriber tail queue capacity (records, not bytes): deep
#: enough that a briefly-slow client misses nothing, shallow enough that
#: a stalled one cannot grow server memory
DEFAULT_TAIL_BUFFER = 512

_TERMINAL = ("done", "failed", "cancelled")


class _DropConnection(Exception):
    """Injected ``conn`` fault: drop the connection mid-frame.

    Carries the partial frame bytes the client observes before EOF —
    precisely the torn response a server crash between ``write`` and
    ``flush`` would leave on the wire.
    """

    def __init__(self, partial: bytes):
        super().__init__("injected connection drop mid-frame")
        self.partial = partial


class BoundedTailQueue:
    """A loop-thread-owned subscriber queue with drop-oldest eviction.

    ``put`` never blocks and never grows the queue past ``capacity``:
    when full, the oldest record is evicted and counted in ``dropped``.
    The tail op reports the final count on its end line, so a slow
    client *knows* its view has gaps instead of silently believing a
    truncated stream (the seq numbers also jump, which ``repro obs``
    readers tolerate).
    """

    def __init__(self, capacity: int = DEFAULT_TAIL_BUFFER):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self.dropped = 0
        self._queue: asyncio.Queue = asyncio.Queue()

    def put(self, item) -> None:
        while self._queue.qsize() >= self.capacity:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - single thread
                break
            self.dropped += 1
        self._queue.put_nowait(item)

    async def get(self):
        return await self._queue.get()


class Campaign:
    """One submitted campaign and its server-side plumbing."""

    def __init__(self, cid: str, spec: dict, state: str = "queued"):
        self.id = cid
        self.spec = spec
        self.state = state
        self.error: Optional[str] = None
        self.report_path: Optional[str] = None
        #: did the finished report contain failures (exit-code split)
        self.failures: Optional[bool] = None
        from repro.harness.engine import CancelToken

        self.cancel = CancelToken()
        #: bounded replay buffer of live records (loop-thread owned); a
        #: long campaign keeps only the most recent window in memory —
        #: the full stream is on disk in ``<id>.ndjson``
        self.records: "deque" = _record_buffer()
        #: replay-buffer evictions (records a late tail cannot replay)
        self.records_dropped = 0
        self.last_snapshot: Optional[dict] = None
        #: tail subscribers (loop-thread owned bounded queues)
        self.subscribers: List[BoundedTailQueue] = []
        #: watchdog bookkeeping: fan-out records seen (loop-thread owned)
        #: and restarts consumed so far
        self.progress_seq = 0
        self.restarts = 0
        #: campaign-lifetime sequence: each run's telemetry restarts its
        #: own ``seq`` at 0, so the fan-out re-stamps records with this
        #: monotone counter — tail replay dedup and the client's
        #: reconnect dedup stay correct across requeues and resumes
        self.next_seq = 0
        #: set by the watchdog before cancelling, consumed by the worker
        #: thread to requeue instead of marking the campaign cancelled
        self.watchdog_fired = False
        #: canonical campaign-key fingerprint (idempotent resubmission)
        self.submit_key: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    @property
    def exit_code(self) -> Optional[int]:
        return state_exit_code(self.state, self.failures)


def _record_buffer():
    from collections import deque

    return deque(maxlen=4096)


def _submit_key(spec: dict) -> str:
    """Fingerprint of the spec's canonical campaign key (the unit
    journal's header key): two submissions with the same fingerprint
    would run — and journal — the identical campaign, which is what
    makes a retried ``submit`` safe to dedup against an active one."""
    import hashlib
    import json

    from repro.journal import canonicalize

    key = canonicalize(protocol.spec_campaign_key(spec))
    body = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


class _BroadcastSink:
    """A live-telemetry sink forwarding records into the asyncio loop."""

    def __init__(self, server: "CampaignServer", campaign: Campaign):
        self._server = server
        self._campaign = campaign

    def emit(self, record: dict) -> None:
        self._server._post_record(self._campaign, record)

    def close(self, final: Optional[dict] = None) -> None:
        pass


class CampaignServer:
    """The campaign server: see module docstring."""

    def __init__(self, root: str, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, max_concurrent: int = 2,
                 watchdog_s: Optional[float] = None,
                 restart_budget: int = 2,
                 tail_buffer: int = DEFAULT_TAIL_BUFFER,
                 fault_plan=None):
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1 (got {max_concurrent})"
            )
        if watchdog_s is not None and watchdog_s <= 0:
            raise ValueError(f"watchdog_s must be > 0 (got {watchdog_s})")
        if restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0 (got {restart_budget})"
            )
        self.root = root
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        #: campaign liveness timeout: no live record for this long while
        #: ``running`` cancels + re-queues the campaign (None = no watchdog)
        self.watchdog_s = watchdog_s
        #: watchdog restarts tolerated per campaign before it is marked
        #: ``failed`` with a resume hint
        self.restart_budget = restart_budget
        self.tail_buffer = tail_buffer
        from repro.faults import FaultInjector, NULL_INJECTOR

        #: server-side chaos sites (conn / frame / slow_client); the
        #: campaign-side plan travels in each submission's config
        self.faults = (FaultInjector(fault_plan)
                       if fault_plan is not None and fault_plan.active
                       else NULL_INJECTOR)
        #: per-(site, key) check counters: the attempt number of every
        #: server-side site decision, so a transient fault (max_fires=1)
        #: fires on the first request and heals on the client's retry
        self._fault_attempts: Dict[tuple, int] = {}
        self._campaigns: Dict[str, Campaign] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="campaign"
        )
        self._journal = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Open (or resume) the server journal, bind the socket, and
        re-enqueue every campaign a previous life left unfinished."""
        os.makedirs(self.root, exist_ok=True)
        self._loop = asyncio.get_running_loop()
        resumed = self._open_server_journal()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        for campaign in resumed:
            self._launch(campaign)

    async def serve_forever(self) -> None:
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: drain every campaign, keep their journaled
        states resumable (a queued/running campaign restarts as queued
        on the next ``repro serve`` over the same directory)."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with self._lock:
            campaigns = list(self._campaigns.values())
        for campaign in campaigns:
            if not campaign.terminal:
                campaign.cancel.cancel(
                    "server shutting down: campaign re-queued for the "
                    "next serve over this directory"
                )
        await self._loop.run_in_executor(
            None, lambda: self._pool.shutdown(wait=True)
        )
        if self._journal is not None:
            self._journal.close()

    def _open_server_journal(self) -> List[Campaign]:
        import repro
        from repro.journal import JOURNAL_FORMAT, JournalWriter

        path = os.path.join(self.root, "server.journal")
        key = {"format": JOURNAL_FORMAT, "command": "serve",
               "code_version": repro.__version__}
        resumed: List[Campaign] = []
        if os.path.exists(path):
            self._journal = JournalWriter.resume(path, key)
            for cid in sorted(self._journal.records):
                payload = self._journal.records[cid]
                campaign = Campaign(cid, payload["spec"],
                                    state=payload["state"])
                campaign.error = payload.get("error")
                campaign.report_path = payload.get("report_path")
                campaign.failures = payload.get("failures")
                self._campaigns[cid] = campaign
                number = int(cid.lstrip("c") or 0)
                self._next_id = max(self._next_id, number + 1)
                if campaign.state in ("queued", "running"):
                    # in flight when the last server died: run it again —
                    # its unit journal replays everything already done
                    campaign.state = "queued"
                    self._journal_state(campaign)
                    resumed.append(campaign)
        else:
            self._journal = JournalWriter.create(path, key)
        return resumed

    # ------------------------------------------------------- campaign driving

    def _journal_state(self, campaign: Campaign) -> None:
        self._journal.append(campaign.id, {
            "spec": campaign.spec,
            "state": campaign.state,
            "error": campaign.error,
            "report_path": campaign.report_path,
            "failures": campaign.failures,
        })

    def _set_state(self, campaign: Campaign, state: str, *,
                   error: Optional[str] = None) -> None:
        with self._lock:
            campaign.state = state
            if error is not None:
                campaign.error = error
            self._journal_state(campaign)
        if state in _TERMINAL:
            self._post_finish(campaign)

    def _launch(self, campaign: Campaign) -> None:
        # always called on the loop thread (start() and request handlers)
        self._loop.run_in_executor(self._pool, self._run_campaign, campaign)
        if self.watchdog_s is not None:
            self._loop.create_task(self._watchdog(campaign))

    def _relaunch(self, campaign: Campaign) -> None:
        """Loop-side requeue: reset the replay buffer (the rerun streams
        fresh records; ``next_seq`` keeps the seq space monotone) and
        launch again."""
        campaign.records = _record_buffer()
        campaign.last_snapshot = None
        self._launch(campaign)

    async def _watchdog(self, campaign: Campaign) -> None:
        """Per-campaign liveness supervisor (loop side).

        Liveness is derived from the campaign's live-telemetry fan-out:
        every record bumps ``progress_seq``.  While the campaign is
        ``running``, no bump within ``watchdog_s`` means it is stuck —
        a stalled unit, a hung pool worker — so the watchdog cancels
        the campaign's token and re-queues it (completed units
        replay from the unit journal).  After ``restart_budget``
        restarts it stops trusting restarts and the campaign lands
        ``failed`` with a resume hint.  One watchdog task supervises one
        launch; a requeue launches a fresh one.
        """
        interval = min(self.watchdog_s / 4.0, 1.0)
        last_seq = campaign.progress_seq
        last_change = self._loop.time()
        while not campaign.terminal:
            await asyncio.sleep(interval)
            if campaign.terminal or self._draining:
                return
            if campaign.watchdog_fired:
                return  # fired (possibly by an earlier task); a relaunch
                        # brings its own watchdog
            if campaign.progress_seq != last_seq or campaign.state != "running":
                # progress, or not our problem yet (queued for a pool slot)
                last_seq = campaign.progress_seq
                last_change = self._loop.time()
                continue
            idle = self._loop.time() - last_change
            if idle < self.watchdog_s:
                continue
            campaign.watchdog_fired = True
            campaign.restarts += 1
            budget_left = campaign.restarts <= self.restart_budget
            campaign.cancel.cancel(
                f"watchdog: campaign {campaign.id} made no progress for "
                f"{idle:.1f}s (budget {self.watchdog_s:g}s); "
                + ("cancelling for restart "
                   f"{campaign.restarts}/{self.restart_budget}"
                   if budget_left else
                   f"restart budget ({self.restart_budget}) exhausted")
            )
            return

    def _campaign_journal(self, campaign: Campaign, config, behavior):
        """Create or resume the campaign's unit journal.  The
        submission's fault plan arms the journal site, so server-hosted
        campaigns exercise the same crash-consistency paths as CLI
        ones."""
        from repro.faults import FaultInjector, NULL_INJECTOR
        from repro.journal import JournalWriter

        plan = config.fault_plan
        faults = (FaultInjector(plan)
                  if plan is not None and plan.active else NULL_INJECTOR)
        key = protocol.spec_campaign_key(campaign.spec, config, behavior)
        base = os.path.join(self.root, f"{campaign.id}.journal")
        if os.path.exists(base):
            return JournalWriter.resume(base, key, faults=faults)
        return JournalWriter.create(base, key, faults=faults)

    def _run_campaign(self, campaign: Campaign) -> None:
        """Worker-thread body: run one campaign end to end."""
        from repro.harness import CampaignInterrupted, ValidationRunner
        from repro.obs.live import LiveTelemetry, NDJSONStreamSink

        live = None
        try:
            self._set_state(campaign, "running")
            config = protocol.spec_config(campaign.spec)
            behavior = protocol.spec_behavior(campaign.spec, config)
            suite = protocol.spec_suite(campaign.spec)
            stream_path = os.path.join(self.root, f"{campaign.id}.ndjson")
            live = LiveTelemetry(
                sinks=[NDJSONStreamSink(stream_path),
                       _BroadcastSink(self, campaign)],
                min_interval_s=0.2,
            )
            journal = self._campaign_journal(campaign, config, behavior)
            try:
                runner = ValidationRunner(behavior, config, live=live)
                report = runner.run_suite(suite, journal=journal,
                                          cancel=campaign.cancel)
            finally:
                journal.close()
            live.end(report)
            fmt = campaign.spec["format"]
            extension = protocol.REPORT_EXTENSIONS[fmt]
            report_path = os.path.join(
                self.root, f"{campaign.id}.report.{extension}"
            )
            from repro.ioutil import atomic_write_text

            atomic_write_text(report_path, protocol.render_report(report, fmt))
            with self._lock:
                campaign.report_path = report_path
                campaign.failures = bool(report.failures())
            self._set_state(campaign, "done")
        except CampaignInterrupted:
            if live is not None:
                live.end(None)
            if self._draining:
                # server shutdown, not a client cancel: stay resumable
                self._set_state(campaign, "queued")
            elif campaign.watchdog_fired:
                campaign.watchdog_fired = False
                if campaign.restarts <= self.restart_budget:
                    # stuck, not dead: requeue — completed units replay
                    # from the unit journal, so the restart loses nothing
                    from repro.harness.engine import CancelToken

                    with self._lock:
                        campaign.cancel = CancelToken()
                        campaign.state = "queued"
                        self._journal_state(campaign)
                    self._loop.call_soon_threadsafe(self._relaunch, campaign)
                else:
                    self._set_state(
                        campaign, "failed",
                        error=(f"watchdog: no progress within "
                               f"{self.watchdog_s:g}s and restart budget "
                               f"({self.restart_budget}) exhausted after "
                               f"{campaign.restarts} restart(s); journaled "
                               "units are intact — resume to continue"),
                    )
            else:
                self._set_state(campaign, "cancelled")
        except BaseException as err:
            if live is not None:
                live.end(None)
            self._set_state(campaign, "failed", error=repr(err))

    # ------------------------------------------------- loop-side record fanout

    def _post_record(self, campaign: Campaign, record: dict) -> None:
        try:
            self._loop.call_soon_threadsafe(self._fanout, campaign, record)
        except RuntimeError:  # loop already closed (late shutdown emission)
            pass

    def _post_finish(self, campaign: Campaign) -> None:
        try:
            self._loop.call_soon_threadsafe(self._finish_subscribers, campaign)
        except RuntimeError:
            pass

    def _fanout(self, campaign: Campaign, record: dict) -> None:
        record = dict(record, seq=campaign.next_seq)
        campaign.next_seq += 1
        campaign.progress_seq += 1
        if (campaign.records.maxlen is not None
                and len(campaign.records) >= campaign.records.maxlen):
            campaign.records_dropped += 1
        campaign.records.append(record)
        if record.get("type") == "snapshot":
            campaign.last_snapshot = record
        for queue in campaign.subscribers:
            queue.put(record)

    def _finish_subscribers(self, campaign: Campaign) -> None:
        for queue in campaign.subscribers:
            queue.put(None)
        campaign.subscribers = []

    # ---------------------------------------------------------------- queries

    def _resume_hint(self, campaign: Campaign) -> Optional[str]:
        if campaign.state not in ("cancelled", "failed"):
            return None
        return (f"repro submit --server {self.host}:{self.port} "
                f"--resume {campaign.id}")

    def campaign_info(self, campaign: Campaign) -> dict:
        with self._lock:
            spec = campaign.spec
            info = {
                "id": campaign.id,
                "state": campaign.state,
                "suite": spec["suite"],
                "compiler": (f"{spec['vendor']} {spec['version']}"
                             if spec.get("vendor") else "reference"),
                "policy": spec["config"]["policy"],
                "format": spec["format"],
                "error": campaign.error,
                "report_path": campaign.report_path,
                "exit": campaign.exit_code,
                "resume": self._resume_hint(campaign),
                "restarts": campaign.restarts,
            }
        snapshot = campaign.last_snapshot
        if snapshot is not None:
            info["progress"] = {
                key: snapshot.get(key)
                for key in ("total_units", "units_done", "passed", "failed",
                            "harness_errors", "final")
            }
        return info

    def _get(self, cid) -> Campaign:
        if not isinstance(cid, str):
            raise ProtocolError("missing campaign id")
        with self._lock:
            campaign = self._campaigns.get(cid)
        if campaign is None:
            raise ProtocolError(f"no such campaign: {cid!r}")
        return campaign

    # ------------------------------------------------------------ request ops

    def _op_submit(self, request: dict) -> dict:
        if self._draining:
            raise ProtocolError("server is shutting down")
        resume = request.get("resume")
        if resume is not None:
            campaign = self._get(resume)
            if not campaign.terminal:
                raise ProtocolError(
                    f"campaign {campaign.id} is {campaign.state}; only "
                    "cancelled/failed/done campaigns can be re-submitted"
                )
            from repro.harness.engine import CancelToken

            with self._lock:
                campaign.cancel = CancelToken()
                campaign.error = None
                campaign.failures = None
                campaign.state = "queued"
                campaign.records = _record_buffer()
                campaign.last_snapshot = None
                campaign.restarts = 0
                campaign.watchdog_fired = False
                self._journal_state(campaign)
        else:
            spec = normalize_spec(request.get("spec") or {})
            submit_key = _submit_key(spec)
            if request.get("idempotent"):
                # a client retrying a submit whose response was lost must
                # not enqueue the campaign twice: an active campaign with
                # the same canonical campaign key IS that submission
                with self._lock:
                    for existing in self._campaigns.values():
                        if (existing.submit_key == submit_key
                                and not existing.terminal):
                            return {"ok": True, "id": existing.id,
                                    "state": existing.state,
                                    "deduped": True}
            with self._lock:
                cid = f"c{self._next_id:04d}"
                self._next_id += 1
                campaign = Campaign(cid, spec)
                campaign.submit_key = submit_key
                self._campaigns[cid] = campaign
                self._journal_state(campaign)
        self._launch(campaign)
        return {"ok": True, "id": campaign.id, "state": campaign.state}

    def _op_status(self, request: dict) -> dict:
        cid = request.get("id")
        if cid is not None:
            return {"ok": True, "campaign": self.campaign_info(self._get(cid))}
        with self._lock:
            campaigns = [self._campaigns[c] for c in sorted(self._campaigns)]
        return {
            "ok": True,
            "format": SERVER_FORMAT,
            "campaigns": [self.campaign_info(c) for c in campaigns],
        }

    def _op_cancel(self, request: dict) -> dict:
        campaign = self._get(request.get("id"))
        if campaign.terminal:
            raise ProtocolError(
                f"campaign {campaign.id} already {campaign.state}"
            )
        campaign.cancel.cancel(
            f"campaign {campaign.id} cancelled by client request: "
            "in-flight units finished, remaining units not started"
        )
        return {
            "ok": True, "id": campaign.id, "state": campaign.state,
            "resume": (f"repro submit --server {self.host}:{self.port} "
                       f"--resume {campaign.id}"),
        }

    # --------------------------------------------------------- client handling

    def _fault_attempt(self, site: str, key: str) -> int:
        """Attempt number of the next (site, key) decision: each check is
        one attempt, so a transient server-side fault (max_fires=1) fires
        on the first request and heals on the client's retry."""
        attempt = self._fault_attempts.get((site, key), 0)
        self._fault_attempts[(site, key)] = attempt + 1
        return attempt

    def _frame_bytes(self, payload: dict, key: str) -> bytes:
        """Encode one response line, subject to the wire chaos sites:
        ``frame`` garbles the line (newline framing kept, bytes ruined),
        ``conn`` raises :class:`_DropConnection` carrying the partial
        frame the client will see before the socket closes."""
        line = encode_line(payload)
        if self.faults.enabled:
            if self.faults.frame_site(key, self._fault_attempt("frame", key)):
                line = b"\xff\x00 injected garbled frame \xf7\n"
            if self.faults.conn_site(key, self._fault_attempt("conn", key)):
                raise _DropConnection(line[: max(1, len(line) // 2)])
        return line

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = protocol.decode_line(line)
                op = request.get("op")
                if op == "ping":
                    writer.write(self._frame_bytes(
                        {"ok": True, "format": SERVER_FORMAT}, "ping"
                    ))
                elif op == "submit":
                    writer.write(self._frame_bytes(self._op_submit(request),
                                                   "submit"))
                elif op == "status":
                    writer.write(self._frame_bytes(self._op_status(request),
                                                   "status"))
                elif op == "cancel":
                    writer.write(self._frame_bytes(self._op_cancel(request),
                                                   "cancel"))
                elif op == "tail":
                    await self._op_tail(request, writer)
                else:
                    raise ProtocolError(f"unknown op {op!r}")
            except ProtocolError as err:
                writer.write(encode_line({"ok": False, "error": str(err)}))
            except _DropConnection as drop:
                # injected mid-frame connection drop: flush the partial
                # frame so the client observes exactly a torn response
                writer.write(drop.partial)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _op_tail(self, request: dict,
                       writer: asyncio.StreamWriter) -> None:
        campaign = self._get(request.get("id"))
        tail_key = f"tail:{campaign.id}"
        queue = BoundedTailQueue(self.tail_buffer)
        campaign.subscribers.append(queue)
        try:
            if (self.faults.enabled and self.faults.slow_client_site(
                    tail_key, self._fault_attempt("slow_client", tail_key))):
                # a stalled subscriber: records pile into (and overflow)
                # the bounded queue while this client reads nothing
                await asyncio.sleep(self.faults.plan.stall_s)
            try:
                writer.write(self._frame_bytes(
                    {"ok": True, "id": campaign.id}, tail_key
                ))
                # let fan-out callbacks already scheduled on the loop land,
                # so the replay below is complete up to "now"
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                replayed = list(campaign.records)
                seen = set()
                for record in replayed:
                    seen.add(record.get("seq"))
                    writer.write(self._frame_bytes({"record": record},
                                                   tail_key))
                await writer.drain()
                finished = campaign.terminal
                while not finished:
                    record = await queue.get()
                    if record is None:
                        break
                    if record.get("seq") in seen:
                        continue
                    writer.write(self._frame_bytes({"record": record},
                                                   tail_key))
                    await writer.drain()
                writer.write(encode_line({
                    "end": True,
                    "state": campaign.state,
                    "exit": campaign.exit_code,
                    "resume": self._resume_hint(campaign),
                    # this subscriber's queue evictions (its own gaps) and
                    # replay-buffer evictions (gaps every late tail shares)
                    "dropped": queue.dropped,
                    "replay_dropped": campaign.records_dropped,
                }))
            except _DropConnection as drop:
                writer.write(drop.partial)
                await writer.drain()
        finally:
            if queue in campaign.subscribers:
                campaign.subscribers.remove(queue)


# ---------------------------------------------------------------------------
# embedding helpers (tests, CLI)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a background thread (tests, smoke scripts)."""

    def __init__(self, server: CampaignServer,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=120)


def serve_in_thread(root: str, host: str = "127.0.0.1", port: int = 0,
                    max_concurrent: int = 2,
                    watchdog_s: Optional[float] = None,
                    restart_budget: int = 2,
                    tail_buffer: int = DEFAULT_TAIL_BUFFER,
                    fault_plan=None) -> ServerHandle:
    """Start a :class:`CampaignServer` on a fresh event loop in a daemon
    thread; returns once the socket is bound."""
    ready = threading.Event()
    holder: dict = {}

    def main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = CampaignServer(root, host=host, port=port,
                                max_concurrent=max_concurrent,
                                watchdog_s=watchdog_s,
                                restart_budget=restart_budget,
                                tail_buffer=tail_buffer,
                                fault_plan=fault_plan)
        loop.run_until_complete(server.start())
        holder["server"] = server
        holder["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=main, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(timeout=60):
        raise RuntimeError("campaign server failed to start within 60s")
    return ServerHandle(holder["server"], holder["loop"], thread)
