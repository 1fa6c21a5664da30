"""`CampaignService`: the long-running asyncio campaign daemon.

``python -m repro serve`` runs one of these.  The daemon accepts
:class:`~repro.service.spec.CampaignSpec` submissions from many
concurrent HTTP clients, schedules their cells across the registered
socket-worker fleet, and serves every record already present under its
store root straight from disk — the shard store is a content-addressed
cache, so resubmitting a spec (or submitting one that overlaps a
previous campaign's cells) costs zero executor invocations for the
cells that already exist.

Scheduling model
----------------
Jobs are identified by their spec's ``cache_key`` — a byte-identical
resubmission coalesces onto the existing job instead of queueing again —
and filed into a shard store chosen by the spec's ``store_key`` (the
hash of its record-determining parameters), so campaigns that can share
records do.  ``lanes`` worker-lane tasks (``serve --lanes N``) drain the
job queue concurrently; before running, each lane takes the job's
per-``store_key`` asyncio lock and then the store's cross-process
advisory lock file (:meth:`~repro.core.store.ShardStore.exclusive_lock`),
so two jobs — or two daemons sharing a root — that touch the same store
still never compute a cell twice, while jobs with distinct store keys
run genuinely in parallel.  The fan-out *inside* a job happens across
the worker fleet, exactly as before.

Every job transition is journalled to ``<root>/jobs.jsonl``
(:class:`~repro.service.journal.JobJournal`); on startup the daemon
replays the journal, restoring finished jobs for status queries and
re-enqueueing interrupted ones, which resume from their partial shard
stores via the orchestrator's missing-index planning.

Workers dial in: a ``python -m repro worker --register <url>`` process
re-POSTs its address to ``/v1/workers`` every few seconds, and the
daemon treats addresses heard from within ``worker_ttl`` seconds as the
live fleet.  Each job snapshots the live fleet at start and leases
chunks to whichever worker is idle (the socket executor's shared chunk
queue is the work-stealing mechanism); workers that register mid-job
join at the next chunk boundary via the executor's ``fleet_source``
hook, and workers that die mid-chunk have their leases requeued by the
PR 7 liveness layer.

HTTP API (all JSON; see ``docs/ARCHITECTURE.md`` for the full table)::

    POST /v1/campaigns                submit a CampaignSpec
    GET  /v1/campaigns                list jobs
    GET  /v1/campaigns/<key>          job status (+ per-cell ?cells=1)
    GET  /v1/campaigns/<key>/results  records of one cell (cache read)
    GET  /v1/campaigns/<key>/tables   rendered tables
    GET  /v1/campaigns/<key>/figures  rendered figures
    POST /v1/workers                  register/heartbeat a worker
    GET  /v1/workers                  live fleet
    GET  /v1/health                   liveness probe (lanes, queue, journal)
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from ..core import MissingCellError, ShardStore
from ..exec import SocketExecutor, parse_worker_address
from .http import HttpError, Request, Response, read_request, split_path
from .journal import JOURNAL_FILENAME, JobJournal, ReplayedJob
from .spec import CampaignSpec

#: Seconds a worker stays in the live fleet after its last heartbeat.
DEFAULT_WORKER_TTL = 30.0

#: Progress lines retained per job (a ring buffer; status reporting only).
PROGRESS_TAIL = 50


def default_lanes() -> int:
    """Default scheduler width: one lane per core, capped at four.

    The cap keeps a laptop-sized default; operators with wide machines
    and disjoint-store workloads raise it with ``serve --lanes N``.
    """
    return max(1, min(4, os.cpu_count() or 1))


class WorkerRegistry:
    """Addresses of workers that dialled in, aged by their heartbeats.

    Thread-safe: handlers register from the event loop while running
    jobs read the live fleet from the scheduler lanes' executor threads.
    """

    def __init__(self, ttl: float = DEFAULT_WORKER_TTL) -> None:
        self.ttl = ttl
        self._lock = threading.Lock()
        self._last_seen: Dict[str, float] = {}

    def register(self, address: str) -> None:
        """Record one worker heartbeat (registration == first heartbeat)."""
        parse_worker_address(address)  # malformed addresses fail fast
        with self._lock:
            self._last_seen[address] = time.monotonic()

    def forget(self, address: str) -> None:
        """Drop a worker immediately (orderly shutdown)."""
        with self._lock:
            self._last_seen.pop(address, None)

    def live(self) -> List[str]:
        """Addresses heard from within the TTL, expired ones pruned.

        The horizon is computed and the expired entries deleted entirely
        under the lock, in place — concurrent ``register`` calls between
        a snapshot and a rebind can never be lost, and callers iterating
        a previous ``live()`` result hold their own list.
        """
        with self._lock:
            horizon = time.monotonic() - self.ttl
            expired = [address for address, seen in self._last_seen.items()
                       if seen < horizon]
            for address in expired:
                del self._last_seen[address]
            return sorted(self._last_seen)

    def snapshot(self) -> List[Dict]:
        """Fleet view for the API: address + seconds since last heartbeat."""
        now = time.monotonic()
        with self._lock:
            return [{"address": address, "age": round(now - seen, 3)}
                    for address, seen in sorted(self._last_seen.items())]


class Job:
    """One submitted campaign: spec, lifecycle state and counters."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.key = spec.cache_key
        self.state = "queued"  # queued -> running -> complete | failed
        self.error: Optional[str] = None
        self.submitted = time.time()
        self.finished: Optional[float] = None
        #: ``SweepReport`` counters once the job ran.  ``runs_executed``
        #: is the cache-semantics contract: a fully cached job completes
        #: with 0 here and 0 ``executors_started``.
        self.report: Dict = {}
        #: Executor backends the job actually started — 0 for cache hits.
        self.executors_started = 0
        #: Scheduler lane the job last ran on (``None`` until started).
        self.lane: Optional[int] = None
        #: True when this job's state came from a journal replay rather
        #: than a live run in this daemon process.
        self.restored = False
        self.progress: List[str] = []

    @classmethod
    def from_replay(cls, entry: ReplayedJob) -> "Job":
        """Rebuild a job from its folded journal state (marked restored)."""
        job = cls(entry.spec)
        job.state = "queued" if entry.interrupted else entry.state
        job.submitted = entry.submitted or job.submitted
        job.finished = entry.finished
        job.error = entry.error
        job.report = dict(entry.report)
        job.executors_started = entry.executors_started
        job.lane = None
        job.restored = True
        return job

    def reset_for_requeue(self) -> None:
        """Return a restored terminal job to the queue for a re-run.

        Used when a journal-restored job is resubmitted: the re-run
        flows through the content-addressed cache, so a genuinely
        finished job completes again with 0 runs and 0 executors —
        re-verification is free, and an incomplete store gets healed.
        """
        self.state = "queued"
        self.error = None
        self.report = {}
        self.executors_started = 0
        self.finished = None
        self.lane = None
        self.restored = False
        self.submitted = time.time()

    def to_json(self) -> Dict:
        """Status payload for the HTTP API."""
        return {
            "job": self.key,
            "store": self.spec.store_key,
            "state": self.state,
            "error": self.error,
            "spec": self.spec.to_json(),
            "report": self.report,
            "executors_started": self.executors_started,
            "lane": self.lane,
            "restored": self.restored,
            "submitted": self.submitted,
            "finished": self.finished,
            "progress": self.progress[-10:],
        }


class CampaignService:
    """The campaign daemon: HTTP front end + concurrent-lane scheduler.

    ``root`` is the cache root; each distinct ``store_key`` gets a shard
    store under ``root/stores/`` and job transitions are journalled to
    ``root/jobs.jsonl``.  ``lanes`` sets the scheduler width (how many
    jobs may run at once; same-store jobs still serialize on the store
    locks).  ``execution`` carries default execution options for every
    job (engine, chunk size, worker secret, ...) — never
    record-determining parameters, which come from each job's spec.
    """

    def __init__(self, root, *, worker_ttl: float = DEFAULT_WORKER_TTL,
                 secret: Optional[str] = None,
                 execution: Optional[Dict] = None,
                 lanes: Optional[int] = None) -> None:
        from pathlib import Path

        self.root = Path(root)
        self.registry = WorkerRegistry(ttl=worker_ttl)
        self.secret = secret
        self.execution = dict(execution or {})
        self.lanes = default_lanes() if lanes is None else int(lanes)
        if self.lanes < 1:
            raise ValueError(f"--lanes must be >= 1, got {self.lanes}")
        self.journal = JobJournal(self.root / JOURNAL_FILENAME)
        self.jobs: Dict[str, Job] = {}
        self.jobs_resumed = 0
        self.jobs_restored = 0
        self.journal_skipped = 0
        # Loop-bound state (queue, locks, lane table) is created inside
        # :meth:`serve` — binding it here would tie it to whatever loop
        # happens to be current at construction time (a py3.9 hazard).
        self._queue: Optional["asyncio.Queue[Job]"] = None
        self._store_locks: Dict[str, asyncio.Lock] = {}
        self._lane_busy: List[Optional[str]] = []
        self._draining = False
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.url: Optional[str] = None

    # ------------------------------------------------------------------
    # Stores: the content-addressed cache.
    # ------------------------------------------------------------------
    def store_for(self, spec: CampaignSpec) -> ShardStore:
        """The shard store all campaigns with this spec's content share."""
        return ShardStore(self.root / "stores" / spec.store_dir,
                          model=spec.model)

    def _store_lock(self, store_key: str) -> asyncio.Lock:
        """This daemon's in-process lock for one store (lazily created)."""
        lock = self._store_locks.get(store_key)
        if lock is None:
            lock = self._store_locks[store_key] = asyncio.Lock()
        return lock

    # ------------------------------------------------------------------
    # Job execution (lane threads).
    # ------------------------------------------------------------------
    def _job_execution(self, fleet: Sequence[str]) -> Dict:
        """Execution options for one job given the current live fleet."""
        execution = dict(self.execution)
        if fleet:
            execution["workers"] = tuple(fleet)
            if self.secret is not None:
                execution.setdefault("worker_secret", self.secret)
        return execution

    def _on_executor(self, job: Job) -> Callable:
        """Hook counting executor start-ups and wiring the dynamic fleet."""

        def _hook(executor) -> None:
            job.executors_started += 1
            if isinstance(executor, SocketExecutor):
                # Workers that register while the job runs join at the
                # next chunk boundary.
                executor.fleet_source = self.registry.live

        return _hook

    def _run_job(self, job: Job) -> None:
        """Run one campaign to completion (blocking; a lane's thread).

        The store's cross-process advisory lock is held for the whole
        sweep: a second daemon sharing this root blocks rather than
        interleaving writes, and on entry the sweep re-plans against
        whatever the previous holder wrote — cells computed while we
        waited become cache hits.
        """
        from ..api import build_orchestrator

        def _progress(message: str) -> None:
            job.progress.append(message)
            del job.progress[:-PROGRESS_TAIL]

        store = self.store_for(job.spec)
        orchestrator = build_orchestrator(
            job.spec, store, progress=_progress,
            on_executor=self._on_executor(job),
            **self._job_execution(self.registry.live()),
        )
        with store.exclusive_lock():
            report = orchestrator.run()
        complete = sum(1 for status in report.statuses if status.complete)
        job.report = {
            "cells_total": report.cells_total,
            "cells_complete": complete,
            "runs_executed": report.runs_executed,
            "runs_reused": report.runs_reused,
            "runs_discarded": report.runs_discarded,
            "fleet": report.fleet,
        }
        job.state = ("complete" if complete == report.cells_total
                     else "failed")
        if job.state == "failed":
            job.error = (f"{report.cells_total - complete} cell(s) "
                         f"incomplete after the sweep")

    async def _lane(self, index: int) -> None:
        """One scheduler lane: drain the queue, one campaign at a time.

        Lanes serialize per store (the asyncio store lock, then the
        store's cross-process flock inside :meth:`_run_job`) so
        overlapping specs never compute one cell twice; jobs on distinct
        stores run in parallel across lanes.  Lock ordering is fixed —
        queue, store asyncio lock, store flock — and each lane holds at
        most one store lock, so lanes cannot deadlock.
        """
        while True:
            job = await self._queue.get()
            self._lane_busy[index] = job.key
            job.state = "running"
            job.lane = index
            job.restored = False
            self.journal.record("start", job.key, lane=index)
            try:
                async with self._store_lock(job.spec.store_key):
                    await asyncio.to_thread(self._run_job, job)
            except Exception as exc:  # noqa: BLE001 — reported to clients
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.progress.append(traceback.format_exc(limit=5))
                job.finished = time.time()
                self.journal.record("fail", job.key, error=job.error)
            else:
                job.finished = time.time()
                self.journal.record(
                    "finish", job.key, state=job.state, error=job.error,
                    report=job.report,
                    executors_started=job.executors_started)
            finally:
                self._lane_busy[index] = None
                self._queue.task_done()

    # ------------------------------------------------------------------
    # HTTP handlers.
    # ------------------------------------------------------------------
    def _job_or_404(self, key: str) -> Job:
        job = self.jobs.get(key)
        if job is None:
            raise HttpError(404, f"unknown campaign job {key!r}")
        return job

    async def _submit(self, request: Request) -> Response:
        if self._draining:
            raise HttpError(503, "service is draining; "
                                 "not accepting new campaigns")
        try:
            spec = CampaignSpec.from_json(request.json())
        except ValueError as exc:
            raise HttpError(400, f"invalid campaign spec: {exc}") from exc
        job = self.jobs.get(spec.cache_key)
        if job is None:
            job = Job(spec)
            self.jobs[job.key] = job
            self.journal.record("submit", job.key, spec=spec.to_json())
            await self._queue.put(job)
            return Response.json(job.to_json(), status=202)
        if job.restored and job.state in ("complete", "failed"):
            # A journal-restored terminal job: this process never ran it,
            # so re-verify through the cache — a truly finished store
            # completes again with 0 runs / 0 executors, an incomplete
            # one is healed by the missing-index resume path.
            job.reset_for_requeue()
            self.journal.record("submit", job.key, spec=spec.to_json())
            await self._queue.put(job)
            return Response.json(job.to_json(), status=202)
        # Byte-identical resubmission: coalesce onto the existing job —
        # already-complete jobs answer straight from the cache.
        return Response.json(job.to_json(), status=200)

    async def _job_status(self, job: Job, request: Request) -> Response:
        payload = job.to_json()
        if request.query.get("cells"):
            orchestrator = self._read_orchestrator(job.spec)
            statuses = await asyncio.to_thread(orchestrator.status)
            payload["cells"] = [
                {
                    "app": status.cell.app_name,
                    "mode": status.cell.mode.value,
                    "errors": status.cell.errors,
                    "done": status.done,
                    "total": status.total,
                    "complete": status.complete,
                }
                for status in statuses
            ]
        return Response.json(payload)

    def _read_orchestrator(self, spec: CampaignSpec):
        """A read-only orchestrator over the spec's store (no executors)."""
        from ..api import build_orchestrator

        return build_orchestrator(spec, self.store_for(spec))

    async def _results(self, job: Job, request: Request) -> Response:
        """One cell's records straight from the shard store (cache read)."""
        from ..sim import ProtectionMode

        store = self.store_for(job.spec)
        try:
            app = request.query["app"]
            mode = ProtectionMode(request.query["mode"])
            errors = int(request.query["errors"])
        except (KeyError, ValueError) as exc:
            raise HttpError(400, f"results need ?app=&mode=&errors= "
                                 f"query parameters: {exc}") from exc
        records = await asyncio.to_thread(store.load_records, app, mode,
                                          errors)
        if not records:
            raise HttpError(404, f"no records for ({app}, {mode.value}, "
                                 f"{errors} errors) in this campaign's store")
        return Response.json({
            "app": app, "mode": mode.value, "errors": errors,
            "records": [record.to_json() for record in records],
        })

    async def _tables(self, job: Job, request: Request) -> Response:
        from ..api import tables

        try:
            numbers = [int(text) for text
                       in request.query.get("tables", "2").split(",")]
            rendered = await asyncio.to_thread(
                tables, self.store_for(job.spec), numbers,
                apps=job.spec.apps)
        except MissingCellError as exc:
            raise HttpError(409, str(exc)) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return Response.text("\n\n".join(table.to_text()
                                         for table in rendered))

    async def _figures(self, job: Job, request: Request) -> Response:
        from ..api import figures

        names = request.query.get("figures")
        try:
            rendered = await asyncio.to_thread(
                figures, self.store_for(job.spec),
                names.split(",") if names else None,
                errors=job.spec.errors)
        except MissingCellError as exc:
            raise HttpError(409, str(exc)) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return Response.text("\n\n".join(figure.to_table()
                                         for figure in rendered))

    def _health_payload(self) -> Dict:
        """Liveness + scheduler observability for ``/v1/health``."""
        busy = [key for key in self._lane_busy if key is not None]
        journal = self.journal.stats()
        journal.update({
            "jobs_resumed": self.jobs_resumed,
            "jobs_restored": self.jobs_restored,
            "skipped": self.journal_skipped,
        })
        return {
            "status": "draining" if self._draining else "ok",
            "jobs": len(self.jobs),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "lanes": {"total": self.lanes, "busy": len(busy), "jobs": busy},
            "journal": journal,
            "workers": self.registry.snapshot(),
        }

    async def _route(self, request: Request) -> Response:
        path = split_path(request.path)
        if path[:1] != ("v1",):
            raise HttpError(404, f"unknown path {request.path!r}")
        tail = path[1:]
        if tail == ("health",):
            return Response.json(self._health_payload())
        if tail == ("workers",):
            if request.method == "POST":
                body = request.json()
                address = str(body.get("address") or "")
                try:
                    if body.get("deregister"):
                        self.registry.forget(address)
                    else:
                        self.registry.register(address)
                except ValueError as exc:
                    raise HttpError(400, str(exc)) from exc
                return Response.json({"workers": self.registry.snapshot(),
                                      "ttl": self.registry.ttl})
            return Response.json({"workers": self.registry.snapshot(),
                                  "ttl": self.registry.ttl})
        if tail == ("campaigns",):
            if request.method == "POST":
                return await self._submit(request)
            return Response.json({"jobs": [job.to_json()
                                           for job in self.jobs.values()]})
        if len(tail) >= 2 and tail[0] == "campaigns":
            job = self._job_or_404(tail[1])
            rest = tail[2:]
            if not rest:
                return await self._job_status(job, request)
            if rest == ("results",):
                return await self._results(job, request)
            if rest == ("tables",):
                return await self._tables(job, request)
            if rest == ("figures",):
                return await self._figures(job, request)
        raise HttpError(404, f"unknown path {request.path!r}")

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection (one request, ``Connection: close``)."""
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                response = await self._route(request)
            except HttpError as exc:
                response = Response.json({"error": str(exc)},
                                         status=exc.status)
            except Exception as exc:  # noqa: BLE001 — must answer something
                response = Response.json(
                    {"error": f"{type(exc).__name__}: {exc}"}, status=500)
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client vanished mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def _replay_journal(self) -> None:
        """Restore the job table from the journal (startup only).

        Finished jobs come back ``restored`` and answer status queries
        from their journalled reports; interrupted jobs (last event
        ``submit``/``start``) are re-enqueued and resume from whatever
        their partial shard stores already hold.
        """
        replay = self.journal.replay()
        self.journal_skipped = replay.skipped
        for entry in replay.jobs:
            if entry.spec.cache_key in self.jobs:
                continue  # an earlier serve() in this process restored it
            job = Job.from_replay(entry)
            self.jobs[job.key] = job
            if entry.interrupted:
                self.jobs_resumed += 1
                await self._queue.put(job)
            else:
                self.jobs_restored += 1

    async def serve(self, host: str = "127.0.0.1", port: int = 8340,
                    banner_stream=None,
                    ready: Optional[threading.Event] = None) -> None:
        """Serve until :meth:`stop` (or task cancellation).

        Prints ``repro-service listening on http://HOST:PORT`` once bound
        — with ``port=0`` the banner (or :attr:`url`) is how callers
        learn the chosen port, mirroring the worker banner contract.
        """
        import sys

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._draining = False
        # Loop-bound scheduler state lives here, not in __init__.
        self._queue = asyncio.Queue()
        self._store_locks = {}
        self._lane_busy = [None] * self.lanes
        await self._replay_journal()
        server = await asyncio.start_server(self._handle, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if ":" in bound_host:
            bound_host = f"[{bound_host}]"
        self.url = f"http://{bound_host}:{bound_port}"
        stream = banner_stream if banner_stream is not None else sys.stdout
        print(f"repro-service listening on {self.url}", file=stream,
              flush=True)
        lanes = [asyncio.create_task(self._lane(index))
                 for index in range(self.lanes)]
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            for task in lanes:
                task.cancel()

    def drain(self) -> None:
        """Stop accepting new campaigns; queued/running jobs keep going.

        Subsequent ``POST /v1/campaigns`` answer 503 and ``/v1/health``
        reports ``status: draining``.  Thread-safe (a bare flag write).
        """
        self._draining = True

    def stop(self) -> None:
        """Ask a running :meth:`serve` loop to shut down (thread-safe)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    def start_in_background(self, host: str = "127.0.0.1",
                            port: int = 0) -> str:
        """Run :meth:`serve` on a daemon thread; returns the base URL.

        The test-suite (and embedding applications) entry point; the CLI
        uses :meth:`serve` directly.  :meth:`shutdown` stops the thread.
        """
        import io

        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                self.serve(host, port, banner_stream=io.StringIO(),
                           ready=ready)),
            daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("campaign service failed to start in 30s")
        return self.url

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop a background service started by :meth:`start_in_background`."""
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
