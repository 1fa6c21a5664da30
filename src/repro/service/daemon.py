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
the worker fleet, or, with no fleet, across one local process pool that
every lane shares (see below).

A submission is planned against its store before it is journalled or
queued (:meth:`~repro.experiments.sweep.SweepOrchestrator.cached_report`,
one read off the event loop).  When every cell of the spec is already
complete, the job finishes in the POST itself: ``submit`` then
``finish`` journalled in one fsynced write and answered 200 ``complete``
with ``lane: null``, 0 runs executed and 0 executors started.  It takes
no lane, no store lock and no flock: a complete cell is never written
again, so reading it beside a writer is safe.  Every other spec has its
``submit`` journalled, then is queued.

Jobs are :class:`~repro.service.journal.Job` records, the same class a
local :func:`repro.api.submit` returns.  Every job transition is
journalled to ``<root>/jobs.jsonl``
(:class:`~repro.service.journal.JobJournal`); on startup the daemon
adopts the jobs the journal replay folds, restoring finished jobs for
status queries and re-enqueueing interrupted ones, which resume from
their partial shard stores via the orchestrator's missing-index
planning.

Workers dial in: a ``python -m repro worker --register <url>`` process
re-POSTs its address to ``/v1/workers`` every few seconds, and the
daemon treats addresses heard from within ``worker_ttl`` seconds as the
live fleet.  Each job snapshots the live fleet at start and leases
chunks to whichever worker is idle (the socket executor's shared chunk
queue is the work-stealing mechanism); workers that register mid-job
join at the next chunk boundary via the executor's ``fleet_source``
hook, and workers that die mid-chunk have their leases requeued by the
socket liveness layer.  A job that loses its whole fleet runs the rest
locally; workers that register after that serve the next job.

Jobs without a fleet run on the daemon's local process pool: one pool
of ``usable_cpus()`` workers that lives as long as :meth:`serve` and
that every lane's jobs borrow, so simulation never competes with the
event loop for the interpreter lock.  Its workers run ``POOL_NICE``
steps below the daemon's CPU priority, so the event loop and the lanes
preempt job work and cached answers stay fast beside running jobs.  It
is forked before the listener is bound and before any lane thread
starts; its workers build and warm each application on first use and
keep it warm for later jobs (:func:`~repro.apps.registry.cached_app`);
what a job warms in the daemon itself (a socket or 1-CPU serial job)
comes from the daemon's own cache of that kind and stays warm too.
A worker that dies fails the jobs running on the pool, and the next job
gets a fresh pool.  Stopping the daemon cancels the pool's queued runs
and reaps its workers; an interrupted job keeps ``start`` as its last
journal event, so the next daemon on the root resumes it.

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
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from ..core import MissingCellError, ShardStore
from ..core.campaign import usable_cpus
from ..exec import PoolExecutor, SocketExecutor, parse_worker_address
from ..exec.local import start_pool, stop_pool
from .http import HttpError, Request, Response, read_request, split_path
from .journal import JOURNAL_FILENAME, Job, JobJournal
from .spec import CampaignSpec

#: Seconds a worker stays in the live fleet after its last heartbeat.
DEFAULT_WORKER_TTL = 30.0

#: Progress lines retained per job (a ring buffer; status reporting only).
PROGRESS_TAIL = 50

#: How far the local pool's workers lower their CPU priority (``os.nice``
#: step), so the event loop and lane threads preempt job work and cached
#: answers stay fast while jobs run.
POOL_NICE = 10


def default_lanes() -> int:
    """Default scheduler width: one lane per usable CPU, capped at four.

    The cap keeps a laptop-sized default; operators with wide machines
    and disjoint-store workloads raise it with ``serve --lanes N``.
    """
    return max(1, min(4, usable_cpus()))


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


class CampaignService:
    """The campaign daemon: HTTP front end + concurrent-lane scheduler.

    ``root`` is the cache root; each distinct ``store_key`` gets a shard
    store under ``root/stores/`` and job transitions are journalled to
    ``root/jobs.jsonl``.  The job table maps cache keys to
    :class:`~repro.service.journal.Job` records: a submit creates one, a
    restart adopts the ones the journal replay folds, and a lane — or,
    for a fully cached spec, the submit itself — finishes one with
    :meth:`Job.finish` on the sweep's report.  ``lanes`` sets
    the scheduler width (how many jobs may run at once; same-store jobs
    still serialize on the store locks).  ``execution`` carries default
    execution options for every job (engine, chunk size, worker secret,
    ...) — never record-determining parameters, which come from each
    job's spec.
    Jobs without a worker fleet share one local process pool of
    ``usable_cpus()`` workers, which :meth:`serve` starts and stops; a
    job's pool executor borrows it rather than starting its own.
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
        # The local pool every lane's jobs borrow (see _local_pool).
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._pool_closed = False
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

    def _on_executor(self, executor) -> None:
        """Wire a job's executor to the daemon: a socket executor gets the
        dynamic fleet (workers that register while the job runs join at
        the next chunk boundary), a pool executor borrows the local pool."""
        if isinstance(executor, SocketExecutor):
            executor.fleet_source = self.registry.live
        elif isinstance(executor, PoolExecutor):
            executor.shared_pool = self._local_pool()

    def _local_pool(self) -> ProcessPoolExecutor:
        """The process pool every local job shares, started on first use.

        A pool whose worker died is broken for good: the jobs that were
        using it fail, and the next caller gets a fresh pool.
        """
        with self._pool_lock:
            if self._pool_closed:
                raise RuntimeError("the campaign service is shutting down")
            # ``_broken`` is how ProcessPoolExecutor marks a pool that lost
            # a worker; every later submit to it fails.
            if self._pool is not None and self._pool._broken:
                stop_pool(self._pool)
                self._pool = None
            if self._pool is None:
                self._pool = start_pool(usable_cpus(), nice=POOL_NICE)
            return self._pool

    def _close_local_pool(self) -> None:
        """Stop the local pool: queued runs are cancelled, running ones
        finish, and the workers are reaped."""
        with self._pool_lock:
            self._pool_closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            stop_pool(pool)

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
            on_executor=self._on_executor,
            **self._job_execution(self.registry.live()),
        )
        with store.exclusive_lock():
            try:
                report = orchestrator.run()
            except BrokenProcessPool as exc:
                raise BrokenProcessPool(
                    "a worker of the daemon's process pool died while this "
                    "job ran; the next job gets a fresh pool") from exc
            job.finish(report)

    @staticmethod
    def _finish_event(job: Job) -> tuple:
        """The journal's ``finish`` transition of a finished job."""
        return ("finish", job.key,
                {"state": job.state, "error": job.error,
                 "report": job.report,
                 "executors_started": job.executors_started})

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
                self.journal.record_many([self._finish_event(job)])
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
        """``POST /v1/campaigns``: coalesce, answer from the store, or queue.

        A job that is queued or running, or that completed in this
        process, coalesces (200, its current payload).  Any other job —
        new, restored from the journal, or failed — is planned against
        its store first.  Fully cached, it finishes here: its ``submit``
        and ``finish`` go to the journal in one fsynced write, then it
        answers 200 ``complete``.  Otherwise its ``submit`` is journalled
        (fsynced) and it is queued (202).  A planning error queues it
        too, so it fails in its lane with the error a run reports.
        """
        if self._draining:
            raise HttpError(503, "service is draining; "
                                 "not accepting new campaigns")
        try:
            spec = CampaignSpec.from_json(request.json())
        except ValueError as exc:
            raise HttpError(400, f"invalid campaign spec: {exc}") from exc
        job = self.jobs.get(spec.cache_key)
        if job is not None and (job.state in ("queued", "running")
                                or (job.state == "complete"
                                    and not job.restored)):
            # Byte-identical resubmission of a live job or of one this
            # process completed: coalesce onto it.
            return Response.json(job.to_json(), status=200)
        if job is None:
            job = self.jobs[spec.cache_key] = Job(spec)
        else:
            # Failed, or restored from the journal: this process has not
            # seen it complete, so plan it again through the cache.
            job.requeue()
        try:
            report = await asyncio.to_thread(
                self._read_orchestrator(spec).cached_report)
        except Exception:  # noqa: BLE001 — the lane plans again, reports it
            report = None
        submitted = ("submit", job.key, {"spec": spec.to_json()})
        if report is None:
            self.journal.record_many([submitted])
            await self._queue.put(job)
            return Response.json(job.to_json(), status=202)
        job.finish(report)
        self.journal.record_many([submitted, self._finish_event(job)])
        return Response.json(job.to_json(), status=200)

    async def _job_status(self, job: Job, request: Request) -> Response:
        payload = job.to_json()
        if request.query.get("cells"):
            orchestrator = self._read_orchestrator(job.spec)
            statuses = await asyncio.to_thread(orchestrator.status)
            payload["cells"] = [status.to_json() for status in statuses]
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
        for job in replay.jobs:
            if job.key in self.jobs:
                continue  # an earlier serve() in this process restored it
            job.restored = True
            job.lane = None
            self.jobs[job.key] = job
            if job.interrupted:
                job.state = "queued"
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
        On the way out the lanes are cancelled and the local pool is
        stopped, so no pool worker outlives the loop.
        """
        import sys

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._draining = False
        # Loop-bound scheduler state lives here, not in __init__.
        self._queue = asyncio.Queue()
        self._store_locks = {}
        self._lane_busy = [None] * self.lanes
        self._pool_closed = False
        lanes: List[asyncio.Task] = []
        try:
            if usable_cpus() > 1:
                # Fork the pool's workers now, before the listener or any
                # lane thread exists, so they inherit neither.
                self._local_pool()
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
            async with server:
                await self._stop.wait()
        finally:
            for task in lanes:
                task.cancel()
            self._close_local_pool()

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
