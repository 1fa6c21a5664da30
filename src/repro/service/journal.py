"""`JobJournal`: the campaign daemon's crash-safe job ledger.

The content-addressed shard stores already make campaign *results*
durable, but before this module the daemon's job table lived only in
memory: a restart forgot every submitted and running job.  The journal
closes that gap with the same append-only JSONL idiom the
:class:`~repro.core.store.ShardStore` uses — whole-line appends, fsynced,
writer-owned repair of a torn trailing line
(:func:`~repro.core.store.repair_jsonl`), torn-tail-tolerant reads
(:func:`~repro.core.store.read_jsonl`).

One line per job *transition*, in the canonical compact JSON encoding::

    {"event":"submit","job":<cache_key>,"spec":{...},"time":t}
    {"event":"start","job":<cache_key>,"lane":n,"time":t}
    {"event":"finish","job":<cache_key>,"state":"complete"|"failed",
     "report":{...},"executors_started":n,"error":null|"...","time":t}
    {"event":"fail","job":<cache_key>,"error":"...","time":t}

``submit`` carries the full :class:`CampaignSpec` (its canonical
``to_json`` form), so replay needs nothing but the journal.  Replay
(:meth:`JobJournal.replay`) folds each job's events in order into a
:class:`Job` — the same record the daemon schedules and a local
:func:`repro.api.submit` returns: jobs whose last event is
``finish``/``fail`` are *restored* —
status queries keep answering for them across restarts — while jobs
whose last event is ``submit``/``start`` were interrupted and are
*resumed*: the daemon re-enqueues them, and the sweep orchestrator's
missing-index planning picks each one up exactly where its partial shard
store left off.  Lines that do not parse, or whose spec a newer (or
older) daemon refuses, are counted and skipped — a journal never bricks
a restart.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core.store import read_jsonl, repair_jsonl
from .spec import CampaignSpec, canonical_json

#: The journal's filename under the daemon's cache root.
JOURNAL_FILENAME = "jobs.jsonl"

#: Job lifecycle transitions the journal records.
EVENT_KINDS = ("submit", "start", "finish", "fail")


class Job:
    """One submitted campaign: spec, lifecycle state and status payload.

    The one job record: the daemon schedules it, the journal replay
    folds events into it, and a local :func:`repro.api.submit` runs one
    and returns its :meth:`to_json`, so every surface answers the same
    payload.
    """

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
        #: Executor backends the job started: 0 for cache hits, 1 otherwise.
        self.executors_started = 0
        #: Scheduler lane the job last ran on (``None`` until started).
        self.lane: Optional[int] = None
        #: True when this job's state came from a journal replay rather
        #: than a live run in this daemon process.
        self.restored = False
        self.progress: List[str] = []

    @property
    def interrupted(self) -> bool:
        """True when the job never reached a terminal state."""
        return self.state not in ("complete", "failed")

    def requeue(self) -> None:
        """Return the job to the queue for a re-run.

        Used when a journal-restored terminal job is resubmitted: the
        re-run flows through the content-addressed cache, so a genuinely
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

    def finish(self, report) -> None:
        """Take the outcome of a :class:`~repro.experiments.sweep.SweepReport`.

        A job is ``complete`` when every planned cell is.
        """
        complete = sum(1 for status in report.statuses if status.complete)
        incomplete = report.cells_total - complete
        self.state = "failed" if incomplete else "complete"
        self.error = (f"{incomplete} cell(s) incomplete after the sweep"
                      if incomplete else None)
        self.report = {
            "cells_total": report.cells_total,
            "cells_complete": complete,
            "runs_executed": report.runs_executed,
            "runs_reused": report.runs_reused,
            "runs_discarded": report.runs_discarded,
            "fleet": report.fleet,
        }
        self.executors_started = report.executors_started
        self.finished = time.time()

    def to_json(self) -> Dict:
        """The job-status payload every surface serves."""
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


@dataclass
class JournalReplay:
    """Everything a daemon restart learns from its journal."""

    #: Folded jobs in first-submission order.
    jobs: List[Job] = field(default_factory=list)
    #: Total journal lines read (including skipped ones).
    events: int = 0
    #: Lines dropped: unparseable events, refused specs, or transitions
    #: for jobs whose submit line was itself dropped.
    skipped: int = 0


class JobJournal:
    """Append-only JSONL journal of job transitions, keyed by cache key.

    Thread-safe: the daemon appends from scheduler-lane threads and the
    HTTP submit path concurrently.  Every append repairs a torn trailing
    line first (the writer owns the file) and fsyncs, so the journal
    survives a SIGKILL at any byte offset with at most the in-flight
    line lost — and that line's transition is recoverable: a lost
    ``start`` replays as a queued job, a lost ``finish`` replays as an
    interrupted job whose re-run is a pure cache hit.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._events: Optional[int] = None

    def record(self, event: str, job_key: str, **fields) -> None:
        """Append one transition line (fsynced) for ``job_key``.

        ``fields`` are event-specific extras (``spec`` for submits,
        ``lane`` for starts, ``state``/``report``/``error`` for
        terminals); ``time`` is stamped here.
        """
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown journal event {event!r}; "
                             f"expected one of {EVENT_KINDS}")
        payload = {"event": event, "job": job_key,
                   "time": round(time.time(), 3), **fields}
        line = canonical_json(payload) + "\n"
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            repair_jsonl(self.path)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            if self._events is not None:
                self._events += 1

    def replay(self) -> JournalReplay:
        """Fold the journal into per-job last states, oldest submit first.

        Events fold straight into :class:`Job` records.  A later
        ``submit`` for an already-terminal job (the daemon's
        re-verification path for journal-restored jobs) resets that job
        with :meth:`Job.requeue`, keeping its original position.
        """
        replay = JournalReplay()
        jobs: Dict[str, Job] = {}
        with self._lock:
            lines = read_jsonl(self.path)
        for data in lines:
            replay.events += 1
            if not isinstance(data, dict):
                replay.skipped += 1
                continue
            event, key = data.get("event"), data.get("job")
            if event == "submit":
                try:
                    spec = CampaignSpec.from_json(data.get("spec") or {})
                except ValueError:
                    replay.skipped += 1
                    continue
                if spec.cache_key != key:
                    replay.skipped += 1  # journal edited or key drifted
                    continue
                job = jobs.get(key)
                if job is None:
                    job = jobs[key] = Job(spec)
                    replay.jobs.append(job)
                else:
                    job.requeue()  # re-verification: back to the queue
                job.submitted = data.get("time") or job.submitted
            elif event in ("start", "finish", "fail"):
                job = jobs.get(key)
                if job is None:
                    replay.skipped += 1  # transition without a submit
                    continue
                if event == "start":
                    job.state = "running"
                    job.lane = data.get("lane")
                    continue
                if event == "finish":
                    job.state = data.get("state", "complete")
                    job.executors_started = data.get("executors_started", 0)
                    job.error = data.get("error")
                else:
                    job.state = "failed"
                    job.error = data.get("error") or "unknown failure"
                job.report = data.get("report") or {}
                job.finished = data.get("time")
            else:
                replay.skipped += 1
        self._events = replay.events
        return replay

    def stats(self) -> Dict:
        """Journal health for ``/v1/health``: path and event count.

        The count is cached after the first full read (startup replay)
        and maintained by appends, so health probes never re-read the
        file.
        """
        if self._events is None:
            with self._lock:
                self._events = len(read_jsonl(self.path))
        return {"path": str(self.path), "events": self._events}
