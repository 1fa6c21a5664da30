"""Span tracer that times the program's layers from outside.

The tracer replaces functions and methods of the ``repro`` package with
timing wrappers for the lifetime of one traced repetition, so nothing
under ``src/`` needs to know it is being measured.  Each wrapper is
installed where its caller looks the name up: ``repro.sim.batch`` binds
``run_forked`` at import time, so that binding is replaced as well as the
one in ``repro.sim.fork``; methods are replaced on their class.

Spans (name, start, end, parent, job) are kept in memory and written out
as JSON lines when the repetition ends.  A span's self time is its
duration minus the time its child spans (same thread) cover.
:func:`layer_metrics` folds the spans and the fork engine's
``CheckpointStore`` counters into the per-layer metrics the benchmark
reports.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "job", "child", "info")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 job: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child = 0.0  # time covered by direct children
        self.info = None

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Seconds not covered by child spans."""
        return self.duration - self.child


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Every ``CheckpointStore`` built while installed; their counters
        #: (forked, spliced, retired runs, replayed instructions) are read
        #: at the end.
        self.checkpoint_stores: List = []
        #: Per job: seconds from its submit to its orchestrator build.
        self.queue_waits: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # Span bookkeeping.
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def job(self, job_id: str, submitted: Optional[float] = None):
        """Tag spans opened on this thread with ``job_id``.

        ``submitted`` (``time.time()``, default now) starts the job's
        queue wait, which ends when its orchestrator is built.
        """
        previous = getattr(self._local, "job", None)
        self._local.job = {"id": job_id, "submitted": submitted or time.time(),
                           "built": False}
        try:
            yield
        finally:
            self._local.job = previous

    def _job(self) -> Optional[dict]:
        return getattr(self._local, "job", None)

    def _wrap(self, original: Callable, name: str,
              info: Optional[Callable] = None,
              skip: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = tracer._job()
            span = Span(name, clock(), parent,
                        job["id"] if job is not None else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.duration
                with tracer._lock:
                    tracer.spans.append(span)
            if info is not None:
                span.info = info(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def patch(self, target: str, name: str, **hooks) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in a span."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, **hooks))
        self._undo.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def engine_counts(self) -> Optional[Dict[str, int]]:
        """The fork engine's counters summed over the checkpoint stores
        built while installed; ``None`` when none was in reach (a daemon
        in another process builds its own)."""
        stores = self.checkpoint_stores
        if not stores:
            return None
        return {
            "forked_runs": sum(store.forked_runs for store in stores),
            "spliced_runs": sum(store.spliced_runs for store in stores),
            "retired_runs": sum(store.batch_retired_runs for store in stores),
            "replayed_instr": sum(store.replayed_instructions
                                  for store in stores),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines (parents by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": (index.get(id(span.parent))
                               if span.parent is not None else None),
                    "job": span.job,
                }) + "\n")

    # ------------------------------------------------------------------
    # The layer boundaries this benchmark measures.
    # ------------------------------------------------------------------
    def install(self, counters_only: bool = False) -> None:
        """Wrap every layer boundary of the campaign pipeline.

        ``counters_only`` wraps just the checkpoint-store builder (a few
        calls per campaign), so an untimed repetition can still report the
        fork engine's deterministic counters.
        """
        from repro.sim import Outcome

        def store_info(result, *args, **kwargs):
            self.checkpoint_stores.append(result)

        self.patch("repro.core.app:build_checkpoint_store",
                   "sim.fork.checkpoint", info=store_info)
        if counters_only:
            return

        def fork_info(result, *args, **kwargs):
            return (result.outcome == Outcome.HANG, result.executed)

        def append_info(result, store, app, mode, errors, records):
            return sum(len(json.dumps(record.to_json(), sort_keys=True,
                                      separators=(",", ":"))) + 1
                       for record in records)

        def golden_cached(app, seed=0):
            return seed in app._goldens

        self.patch("repro.core.app:compile_source", "compiler.compile")
        self.patch("repro.compiler.passes:ControlTaggingPass.run",
                   "compiler.compile")
        for module in ("repro.sim.machine", "repro.sim.fork",
                       "repro.sim.batch"):
            self.patch(f"{module}:decode_program", "sim.decode")
        self.patch("repro.core.app:ErrorTolerantApp.golden",
                   "core.app.golden", skip=golden_cached)
        for module in ("repro.sim.fork", "repro.sim.batch"):
            self.patch(f"{module}:run_forked", "sim.fork.run",
                       info=fork_info)
        self.patch("repro.sim.batch:run_batched", "sim.batch.run",
                   info=lambda result, machine, plans, *rest: len(plans))
        self.patch("repro.exec.base:plan_injections", "sim.faults.plan")
        self.patch("repro.core.app:ErrorTolerantApp.score_run",
                   "fidelity.score")
        self.patch("repro.exec.local:make_records", "exec.run",
                   info=lambda result, app, config, tasks: len(tasks))
        self.patch("repro.core.store:ShardStore.append_records",
                   "core.store.append", info=append_info)
        self.patch("repro.core.store:ShardStore.load_records",
                   "core.store.load")
        self.patch("repro.experiments.sweep:SweepOrchestrator.run",
                   "experiments.sweep",
                   info=lambda report, *args: report.cells_total)
        self.patch("repro.service.client:ServiceClient._request",
                   "service.http")
        self._patch_jobs()

    def _patch_jobs(self) -> None:
        """Tag each daemon job's lane thread with the job and time it;
        end every job's queue wait at its orchestrator build."""
        from repro import api
        from repro.service import daemon

        tracer = self
        run_job = daemon.CampaignService.__dict__["_run_job"]
        timed_run_job = self._wrap(run_job, "service.job")

        def traced_run_job(service, job):
            with tracer.job(job.key[:12], job.submitted):
                return timed_run_job(service, job)

        build = api.build_orchestrator

        def traced_build(*args, **kwargs):
            job = tracer._job()
            if job is not None and not job["built"]:
                job["built"] = True
                tracer.queue_waits.append(time.time() - job["submitted"])
            return build(*args, **kwargs)

        daemon.CampaignService._run_job = traced_run_job
        api.build_orchestrator = traced_build
        self._undo += [(daemon.CampaignService, "_run_job", run_job),
                       (api, "build_orchestrator", build)]


def _sum(spans: List[Span], attr: str = "self_time") -> float:
    return sum(getattr(span, attr) for span in spans)


def layer_metrics(tracer: Tracer, wall_s: float, lanes: int,
                  job_s: Sequence[float]) -> Dict:
    """Per-layer metrics from one traced repetition.

    ``job_s`` holds the daemon jobs' ``finished - submitted`` durations
    from their status payloads; ``lanes`` is the daemon's lane count.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    engine = tracer.engine_counts() or dict.fromkeys(
        ("forked_runs", "spliced_runs", "retired_runs", "replayed_instr"), 0)
    forked, retired = engine["forked_runs"], engine["retired_runs"]
    walks = spans("sim.batch.run")
    batch_lanes = sum(span.info for span in walks)
    fork_runs = spans("sim.fork.run")
    hangs = [span for span in fork_runs if span.info[0]]
    retired_replays = [span for span in fork_runs
                       if span.parent is not None
                       and span.parent.name == "sim.batch.run"]
    exec_calls = spans("exec.run")
    lane_time = _sum(spans("service.job"), "duration")
    return {
        "compiler.compile_s": _sum(spans("compiler.compile")),
        "sim.decode.decode_s": _sum(spans("sim.decode")),
        "core.app.golden_s": _sum(spans("core.app.golden")),
        "core.app.golden_runs": len(spans("core.app.golden")),
        "sim.fork.checkpoint_s": _sum(spans("sim.fork.checkpoint")),
        "sim.fork.run_s": _sum(fork_runs),
        "sim.fork.runs": forked,
        "sim.fork.splice_ratio": (engine["spliced_runs"] / forked
                                  if forked else 0.0),
        "sim.fork.replayed_minstr": engine["replayed_instr"] / 1e6,
        "sim.batch.self_s": _sum(walks),
        "sim.batch.walks": len(walks),
        "sim.batch.lanes_per_walk": (batch_lanes / len(walks)
                                     if walks else 0.0),
        "sim.batch.retired_runs": retired,
        "sim.batch.retire_ratio": (retired / batch_lanes
                                   if batch_lanes else 0.0),
        "sim.batch.retired_replay_s": _sum(retired_replays),
        "sim.hang.runs": len(hangs),
        "sim.hang.s": _sum(hangs, "duration"),
        "sim.hang.minstr": sum(span.info[1] for span in hangs) / 1e6,
        "sim.faults.plan_s": _sum(spans("sim.faults.plan")),
        "fidelity.score_s": _sum(spans("fidelity.score")),
        "exec.run_s": _sum(exec_calls),
        "exec.calls": len(exec_calls),
        "exec.tasks_per_call": (sum(span.info for span in exec_calls)
                                / len(exec_calls) if exec_calls else 0.0),
        "core.store.append_s": _sum(spans("core.store.append")),
        "core.store.load_s": _sum(spans("core.store.load")),
        "core.store.bytes_written": sum(span.info for span
                                        in spans("core.store.append")),
        "experiments.sweep.self_s": _sum(spans("experiments.sweep")),
        "experiments.sweep.cells": sum(span.info for span
                                       in spans("experiments.sweep")),
        "service.http_s": _sum(spans("service.http"), "duration"),
        "service.requests": len(spans("service.http")),
        "service.queue_wait_s": (statistics.median(tracer.queue_waits)
                                 if tracer.queue_waits else 0.0),
        "service.job_s": statistics.median(job_s) if job_s else 0.0,
        "service.lane_busy_frac": lane_time / (lanes * wall_s),
    }
