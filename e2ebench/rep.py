"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so every repetition
starts cold: a fresh store root, a fresh interpreter, nothing warm but
the imports the set-up phase pays for.  Usage::

    python3 e2ebench/rep.py --workload paper-sweep --seed 1 --root DIR \\
        --spawned EPOCH [--trace SPANS.jsonl] [--verify N] [--setup-only]

It prints one JSON object on its last stdout line: the set-up and
workload timings, the per-job latencies, the failures it saw, the digest
of the shard bytes it produced and the deterministic counts behind them,
and (with ``--trace``) the per-layer metrics of :mod:`tracer`.  With
``--setup-only`` it times the set-up alone and prints just that.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from repro.api import CampaignSpec, submit  # noqa: E402
from repro.core import ShardStore  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

#: ``paper-sweep``: the default small grid (94 cells) at this many runs.
PAPER_RUNS = 4
#: ``unprotected-batch``: the unprotected half of the grid (47 cells).
BATCH_RUNS = 6
#: Cached single-cell jobs after a local sweep, in whole passes over its
#: cells: about half a second of sub-millisecond reads, so one moment of
#: host noise does not decide their percentiles.
LOCAL_CACHED_JOBS = 2000
#: ``daemon-mixed``: fresh jobs, each one app, protected, these errors.
DAEMON_FRESH_JOBS = 8
DAEMON_RUNS = 8
DAEMON_ERRORS = (1, 2, 3, 4)
#: After each fresh job its client sends one cached job per subset: each
#: a distinct coverage subset of the now-complete store, so none
#: coalesces onto an earlier job.
DAEMON_CACHED_SUBSETS = ((1,), (2,), (3,), (4,), (1, 2), (3, 4), (1, 2, 3))
DAEMON_LANES = 2
#: Client poll interval, well under the cached-job latency.
POLL_S = 0.01
#: Seconds any one job may take before the client reports it failed.
JOB_TIMEOUT_S = 120.0
#: Iterations of the reference loop, the time one pass takes at the
#: nominal speed all reported times are rescaled to, and the seconds
#: between passes.
REFERENCE_LOOP = 4000
NOMINAL_TICK_S = 0.0005
TICK_PERIOD_S = 0.05
CACHED_TICK_PERIOD_S = 0.01


class Reference:
    """A fixed pure-Python loop, timed every ``TICK_PERIOD_S`` beside the
    workload.

    On a shared host the speed of the same code drifts by tens of
    percent over seconds to minutes.  The loop's mean time over one
    phase of a repetition measures the speed that phase ran at, so
    ``run.py`` can rescale the phase's times to one nominal speed.  The loop
    uses nothing from ``repro``: a faster program does not make it
    faster.
    """

    def __init__(self, period: float = TICK_PERIOD_S) -> None:
        self.period = period
        self.ticks: List[float] = []

    def _tick(self) -> None:
        began = time.perf_counter()
        table: dict = {}
        total = 0
        for index in range(REFERENCE_LOOP):
            table[index & 255] = index
            total += table.get((index * 7) & 255, 0)
        self.ticks.append(time.perf_counter() - began)

    @contextlib.contextmanager
    def sampling(self):
        """Run reference passes on a side thread for the block's span."""
        done = threading.Event()

        def sample() -> None:
            while not done.wait(self.period):
                self._tick()

        thread = threading.Thread(target=sample)
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    def spent(self) -> float:
        """Seconds spent in reference passes so far."""
        return sum(self.ticks)

    def slowdown(self) -> float:
        """Mean pass time relative to the nominal one (>1: slower); 1
        when nothing was sampled."""
        if not self.ticks:
            return 1.0
        return self.spent() / len(self.ticks) / NOMINAL_TICK_S


class Ops:
    """Thread-safe log of the operations a repetition attempted."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies = {"fresh": [], "cached": []}
        self.job_s = []
        self.runs_executed = 0
        self.attempted = 0
        self.failures = []

    def job(self, kind: str, latency: float, job: dict,
            expected_runs: int) -> None:
        """Record one finished job and check its payload."""
        executed = job.get("report", {}).get("runs_executed")
        with self.lock:
            self.attempted += 1
            self.latencies[kind].append(latency)
            if job.get("finished") and job.get("submitted"):
                self.job_s.append(job["finished"] - job["submitted"])
            if job["state"] != "complete":
                self.failures.append(f"{kind} job {job['job'][:12]} "
                                     f"{job['state']}: {job.get('error')}")
            elif executed != expected_runs:
                self.failures.append(f"{kind} job {job['job'][:12]} executed "
                                     f"{executed} runs, expected "
                                     f"{expected_runs}")
            self.runs_executed += executed or 0

    def percentiles(self) -> dict:
        """This repetition's job latency percentiles (``None`` when too
        few jobs finished; they then failed, and no metric is made)."""
        fresh, cached = self.latencies["fresh"], self.latencies["cached"]
        enough = len(cached) >= 2
        return {
            "fresh_p50_s": statistics.median(fresh) if fresh else None,
            "cached_p50_s": statistics.median(cached) if enough else None,
            "cached_p90_s": (statistics.quantiles(cached, n=10)[8]
                             if enough else None),
        }

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted check; record ``message`` if it failed."""
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failures.append(message)

    def fail(self, message: str) -> None:
        """Count one attempted operation that failed."""
        self.check(False, message)


# ----------------------------------------------------------------------
# Local workloads: repro.api.submit into a fresh shard store.
# ----------------------------------------------------------------------
def local_spec(workload: str, seed: int):
    """The campaign and execution options of a local workload."""
    if workload == "paper-sweep":
        return CampaignSpec(suite="small", runs_per_cell=PAPER_RUNS,
                            base_seed=seed), {}
    return (CampaignSpec(suite="small", runs_per_cell=BATCH_RUNS,
                         base_seed=seed, modes=("unprotected",)),
            {"engine": "batch"})


def local_setup(spec: CampaignSpec, spawned: float) -> tuple:
    """Build the suite and warm its checkpoints; seconds since spawn,
    and the slowdown the reference passes measured meanwhile."""
    reference = Reference()
    with reference.sampling():
        suite = spec.experiment_config().suite()
        for app in suite.values():
            app.warm(seeds=(0,), checkpoints=True)
    # Reference passes hold the interpreter lock; take their time back.
    setup_s = time.time() - spawned - reference.spent()
    del suite
    gc.collect()
    return setup_s, reference.slowdown()


def run_local(workload: str, seed: int, root: Path, tracer) -> dict:
    """One fresh sweep, timed by itself; then its cells are resubmitted,
    pass after pass, as single-cell cached jobs through the same entry
    point and timed apart from the sweep.

    Each phase has its own reference loop, so each is rescaled by the
    host speed it ran at: the cached passes are a half-second snapshot
    of the host, which the sweep's mean speed does not describe, so they
    sample it more often.
    """
    spec, execution = local_spec(workload, seed)
    store = str(root / "store")
    cells = [dataclasses.replace(spec, apps=(cell.app_name,),
                                 modes=(cell.mode.value,),
                                 errors=(cell.errors,))
             for cell in spec.cells()]
    ops = Ops()

    def timed(job_spec: CampaignSpec, reference: Reference) -> tuple:
        # Reference passes hold the interpreter lock; take their time back.
        ticked = reference.spent()
        began = time.perf_counter()
        with tracer.job(job_spec.cache_key[:12]):
            job = submit(job_spec, store=store, **execution)
        return (time.perf_counter() - began - (reference.spent() - ticked),
                job)

    sweep, cached = Reference(), Reference(period=CACHED_TICK_PERIOD_S)
    with sweep.sampling():
        wall, job = timed(spec, sweep)
    ops.job("fresh", wall, job, len(cells) * spec.runs_per_cell)
    with cached.sampling():
        for _ in range(LOCAL_CACHED_JOBS // len(cells)):
            for cell in cells:
                ops.job("cached", *timed(cell, cached), 0)
    return {"wall_s": wall, "slowdown": sweep.slowdown(),
            "cached_slowdown": cached.slowdown(), "ops": ops,
            "stores": [root / "store"]}


# ----------------------------------------------------------------------
# daemon-mixed: `python -m repro serve` driven by ServiceClient.
# ----------------------------------------------------------------------
def daemon_fresh_specs(seed: int):
    """The writer's fresh jobs: one app each, a store of their own."""
    from repro.apps import APP_ORDER

    return [CampaignSpec(suite="small", runs_per_cell=DAEMON_RUNS,
                         base_seed=seed * 100 + index,
                         apps=(APP_ORDER[index % len(APP_ORDER)],),
                         modes=("protected",), errors=DAEMON_ERRORS)
            for index in range(DAEMON_FRESH_JOBS)]


def drive_daemon(url: str, seed: int) -> dict:
    """Two closed-loop clients: a writer sends the fresh jobs one after
    another; a reader, once a fresh job's store is complete, sends that
    store's cached jobs one after another while the writer's next fresh
    job runs, so reads sit beside writes."""
    client = ServiceClient(url)
    fresh = daemon_fresh_specs(seed)
    completed: "queue.Queue[Optional[CampaignSpec]]" = queue.Queue()
    ops = Ops()

    def one_job(kind: str, spec: CampaignSpec, expected: int) -> None:
        began = time.perf_counter()
        try:
            job = client.submit(spec)
            if job["state"] not in ("complete", "failed"):
                job = client.wait(job["job"], timeout=JOB_TIMEOUT_S,
                                  poll=POLL_S)
        except (ServiceError, ConnectionError, TimeoutError) as exc:
            ops.fail(f"{kind} job: {type(exc).__name__}: {exc}")
            return
        ops.job(kind, time.perf_counter() - began, job, expected)

    def writer() -> None:
        try:
            for spec in fresh:
                one_job("fresh", spec, len(DAEMON_ERRORS) * DAEMON_RUNS)
                completed.put(spec)
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            ops.fail(f"writer: {type(exc).__name__}: {exc}")
        finally:
            completed.put(None)

    def reader() -> None:
        try:
            for spec in iter(completed.get, None):
                for errors in DAEMON_CACHED_SUBSETS:
                    one_job("cached", dataclasses.replace(spec, errors=errors),
                            0)
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            ops.fail(f"reader: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT_S * 2)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        ops.fail("client threads did not finish")
    return {"wall_s": wall, "ops": ops}


def run_daemon(seed: int, root: Path, traced: bool) -> dict:
    """Spawn ``repro serve`` (or host it in-process when traced).

    ``setup_s`` runs from the spawn until ``/v1/health`` answers.  The
    reference loop runs in this client process, which mostly waits on the
    daemon, so it measures the speed of the host both processes share.
    """
    if traced:
        from repro.__main__ import build_parser
        from repro.service.daemon import CampaignService

        # The same execution defaults `repro serve` would use.
        args = build_parser().parse_args(
            ["serve", "--store", str(root), "--lanes", str(DAEMON_LANES)])
        service = CampaignService(
            args.store, lanes=args.lanes,
            execution={"engine": args.engine, "chunk_size": args.chunk_size})
        url = service.start_in_background()
        work = Reference()
        try:
            with work.sampling():
                result = drive_daemon(url, seed)
        finally:
            service.shutdown()
        result.update(setup_s=None, setup_slowdown=1.0)
    else:
        setup, work = Reference(), Reference()
        with serving(root, setup) as (url, setup_s):
            with work.sampling():
                result = drive_daemon(url, seed)
        result.update(setup_s=setup_s, setup_slowdown=setup.slowdown())
    # A cached job's latency is mostly waiting on polls and round trips,
    # which host speed does not stretch: rescaling it was measured to
    # widen its spread several-fold, so it stays raw.
    result.update(slowdown=work.slowdown(), cached_slowdown=1.0)
    result["stores"] = sorted((root / "stores").iterdir())
    return result


@contextlib.contextmanager
def serving(root: Path, reference: Reference):
    """Spawn ``repro serve`` on ``root`` and stop it when the block ends;
    yields its URL and the seconds from the spawn until ``/v1/health``
    answered, with ``reference`` sampling over those seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    daemon = None
    try:
        with reference.sampling():
            spawned = time.time()
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(root),
                 "--listen", "127.0.0.1:0", "--lanes", str(DAEMON_LANES)],
                stdout=subprocess.PIPE, text=True, env=env)
            banner = daemon.stdout.readline()
            match = re.search(r"listening on (http://\S+)", banner)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            url = match.group(1)
            _wait_healthy(ServiceClient(url))
            setup_s = time.time() - spawned
        yield url, setup_s
    finally:
        if daemon is not None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()


def _wait_healthy(client: ServiceClient, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.health()
            return
        except ConnectionError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


# ----------------------------------------------------------------------
# Correctness: digest, deterministic counts, decoded re-derivation.
# ----------------------------------------------------------------------
def digest_and_counts(stores) -> tuple:
    """SHA-256 of every shard's bytes (sidecars excluded) and the counts
    the records imply."""
    digest = hashlib.sha256()
    counts = {"runs": 0, "logical_instr": 0, "hang_runs": 0,
              "hang_instr": 0, "crash_runs": 0}
    for store in stores:
        for path in sorted(store.rglob("*.jsonl")):
            data = path.read_bytes()
            digest.update(f"{store.name}/{path.relative_to(store)}\n"
                          .encode("utf-8"))
            digest.update(data)
            for line in data.splitlines():
                record = json.loads(line)
                counts["runs"] += 1
                counts["logical_instr"] += record["executed"]
                if record["outcome"] == "hang":
                    counts["hang_runs"] += 1
                    counts["hang_instr"] += record["executed"]
                elif record["outcome"] == "crash":
                    counts["crash_runs"] += 1
    return digest.hexdigest(), counts


def verify_sample(stores, seed: int, size: int, ops: Ops) -> int:
    """Re-derive a fixed sample of records on the decoded engine."""
    from repro.exec.base import make_record

    entries = []
    for root in stores:
        spec = CampaignSpec.from_store_meta(
            json.loads((root / "meta.json").read_text()))
        store = ShardStore(root, model=spec.model)
        for app, mode, errors, _ in store.shards():
            for record in store.load_records(app, mode, errors):
                entries.append((spec, app, mode, errors, record))
    sample = random.Random(seed).sample(entries, min(size, len(entries)))
    suites = {}
    for spec, app, mode, errors, record in sample:
        suite = suites.get(spec.suite)
        if suite is None:
            suite = suites[spec.suite] = spec.experiment_config().suite()
        again = make_record(suite[app], spec.campaign_config(engine="decoded"),
                            record.run_index, errors, mode)
        ops.check(again.to_json() == record.to_json(),
                  f"record ({app}, {mode.value}, e={errors}, "
                  f"run {record.run_index}) differs on the decoded engine")
    return len(sample)


# ----------------------------------------------------------------------
def main() -> int:
    """Run one repetition and print its result as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-sweep", "unprotected-batch",
                                 "daemon-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() just before this process started")
    parser.add_argument("--trace", type=Path, default=None,
                        help="trace this repetition; write spans here")
    parser.add_argument("--verify", type=int, default=0,
                        help="re-derive this many records afterwards")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it")
    args = parser.parse_args()

    from tracer import Tracer, layer_metrics

    daemon = args.workload == "daemon-mixed"
    tracer = Tracer()
    if args.setup_only:
        if daemon:
            reference = Reference()
            with serving(args.root, reference) as (_, setup_s):
                pass
            slowdown = reference.slowdown()
        else:
            setup_s, slowdown = local_setup(
                local_spec(args.workload, args.seed)[0], args.spawned)
        print(json.dumps({"setup_s": setup_s, "setup_slowdown": slowdown}))
        return 0
    if daemon:
        if args.trace:
            tracer.install()
        result = run_daemon(args.seed, args.root, traced=bool(args.trace))
    else:
        setup_s, setup_slowdown = local_setup(
            local_spec(args.workload, args.seed)[0], args.spawned)
        tracer.install(counters_only=not args.trace)
        result = dict(run_local(args.workload, args.seed, args.root, tracer),
                      setup_s=setup_s, setup_slowdown=setup_slowdown)
    tracer.unpatch()

    ops = result["ops"]
    digest, counts = digest_and_counts(result["stores"])
    if counts["runs"] != ops.runs_executed:
        ops.fail(f"stores hold {counts['runs']} records but jobs executed "
                 f"{ops.runs_executed} runs")
    layers = None
    if args.trace:
        tracer.dump(args.trace)
        layers = layer_metrics(tracer, result["wall_s"], lanes=DAEMON_LANES,
                               job_s=ops.job_s)
    verified = (verify_sample(result["stores"], args.seed, args.verify, ops)
                if args.verify else 0)
    print(json.dumps({
        "setup_s": result["setup_s"],
        "setup_slowdown": result["setup_slowdown"],
        "wall_s": result["wall_s"],
        "slowdown": result["slowdown"],
        "cached_slowdown": result["cached_slowdown"],
        **ops.percentiles(),
        "runs_executed": ops.runs_executed,
        "attempted": ops.attempted,
        "verified": verified,
        "failures": ops.failures,
        "digest": digest,
        "counts": counts,
        "engine_counts": tracer.engine_counts(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
