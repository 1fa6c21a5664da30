"""Concurrent-lane scheduler + durable-job tests (ISSUE 9).

Exercises the daemon's concurrency contract from every side: the
journal's fold semantics as a unit, the cross-process store advisory
lock, lane parallelism and same-store serialization against a scheduler
whose jobs are deterministic sleeps, a real-workload stress run whose
stores must stay byte-identical to serial references, SIGKILL
crash/restart durability through the journal, and the drain/503
admission contract.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.api import submit
from repro.api import status as api_status
from repro.apps import registry
from repro.core import ShardStore
from repro.core.campaign import usable_cpus
from repro.core.store import advisory_lock
from repro.exec import local
from repro.service import CampaignService, CampaignSpec, JobJournal, ServiceClient
from repro.service import daemon as daemon_module
from repro.service.client import ServiceError
from repro.service.daemon import default_lanes
from repro.service.journal import Job
from repro.sim import ProtectionMode

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Tiny adpcm grid (4 cells x 3 runs): fast enough to sweep repeatedly.
QUICK = dict(suite="small", runs_per_cell=3, base_seed=11, apps=("adpcm",),
             errors=(0, 2), include_table2=False)


def quick_spec(**overrides) -> CampaignSpec:
    return CampaignSpec(**{**QUICK, **overrides})


def store_bytes(store: ShardStore):
    """Record payload of a store: path -> bytes, control files excluded."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*"))
        if path.is_file() and path.name != "fleet.json"
        and not path.name.startswith(".")
    }


class HealthPoller:
    """Samples ``/v1/health`` on a thread, keeping the busiest sighting."""

    def __init__(self, url: str, poll: float = 0.02) -> None:
        self.client = ServiceClient(url)
        self.poll = poll
        self.max_busy = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                health = self.client.health()
            except (ConnectionError, ServiceError):
                continue
            self.samples += 1
            self.max_busy = max(self.max_busy, health["lanes"]["busy"])
            time.sleep(self.poll)

    def __enter__(self) -> "HealthPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


# ----------------------------------------------------------------------
# JobJournal: fold semantics, torn tails, refusal handling.
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_submit_start_finish_folds_to_a_terminal_job(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("start", spec.cache_key, lane=2)
        journal.record("finish", spec.cache_key, state="complete",
                       report={"runs_executed": 12}, executors_started=1,
                       error=None)
        replay = journal.replay()
        assert replay.events == 3 and replay.skipped == 0
        (job,) = replay.jobs
        assert job.state == "complete" and not job.interrupted
        assert job.spec == spec
        assert job.report == {"runs_executed": 12}
        assert job.executors_started == 1
        assert job.finished is not None

    @pytest.mark.parametrize("events", [
        ("submit",),
        ("submit", "start"),
    ])
    def test_jobs_without_a_terminal_event_are_interrupted(self, tmp_path,
                                                           events):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        for event in events:
            extra = ({"spec": spec.to_json()} if event == "submit"
                     else {"lane": 0})
            journal.record(event, spec.cache_key, **extra)
        (job,) = journal.replay().jobs
        assert job.interrupted
        assert job.state == ("running" if "start" in events else "queued")

    def test_fail_event_folds_to_a_failed_job(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("start", spec.cache_key, lane=0)
        journal.record("fail", spec.cache_key, error="boom")
        (job,) = journal.replay().jobs
        assert job.state == "failed" and not job.interrupted
        assert job.error == "boom"

    def test_resubmit_after_finish_resets_to_queued_in_place(self, tmp_path):
        # The daemon's re-verification path journals a second submit for
        # a restored terminal job; the fold must return it to the queue.
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("finish", spec.cache_key, state="complete",
                       report={"runs_executed": 12}, executors_started=1,
                       error=None)
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        replay = journal.replay()
        (job,) = replay.jobs
        assert job.interrupted and job.state == "queued"
        assert job.report == {} and job.executors_started == 0

    def test_second_submit_resets_through_job_requeue(self, tmp_path,
                                                      monkeypatch):
        requeued = []
        requeue = Job.requeue

        def spy(job):
            requeued.append(job.key)
            requeue(job)

        monkeypatch.setattr(Job, "requeue", spy)
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("finish", spec.cache_key, state="complete",
                       report={"runs_executed": 12}, executors_started=1,
                       error=None)
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        (job,) = journal.replay().jobs
        assert requeued == [spec.cache_key]
        assert job.state == "queued" and job.finished is None

    def test_replayed_jobs_have_the_local_submit_payload_keys(self,
                                                             tmp_path):
        spec = quick_spec(errors=(0,))
        local = submit(spec, store=tmp_path / "store", parallel=1)
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("finish", spec.cache_key, state=local["state"],
                       report=local["report"],
                       executors_started=local["executors_started"],
                       error=local["error"])
        (job,) = journal.replay().jobs
        assert isinstance(job, Job)
        assert set(job.to_json()) == set(local)
        assert job.to_json()["report"] == local["report"]

    def test_torn_trailing_line_is_skipped_then_repaired(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        spec = quick_spec()
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        with path.open("ab") as handle:
            handle.write(b'{"event":"start","job":"tor')  # mid-write kill
        replay = journal.replay()
        assert len(replay.jobs) == 1 and replay.events == 1
        # The next append (writer-owned repair) truncates the torn tail.
        journal.record("start", spec.cache_key, lane=1)
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
        (job,) = journal.replay().jobs
        assert job.state == "running" and job.lane == 1

    def test_unreadable_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        good = quick_spec()
        journal.record("submit", good.cache_key, spec=good.to_json())
        with path.open("a", encoding="utf-8") as handle:
            # A spec this build refuses, a transition without a submit,
            # an unknown event, and a non-object line.
            handle.write(json.dumps({"event": "submit", "job": "x",
                                     "spec": {"bogus_field": 1}}) + "\n")
            handle.write(json.dumps({"event": "finish", "job": "orphan",
                                     "state": "complete"}) + "\n")
            handle.write(json.dumps({"event": "vanish",
                                     "job": good.cache_key}) + "\n")
            handle.write('"not an object"\n')
        replay = journal.replay()
        assert len(replay.jobs) == 1
        assert replay.jobs[0].spec == good
        assert replay.events == 5
        assert replay.skipped == 4

    def test_submit_whose_key_mismatches_its_spec_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        spec = quick_spec()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": "submit", "job": "wrong-key",
                                     "spec": spec.to_json()}) + "\n")
        replay = journal.replay()
        assert replay.jobs == [] and replay.skipped == 1

    def test_unknown_event_kind_is_refused_at_write_time(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        with pytest.raises(ValueError, match="unknown journal event"):
            journal.record("pause", "some-key")

    def test_stats_track_appends_without_rereading(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = quick_spec()
        assert journal.stats()["events"] == 0
        journal.record("submit", spec.cache_key, spec=spec.to_json())
        journal.record("start", spec.cache_key, lane=0)
        stats = journal.stats()
        assert stats["events"] == 2
        assert stats["path"].endswith("jobs.jsonl")


# ----------------------------------------------------------------------
# The cross-process store advisory lock.
# ----------------------------------------------------------------------
class TestAdvisoryLock:
    def test_exclusive_lock_serializes_critical_sections(self, tmp_path):
        # Two writers (each with its own file description, as two
        # daemons would have) must never be inside the lock at once.
        store = ShardStore(tmp_path / "store")
        intervals = []

        def writer():
            with store.exclusive_lock():
                start = time.monotonic()
                time.sleep(0.05)
                intervals.append((start, time.monotonic()))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(intervals) == 4
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end, "two lock holders overlapped"

    def test_lock_file_is_dot_named_and_invisible_to_byte_identity(
            self, tmp_path):
        store = ShardStore(tmp_path / "store")
        with store.exclusive_lock():
            pass
        assert (store.root / ".lock").exists()
        assert store_bytes(store) == {}

    def test_advisory_lock_creates_parent_directories(self, tmp_path):
        with advisory_lock(tmp_path / "deep" / "nested" / ".lock"):
            assert (tmp_path / "deep" / "nested" / ".lock").exists()


# ----------------------------------------------------------------------
# Lane parallelism against deterministic sleeping jobs.
# ----------------------------------------------------------------------
NAP = 0.4


@pytest.fixture()
def sleepy_jobs(monkeypatch):
    """Replace job execution with a fixed nap (scheduler-only tests)."""

    def _nap(self, job):
        time.sleep(NAP)
        job.report = {"cells_total": 1, "cells_complete": 1,
                      "runs_executed": 0, "runs_reused": 0,
                      "runs_discarded": 0, "fleet": []}
        job.state = "complete"

    monkeypatch.setattr(CampaignService, "_run_job", _nap)


class TestLaneParallelism:
    def test_disjoint_store_jobs_overlap_across_lanes(self, tmp_path,
                                                      sleepy_jobs):
        daemon = CampaignService(tmp_path / "cache", lanes=4)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            specs = [quick_spec(base_seed=100 + i) for i in range(4)]
            assert len({spec.store_key for spec in specs}) == 4
            started = time.monotonic()
            with HealthPoller(daemon.url) as poller:
                keys = [client.submit(spec)["job"] for spec in specs]
                for key in keys:
                    client.wait(key, timeout=60, poll=0.02)
            elapsed = time.monotonic() - started
            # The acceptance bar: 4 disjoint jobs on 4 lanes must beat
            # 0.8x their sequential sum by a wide margin.
            assert elapsed < 0.8 * 4 * NAP
            assert poller.max_busy > 1, "lanes never overlapped"
        finally:
            daemon.shutdown()

    def test_same_store_jobs_serialize_on_the_store_lock(self, tmp_path,
                                                         sleepy_jobs):
        daemon = CampaignService(tmp_path / "cache", lanes=4)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            # Same content (one store), different coverage (two jobs).
            narrow = quick_spec(errors=(0,))
            wide = quick_spec(errors=(0, 2))
            assert narrow.store_key == wide.store_key
            assert narrow.cache_key != wide.cache_key
            started = time.monotonic()
            keys = [client.submit(narrow)["job"], client.submit(wide)["job"]]
            for key in keys:
                client.wait(key, timeout=60, poll=0.02)
            elapsed = time.monotonic() - started
            assert elapsed >= 2 * NAP * 0.9, \
                "same-store jobs ran concurrently"
        finally:
            daemon.shutdown()

    def test_lane_count_is_validated_and_defaulted(self, tmp_path):
        with pytest.raises(ValueError, match="lanes"):
            CampaignService(tmp_path / "cache", lanes=0)
        assert CampaignService(tmp_path / "cache").lanes == default_lanes()
        assert 1 <= default_lanes() <= 4


# ----------------------------------------------------------------------
# Stress: real campaigns across lanes stay byte-identical to serial.
# ----------------------------------------------------------------------
class TestConcurrentLanes:
    def test_overlapping_and_disjoint_stores_never_double_compute(
            self, tmp_path):
        # Serial references, one per distinct store content.
        references = {}
        for seed in (11, 12):
            root = tmp_path / f"serial-{seed}"
            submit(quick_spec(base_seed=seed), root)
            references[seed] = store_bytes(ShardStore(root))

        daemon = CampaignService(tmp_path / "cache", lanes=4)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            # Two disjoint stores; per store, two coverage-overlapping
            # jobs racing for the same cells.
            specs = [quick_spec(base_seed=seed, errors=errors)
                     for seed in (11, 12)
                     for errors in ((0,), (0, 2))]
            with HealthPoller(daemon.url) as poller:
                keys = [client.submit(spec)["job"] for spec in specs]
                finals = [client.wait(key, timeout=600, poll=0.05)
                          for key in keys]
            assert all(final["state"] == "complete" for final in finals)
            # Disjoint stores genuinely overlapped on the lanes.
            assert poller.max_busy > 1, "lanes never overlapped"
            # Per store: 4 cells x 3 runs computed exactly once across
            # both racing jobs — the per-store locks are the guarantee.
            for seed in (11, 12):
                executed = sum(
                    final["report"]["runs_executed"]
                    for spec, final in zip(specs, finals)
                    if spec.base_seed == seed)
                assert executed == 12, \
                    f"store for seed {seed} computed {executed} runs"
                daemon_store = daemon.store_for(quick_spec(base_seed=seed))
                assert store_bytes(daemon_store) == references[seed]
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# Crash/restart durability: SIGKILL mid-job, journal replay, cache hit.
# ----------------------------------------------------------------------
CRASH_SPEC = CampaignSpec(suite="small", runs_per_cell=10, base_seed=47,
                          apps=("adpcm",), modes=("protected",),
                          errors=(3,), include_table2=False)


def spawn_daemon(root: Path, *extra) -> "tuple":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(root),
         "--listen", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    banner = process.stdout.readline().strip()
    match = re.search(r"listening on (http://\S+)$", banner)
    assert match, f"no service banner, got {banner!r}"
    return process, match.group(1)


class TestCrashDurability:
    def test_sigkill_mid_job_resumes_to_a_byte_identical_store(
            self, tmp_path):
        serial_root = tmp_path / "serial"
        submit(CRASH_SPEC, serial_root)
        reference = store_bytes(ShardStore(serial_root))

        root = tmp_path / "cache"
        shard = (root / "stores" / CRASH_SPEC.store_dir
                 / "adpcm" / "protected-e3.jsonl")

        # Daemon 1: submit, wait for the first record to hit disk
        # (--chunk-size 1 appends run by run), then SIGKILL mid-job.
        process, url = spawn_daemon(root, "--chunk-size", "1")
        workers = children(process.pid)
        try:
            client = ServiceClient(url)
            job = client.submit(CRASH_SPEC)
            assert job["state"] in ("queued", "running")
            deadline = time.monotonic() + 120
            while not (shard.exists() and shard.stat().st_size > 0):
                assert time.monotonic() < deadline, \
                    "no record appeared before the crash window"
                time.sleep(0.01)
        finally:
            process.kill()
            process.wait(timeout=30)
        # Pool workers notice their parent is gone and exit on their own.
        deadline = time.monotonic() + 30
        while any(alive(pid) for pid in workers):
            assert time.monotonic() < deadline, "pool workers outlived a " \
                                                "SIGKILLed daemon"
            time.sleep(0.05)

        # Daemon 2: the journal replays the interrupted job, re-enqueues
        # it, and the missing-index resume path completes the store.
        process, url = spawn_daemon(root, "--chunk-size", "1")
        try:
            client = ServiceClient(url)
            assert client.health()["journal"]["jobs_resumed"] >= 1
            final = client.wait(CRASH_SPEC.cache_key, timeout=600)
            assert final["state"] == "complete"
            report = final["report"]
            assert report["runs_executed"] + report["runs_reused"] == 10
            daemon_store = ShardStore(root / "stores" / CRASH_SPEC.store_dir)
            assert store_bytes(daemon_store) == reference
        finally:
            process.terminate()
            process.wait(timeout=30)

        # Daemon 3: the finished job is journal-restored (no recompute),
        # and resubmitting it re-verifies as a pure cache hit — zero
        # runs executed, zero executor backends constructed.
        process, url = spawn_daemon(root, "--chunk-size", "1")
        try:
            client = ServiceClient(url)
            assert client.health()["journal"]["jobs_restored"] >= 1
            restored = client.status(CRASH_SPEC.cache_key)
            assert restored["state"] == "complete"
            assert restored["restored"] is True
            assert restored["report"]["runs_executed"] + \
                restored["report"]["runs_reused"] == 10
            resubmitted = client.submit(CRASH_SPEC)
            assert resubmitted["state"] == "queued"
            final = client.wait(CRASH_SPEC.cache_key, timeout=300)
            assert final["state"] == "complete"
            assert final["report"]["runs_executed"] == 0
            assert final["report"]["runs_reused"] == 10
            assert final["executors_started"] == 0
            assert final["restored"] is False
            assert store_bytes(ShardStore(root / "stores"
                                          / CRASH_SPEC.store_dir)) \
                == reference
        finally:
            process.terminate()
            process.wait(timeout=30)


# ----------------------------------------------------------------------
# The shared local pool: byte identity, warm apps, SIGTERM, dead workers.
# ----------------------------------------------------------------------
needs_pool = pytest.mark.skipif(
    usable_cpus() < 2 or not Path("/proc/self/stat").exists(),
    reason="jobs run serially on a 1-CPU host; process checks read /proc")

#: Long enough (about 2 s on two workers) that a signal sent after its
#: first record lands mid-job.
LONG_SPEC = CampaignSpec(suite="small", runs_per_cell=24, base_seed=71,
                         apps=("mpeg", "art", "adpcm"), modes=("protected",),
                         errors=(2, 3), include_table2=False)


def pool_spec(base_seed: int, apps=("adpcm", "susan")) -> CampaignSpec:
    return CampaignSpec(suite="small", runs_per_cell=6, base_seed=base_seed,
                        apps=apps, modes=("protected",), errors=(1, 2),
                        include_table2=False)


def _cache_probe(barrier) -> "tuple":
    """A pool worker's pid and warm-app cache ``{key: id(app)}``; the
    barrier holds each worker until all have taken one probe."""
    barrier.wait(timeout=60)
    return os.getpid(), {key: id(app)
                         for key, app in registry._APP_CACHE.items()}


def probe_pool(service: CampaignService, width: int) -> Dict:
    """Every pool worker's warm-app cache, by pid."""
    with multiprocessing.Manager() as manager:
        barrier = manager.Barrier(width)
        pool = service._local_pool()
        futures = [pool.submit(_cache_probe, barrier) for _ in range(width)]
        return dict(future.result(timeout=120) for future in futures)


def children(pid: int) -> List[int]:
    """Pids of the live processes whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def wait_for_first_record(store_root: Path, process) -> None:
    deadline = time.monotonic() + 120
    while not any(shard.stat().st_size
                  for shard in store_root.rglob("*.jsonl")):
        assert process.poll() is None, "daemon exited"
        assert time.monotonic() < deadline, "no record appeared"
        time.sleep(0.01)


@needs_pool
class TestSharedPool:
    @pytest.mark.parametrize("engine", ["fork", "decoded"])
    def test_concurrent_jobs_share_one_warm_pool(self, tmp_path, engine,
                                                 monkeypatch):
        specs = [pool_spec(61), pool_spec(62)]
        # Every worker builds adpcm on one of the first tasks.
        third = pool_spec(63, apps=("adpcm",))
        references = {}
        for spec in specs + [third]:
            root = tmp_path / f"serial-{spec.base_seed}"
            submit(spec, root, parallel=1, engine=engine)
            references[spec.base_seed] = store_bytes(ShardStore(root))

        own_pools = []
        monkeypatch.setattr(local, "start_pool",
                            lambda *args: own_pools.append(args))
        monkeypatch.setattr(daemon_module, "usable_cpus", lambda: 2)
        daemon = CampaignService(tmp_path / "cache", lanes=2,
                                 execution={"engine": engine})
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            with HealthPoller(daemon.url) as poller:
                keys = [client.submit(spec)["job"] for spec in specs]
                finals = [client.wait(key, timeout=300, poll=0.02)
                          for key in keys]
            assert [final["state"] for final in finals] == ["complete"] * 2
            assert poller.max_busy == 2, "the two jobs never overlapped"
            for spec in specs:
                assert store_bytes(daemon.store_for(spec)) \
                    == references[spec.base_seed]
            warm = probe_pool(daemon, 2)
            assert len(warm) == 2
            for cache in warm.values():
                assert "adpcm" in {json.loads(key)[0] for key in cache}

            # A third job on a warm app builds no app.
            final = client.wait(client.submit(third)["job"], timeout=300,
                                poll=0.02)
            assert final["state"] == "complete"
            assert store_bytes(daemon.store_for(third)) == references[63]
            assert probe_pool(daemon, 2) == warm
        finally:
            daemon.shutdown()
        assert own_pools == [], "a daemon job started a pool of its own"

    def test_sigterm_reaps_the_pool_and_the_job_resumes(self, tmp_path):
        serial_root = tmp_path / "serial"
        submit(LONG_SPEC, serial_root, parallel=1)
        reference = store_bytes(ShardStore(serial_root))

        root = tmp_path / "cache"
        store_root = root / "stores" / LONG_SPEC.store_dir
        process, url = spawn_daemon(root, "--chunk-size", "1")
        try:
            workers = children(process.pid)
            assert workers, "the daemon started no pool"
            ServiceClient(url).submit(LONG_SPEC)
            wait_for_first_record(store_root, process)
            process.terminate()
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stdout.close()
        assert [pid for pid in workers if alive(pid)] == []
        (job,) = JobJournal(root / "jobs.jsonl").replay().jobs
        assert job.interrupted and job.state == "running"

        process, url = spawn_daemon(root, "--chunk-size", "1")
        try:
            client = ServiceClient(url)
            assert client.health()["journal"]["jobs_resumed"] == 1
            final = client.wait(LONG_SPEC.cache_key, timeout=600)
            assert final["state"] == "complete"
            assert final["report"]["runs_reused"] > 0
            assert store_bytes(ShardStore(store_root)) == reference
        finally:
            process.terminate()
            process.wait(timeout=60)
            process.stdout.close()

    def test_a_dead_worker_fails_its_job_and_the_next_gets_a_fresh_pool(
            self, tmp_path):
        root = tmp_path / "cache"
        process, url = spawn_daemon(root, "--chunk-size", "1")
        try:
            client = ServiceClient(url)
            client.submit(LONG_SPEC)
            wait_for_first_record(root / "stores" / LONG_SPEC.store_dir,
                                  process)
            broken = children(process.pid)
            os.kill(broken[0], signal.SIGKILL)
            failed = client.wait(LONG_SPEC.cache_key, timeout=300)
            assert failed["state"] == "failed"
            assert "worker" in failed["error"] and "died" in failed["error"]

            spec = quick_spec(base_seed=72)
            final = client.wait(client.submit(spec)["job"], timeout=300)
            assert final["state"] == "complete"
            assert final["executors_started"] == 1
            fresh = children(process.pid)
            assert fresh and not set(fresh) & set(broken)
        finally:
            process.terminate()
            process.wait(timeout=60)
            process.stdout.close()
        jobs = {job.key: job for job
                in JobJournal(root / "jobs.jsonl").replay().jobs}
        assert jobs[LONG_SPEC.cache_key].state == "failed"
        assert "died" in jobs[LONG_SPEC.cache_key].error
        assert jobs[spec.cache_key].state == "complete"


# ----------------------------------------------------------------------
# Drain and the api.status remote path.
# ----------------------------------------------------------------------
class TestDrainAndRemoteStatus:
    def test_drain_refuses_new_campaigns_with_503(self, tmp_path,
                                                  sleepy_jobs):
        daemon = CampaignService(tmp_path / "cache", lanes=2)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            accepted = client.submit(quick_spec(base_seed=200))
            daemon.drain()
            assert client.health()["status"] == "draining"
            with pytest.raises(ServiceError, match="draining") as excinfo:
                client.submit(quick_spec(base_seed=201))
            assert excinfo.value.status == 503
            # Already-admitted work still runs to completion.
            final = client.wait(accepted["job"], timeout=60, poll=0.02)
            assert final["state"] == "complete"
        finally:
            daemon.shutdown()

    def test_api_status_queries_a_live_daemon(self, tmp_path, sleepy_jobs):
        daemon = CampaignService(tmp_path / "cache", lanes=2)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            spec = quick_spec(base_seed=300)
            client.wait(client.submit(spec)["job"], timeout=60, poll=0.02)
            payload = api_status(url=daemon.url, spec=spec)
            assert payload["job"] == spec.cache_key
            assert payload["state"] == "complete"
            assert payload["restored"] is False and payload["lane"] in (0, 1)
            listing = api_status(url=daemon.url)
            assert [entry["job"] for entry in listing] == [spec.cache_key]
        finally:
            daemon.shutdown()

    def test_health_reports_lanes_queue_and_journal(self, tmp_path):
        daemon = CampaignService(tmp_path / "cache", lanes=3)
        daemon.start_in_background()
        try:
            health = ServiceClient(daemon.url).health()
            assert health["status"] == "ok"
            assert health["lanes"] == {"total": 3, "busy": 0, "jobs": []}
            assert health["queue_depth"] == 0
            journal = health["journal"]
            assert journal["events"] == 0
            assert journal["jobs_resumed"] == 0
            assert journal["jobs_restored"] == 0
            assert journal["skipped"] == 0
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# In-process restart: the journal round-trips through a real daemon.
# ----------------------------------------------------------------------
class TestJournalThroughTheDaemon:
    def test_restart_restores_the_job_table(self, tmp_path):
        spec = quick_spec()
        daemon = CampaignService(tmp_path / "cache", lanes=2)
        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            client.wait(client.submit(spec)["job"], timeout=300)
        finally:
            daemon.shutdown()

        reborn = CampaignService(tmp_path / "cache", lanes=2)
        reborn.start_in_background()
        try:
            client = ServiceClient(reborn.url)
            jobs = client.jobs()
            assert [job["job"] for job in jobs] == [spec.cache_key]
            assert jobs[0]["state"] == "complete"
            assert jobs[0]["restored"] is True
            assert client.health()["journal"]["jobs_restored"] == 1
            # Restored status answers from the journal without touching
            # an executor: results still come off the shared store.
            records = client.results(spec.cache_key, "adpcm",
                                     "protected", 2)["records"]
            store = reborn.store_for(spec)
            assert records == [
                record.to_json() for record
                in store.load_records("adpcm", ProtectionMode.PROTECTED, 2)]
        finally:
            reborn.shutdown()
