"""Chaos tests: the campaign fabric vs. deterministic network failures.

The acceptance contract of the robustness layer (ISSUE 7): a distributed
sweep driven through a fault-injecting proxy — worker kills, stalls,
truncated frames, corrupted payloads, total fleet loss — produces a
shard store **byte-identical** to an uninterrupted serial sweep.  The
:class:`chaos_proxy.ChaosProxy` schedules are deterministic (fire on the
Nth frame of a kind, not on timers), so these tests are reproducible.

The grid is one small susan cell (4 protected runs at 3 errors), matching
the CI ``chaos-smoke`` job's budget.
"""

import contextlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from chaos_proxy import ChaosProxy
from repro.core import ShardStore
from repro.exec import FleetLostError, SocketExecutor
from repro.experiments.sweep import SweepOrchestrator
from repro.service.spec import CampaignSpec

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: One small susan cell: quick enough for CI, big enough that every
#: schedule's events actually fire (4 runs = 4 run frames + 4 records
#: frames per clean pass).
SPEC = CampaignSpec(suite="small", runs_per_cell=4, base_seed=23,
                    apps=("susan",), modes=("protected",), errors=(3,),
                    include_table2=False)


def store_bytes(store: ShardStore):
    """Relative path -> bytes, excluding the ``fleet.json`` telemetry
    sidecar (how the sweep ran is exactly what chaos perturbs; *what* it
    produced must not move)."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*"))
        if path.is_file() and path.name != "fleet.json"
    }


@contextlib.contextmanager
def spawn_worker():
    """One real TCP campaign worker subprocess; yields its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stdout.readline().strip()
        yield re.search(r"listening on (\S+:\d+)$", banner).group(1)
    finally:
        process.terminate()
        process.wait(timeout=10)


@pytest.fixture(autouse=True)
def fast_liveness(monkeypatch):
    """Shrink the liveness constants so failure detection takes tenths of
    seconds instead of the production tens."""
    monkeypatch.setattr(SocketExecutor, "HEARTBEAT_INTERVAL", 0.3)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_BASE", 0.05)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_CAP", 0.2)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_ATTEMPTS", 3)


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """The uninterrupted serial sweep every chaos store must match."""
    root = tmp_path_factory.mktemp("chaos-reference")
    SweepOrchestrator(ShardStore(root), SPEC, chunk_size=2).run()
    return ShardStore(root)


def run_chaos_sweep(root, addresses, fallback=True):
    campaign = SPEC.campaign_config(workers=tuple(addresses),
                                    fallback=fallback)
    orchestrator = SweepOrchestrator(ShardStore(root), SPEC,
                                     campaign=campaign, chunk_size=2)
    return orchestrator.run()


#: Each schedule injects a different failure mode on the wire.  ``skip``
#: values stagger the events into the middle of the cell so some chunks
#: complete cleanly before the fault and some after the recovery.
SCHEDULES = {
    "kill": [
        {"action": "kill", "on": "records", "direction": "s2c", "skip": 1},
    ],
    "stall": [
        {"action": "stall", "on": "records", "direction": "s2c"},
    ],
    "truncate": [
        {"action": "truncate", "on": "records", "direction": "s2c",
         "skip": 1},
    ],
    "corrupt": [
        {"action": "corrupt", "on": "records", "direction": "s2c"},
    ],
    "corrupt-toward-worker": [
        {"action": "corrupt", "on": "run", "direction": "c2s", "skip": 1},
    ],
    "kill-then-corrupt": [
        {"action": "kill", "on": "records", "direction": "s2c"},
        {"action": "corrupt", "on": "records", "direction": "s2c"},
    ],
}


class TestChaosSchedules:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_schedule_yields_byte_identical_store(self, tmp_path,
                                                  reference_store, name):
        schedule = SCHEDULES[name]
        root = tmp_path / "store"
        with spawn_worker() as address, \
                ChaosProxy(address, schedule) as proxy:
            report = run_chaos_sweep(root, [proxy.address])
            assert proxy.events_fired == len(schedule), \
                f"schedule {name!r} never fully fired"
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)
        # The injected fault must actually have been *survived*, not
        # missed: the executor retried at least one chunk lease.
        retries = sum(counters.get("retries", 0) for counters
                      in report.fleet.get("workers", {}).values())
        assert retries >= 1


class TestFleetLoss:
    #: Blackhole after the 3rd records frame: the first orchestrator
    #: chunk (2 runs) lands remotely and persists, then the fleet dies
    #: mid-cell with one chunk in flight.
    SCHEDULE = [{"action": "blackhole", "on": "records", "direction": "s2c",
                 "skip": 2}]

    def test_total_loss_degrades_to_local_with_one_warning(
            self, tmp_path, reference_store):
        root = tmp_path / "store"
        with spawn_worker() as address, \
                ChaosProxy(address, self.SCHEDULE) as proxy:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = run_chaos_sweep(root, [proxy.address])
        fleet_warnings = [w for w in caught
                          if "falling back to local" in str(w.message)]
        assert len(fleet_warnings) == 1  # loud, but exactly once
        assert report.fleet["fallback_runs"] > 0
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)
        # Satellite: the counters are persisted for `status` to surface.
        persisted = ShardStore(root).read_fleet_stats()
        assert persisted["fallback_runs"] == report.fleet["fallback_runs"]

    def test_total_loss_without_fallback_aborts_then_resumes(
            self, tmp_path, reference_store):
        """--no-fallback: the sweep aborts with FleetLostError instead of
        degrading, and a later (serial) invocation resumes the partial
        store to byte-identity — mid-cell executor collapse loses no
        persisted work and corrupts nothing."""
        root = tmp_path / "store"
        with spawn_worker() as address, \
                ChaosProxy(address, self.SCHEDULE) as proxy:
            with pytest.raises(FleetLostError, match="fallback disabled"):
                run_chaos_sweep(root, [proxy.address], fallback=False)
        partial = store_bytes(ShardStore(root))
        reference = store_bytes(reference_store)
        assert partial != reference
        # The chunks that completed before the collapse are intact...
        assert all(reference[path].startswith(partial[path])
                   for path in partial if path.endswith(".jsonl"))
        # ...and a serial resume fills in exactly the missing runs.
        report = SweepOrchestrator(ShardStore(root), SPEC,
                                   chunk_size=2).run()
        assert 0 < report.runs_executed < 4
        assert store_bytes(ShardStore(root)) == reference
