"""Campaign-as-a-service tests (ISSUE 8).

Covers the service layer end to end: the ``CampaignSpec`` canonical
codec and content addressing, the byte-compatibility of spec-pinned
``meta.json`` with the pre-service orchestrator, the asyncio daemon's
HTTP API, the content-addressed cache semantics (identical resubmission
= zero executor invocations; partial overlap schedules only the missing
cells; concurrent overlapping specs never duplicate a cell), worker
auto-registration, and the service-smoke scenario: a daemon-run campaign
over a fleet that loses a worker mid-campaign still produces a store
byte-identical to a serial sweep.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import submit
from repro.apps import suite_apps
from repro.core import ShardStore, StoppingRule
from repro.exec import SocketExecutor
from repro.service import CampaignService, CampaignSpec, ServiceClient
from repro.service.client import ServiceError
from repro.service.daemon import WorkerRegistry
from repro.sim import ProtectionMode

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Tiny adpcm grid: fast enough to sweep many times per test module.
QUICK = dict(suite="small", runs_per_cell=3, base_seed=11, apps=("adpcm",),
             errors=(0, 2), include_table2=False)


def quick_spec(**overrides) -> CampaignSpec:
    return CampaignSpec(**{**QUICK, **overrides})


def store_bytes(store: ShardStore):
    """Relative path -> bytes for a store's record payload.

    Excludes the fleet.json telemetry sidecar and dot-named control
    files (the ``.lock`` advisory lock) — neither carries record bytes.
    """
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*"))
        if path.is_file() and path.name != "fleet.json"
        and not path.name.startswith(".")
    }


# ----------------------------------------------------------------------
# CampaignSpec: canonical codec + content addressing.
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_roundtrip_through_canonical_json(self):
        spec = quick_spec()
        again = CampaignSpec.from_json(json.loads(spec.canonical()))
        assert again == spec
        assert again.cache_key == spec.cache_key

    def test_defaults_are_elided_so_equal_specs_encode_equally(self):
        # A spec spelled with explicit defaults must hash identically to
        # one that never mentioned them.
        explicit = CampaignSpec(suite="small", runs_per_cell=8,
                                base_seed=2006, workloads=1,
                                model="control-bit", include_table2=True)
        implicit = CampaignSpec()
        assert explicit.to_json() == {} == implicit.to_json()
        assert explicit.cache_key == implicit.cache_key

    def test_adaptive_spec_roundtrips_and_elides_runs(self):
        spec = quick_spec(stopping=StoppingRule(ci_width=25.0, floor=2,
                                                cap=8))
        encoded = spec.to_json()
        assert "runs_per_cell" not in encoded
        assert encoded["stopping"]["ci_width"] == 25.0
        assert CampaignSpec.from_json(encoded) == spec

    def test_unknown_fields_are_refused_not_dropped(self):
        with pytest.raises(ValueError, match="unknown campaign spec field"):
            CampaignSpec.from_json({"runs_per_cel": 4})

    @pytest.mark.parametrize("bad", [
        {"suite": "huge"},
        {"runs_per_cell": 0},
        {"workloads": 0},
        {"modes": []},
        {"modes": ["armored"]},
        {"errors": [-1]},
        {"apps": []},
        {"apps": ["dhrystone"]},
        {"apps": [["adpcm"]]},
    ])
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            CampaignSpec.from_json(bad)

    def test_coverage_changes_job_key_but_not_store_key(self):
        narrow = quick_spec(errors=(0,))
        wide = quick_spec(errors=(0, 2))
        assert narrow.cache_key != wide.cache_key
        assert narrow.store_key == wide.store_key  # same record bytes

    def test_content_changes_both_keys(self):
        assert quick_spec().store_key != quick_spec(base_seed=12).store_key
        assert quick_spec().cache_key != quick_spec(base_seed=12).cache_key

    @pytest.mark.parametrize("spec, pinned", [
        (quick_spec(),
         b'{\n  "base_seed": 11,\n  "model": "control-bit",\n'
         b'  "runs_per_cell": 3,\n  "schema": "sweep-store-v1",\n'
         b'  "suite": "small",\n  "workloads": 1\n}\n'),
        (quick_spec(workloads=2, stopping=StoppingRule(ci_width=25.0,
                                                       floor=2, cap=8)),
         b'{\n  "base_seed": 11,\n  "ci_width": 25.0,\n'
         b'  "confidence": 0.95,\n  "model": "control-bit",\n'
         b'  "run_cap": 8,\n  "run_floor": 2,\n'
         b'  "schema": "sweep-store-v2-adaptive",\n  "suite": "small",\n'
         b'  "workloads": 2\n}\n'),
    ], ids=["fixed", "adaptive"])
    def test_store_meta_bytes_are_pinned(self, tmp_path, spec, pinned):
        # The on-disk format of meta.json: existing stores must keep
        # resuming, so these bytes never change.
        submit(spec, tmp_path / "store")
        written = (tmp_path / "store" / "meta.json").read_bytes()
        assert written == pinned
        assert json.loads(written) == spec.store_meta()

    def test_from_store_meta_rebuilds_content_parameters(self, tmp_path):
        spec = quick_spec(stopping=StoppingRule(ci_width=25.0, floor=2,
                                                cap=8))
        rebuilt = CampaignSpec.from_store_meta(spec.store_meta())
        assert rebuilt.store_key == spec.store_key
        assert rebuilt.stopping == spec.stopping


# ----------------------------------------------------------------------
# Local cache semantics through the api facade.
# ----------------------------------------------------------------------
class TestCacheSemantics:
    def test_identical_resubmission_executes_nothing(self, tmp_path):
        spec = quick_spec()
        first = submit(spec, tmp_path / "store")
        assert first["state"] == "complete"
        assert first["report"]["runs_executed"] == 12
        assert first["executors_started"] >= 1
        again = submit(spec, tmp_path / "store")
        assert again["state"] == "complete"
        assert again["report"]["runs_executed"] == 0
        assert again["report"]["runs_reused"] == 12
        # The cache-hit contract: no executor backend is even built.
        assert again["executors_started"] == 0

    def test_partial_overlap_schedules_only_missing_cells(self, tmp_path):
        submit(quick_spec(errors=(0,)), tmp_path / "store")
        wide = submit(quick_spec(errors=(0, 2)), tmp_path / "store")
        # 4 cells of 3 runs; the two e=0 cells are already on disk.
        assert wide["report"]["runs_reused"] == 6
        assert wide["report"]["runs_executed"] == 6
        assert wide["state"] == "complete"

    def test_spec_driven_store_is_byte_identical_to_cli_store(self, tmp_path,
                                                              capsys):
        submit(quick_spec(), tmp_path / "api")
        assert main(["sweep", "--store", str(tmp_path / "cli"),
                     "--suite", "small", "--runs", "3", "--base-seed", "11",
                     "--apps", "adpcm", "--errors", "0", "2",
                     "--no-table2-points"]) == 0
        capsys.readouterr()
        assert (store_bytes(ShardStore(tmp_path / "api"))
                == store_bytes(ShardStore(tmp_path / "cli")))


# ----------------------------------------------------------------------
# Worker registry.
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def test_heartbeats_expire_after_the_ttl(self):
        registry = WorkerRegistry(ttl=0.2)
        registry.register("127.0.0.1:7006")
        assert registry.live() == ["127.0.0.1:7006"]
        time.sleep(0.3)
        assert registry.live() == []

    def test_deregister_drops_immediately(self):
        registry = WorkerRegistry(ttl=60.0)
        registry.register("127.0.0.1:7006")
        registry.forget("127.0.0.1:7006")
        assert registry.live() == []

    def test_malformed_addresses_are_refused(self):
        registry = WorkerRegistry()
        with pytest.raises(ValueError):
            registry.register("not-an-address")

    def test_live_is_safe_against_concurrent_expiry_and_registration(self):
        # Regression: live() used to rebind the underlying dict while
        # pruning, so a register() racing the prune could land in the
        # abandoned dict and be lost.  With a 0 TTL every entry expires
        # instantly, maximising prune traffic; hammer live() and
        # register() from threads and require no exception and no
        # corrupted registry.
        registry = WorkerRegistry(ttl=0.0)
        stop = threading.Event()
        errors = []

        def hammer(action):
            try:
                while not stop.is_set():
                    action()
            except Exception as exc:  # pragma: no cover — the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer,
                             args=(lambda: registry.register(
                                 "127.0.0.1:7006"),)),
            threading.Thread(target=hammer, args=(registry.live,)),
            threading.Thread(target=hammer, args=(registry.snapshot,)),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        # A registration that happened after the last prune is visible
        # through a positive-TTL read of the same (never-rebound) dict.
        registry.register("127.0.0.1:7006")
        registry.ttl = 60.0
        assert registry.live() == ["127.0.0.1:7006"]


# ----------------------------------------------------------------------
# The daemon over real HTTP.
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path):
    daemon = CampaignService(tmp_path / "cache")
    daemon.start_in_background()
    yield daemon
    daemon.shutdown()


class TestDaemonHttp:
    def test_submit_wait_and_read_results(self, service):
        client = ServiceClient(service.url)
        assert client.health()["status"] == "ok"
        spec = quick_spec()
        job = client.submit(spec)
        assert job["state"] in ("queued", "running", "complete")
        final = client.wait(job["job"], timeout=300)
        assert final["state"] == "complete"
        assert final["report"]["cells_complete"] == 4
        # Results come straight from the daemon's content-addressed store.
        payload = client.results(job["job"], "adpcm", "protected", 2)
        store = service.store_for(spec)
        records = store.load_records("adpcm", ProtectionMode.PROTECTED, 2)
        assert payload["records"] == [record.to_json() for record in records]
        status = client.status(job["job"], cells=True)
        assert len(status["cells"]) == 4
        assert all(cell["complete"] for cell in status["cells"])

    def test_cells_payload_matches_status_json(self, service, capsys):
        # The daemon's ?cells=1 entries and `status --json` share one
        # encoding, SweepStatus.to_json.
        client = ServiceClient(service.url)
        spec = quick_spec()
        client.wait(client.submit(spec)["job"], timeout=300)
        cells = client.status(spec.cache_key, cells=True)["cells"]
        assert main(["status", "--store", str(service.store_for(spec).root),
                     "--json", "--apps", "adpcm", "--errors", "0", "2",
                     "--no-table2-points"]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == cells

    def test_resubmission_coalesces_onto_the_same_job(self, service):
        client = ServiceClient(service.url)
        spec = quick_spec()
        first = client.wait(client.submit(spec)["job"], timeout=300)
        executed = first["report"]["runs_executed"]
        again = client.submit(spec)
        # Same job object, no new work queued.
        assert again["job"] == first["job"]
        assert again["state"] == "complete"
        assert again["report"]["runs_executed"] == executed

    def test_warm_store_resubmission_is_a_pure_cache_hit(self, tmp_path,
                                                         service):
        # A *restarted* daemon (journal-restored job table, same cache
        # root) re-verifies a resubmitted finished spec through the
        # cache: zero runs executed, zero executor backends constructed.
        client = ServiceClient(service.url)
        spec = quick_spec()
        client.wait(client.submit(spec)["job"], timeout=300)
        service.shutdown()
        reborn = CampaignService(service.root)
        reborn.start_in_background()
        try:
            client = ServiceClient(reborn.url)
            final = client.wait(client.submit(spec)["job"], timeout=60)
            assert final["state"] == "complete"
            assert final["report"]["runs_executed"] == 0
            assert final["report"]["runs_reused"] == 12
            assert final["executors_started"] == 0
        finally:
            reborn.shutdown()

    def test_concurrent_overlapping_specs_never_duplicate_a_cell(self,
                                                                 service):
        # Two clients race overlapping coverage; the single-flight
        # scheduler means the union of cells is computed exactly once.
        client = ServiceClient(service.url)
        narrow = quick_spec(errors=(0,))
        wide = quick_spec(errors=(0, 2))
        jobs = [client.submit(narrow)["job"], client.submit(wide)["job"]]
        finals = [client.wait(job, timeout=300) for job in jobs]
        assert all(final["state"] == "complete" for final in finals)
        executed = sum(final["report"]["runs_executed"] for final in finals)
        # 4 distinct cells x 3 runs across both jobs, no cell twice.
        assert executed == 12

    def test_bad_spec_is_a_400_with_the_validation_message(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="unknown campaign spec"):
            client._request("POST", "/v1/campaigns", body={"bogus": 1})

    def test_unknown_app_is_a_400_before_any_job_exists(self, service):
        # Refused at validation: never journalled, never given a lane.
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError,
                           match="unknown application 'dhrystone'") as excinfo:
            client._request("POST", "/v1/campaigns",
                            body={"apps": ["dhrystone"]})
        assert excinfo.value.status == 400
        assert client.jobs() == []
        assert not (service.root / "jobs.jsonl").exists() \
            or "dhrystone" not in (service.root / "jobs.jsonl").read_text()

    def test_unknown_job_is_a_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="unknown campaign job"):
            client.status("deadbeef")

    def test_unknown_path_is_a_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError):
            client._request("GET", "/v2/nothing")

    def test_tables_render_from_the_job_store(self, service):
        client = ServiceClient(service.url)
        # Cover adpcm's Table 2 operating points so table 2 can render.
        spec = quick_spec(errors=None, include_table2=True)
        job = client.wait(client.submit(spec)["job"], timeout=600)
        assert job["state"] == "complete"
        text = client.tables(job["job"], [2])
        assert "Table 2" in text

    def test_worker_registration_over_http(self, service):
        client = ServiceClient(service.url)
        client.register_worker("127.0.0.1:7006")
        assert [entry["address"] for entry in client.workers()] \
            == ["127.0.0.1:7006"]
        client.register_worker("127.0.0.1:7006", deregister=True)
        assert client.workers() == []


# ----------------------------------------------------------------------
# Distributed service smoke: registered fleet + worker loss.
# ----------------------------------------------------------------------
def spawn_worker(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--listen",
         "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    banner = process.stdout.readline().strip()
    address = re.search(r"listening on (\S+:\d+)$", banner).group(1)
    return process, address


@pytest.fixture()
def fast_liveness(monkeypatch):
    """Shrink liveness constants so losing a worker costs tenths of
    seconds, not the production tens (daemon jobs run in this process)."""
    monkeypatch.setattr(SocketExecutor, "HEARTBEAT_INTERVAL", 0.3)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_BASE", 0.05)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_CAP", 0.2)
    monkeypatch.setattr(SocketExecutor, "RECONNECT_ATTEMPTS", 3)


SMOKE_SPEC = CampaignSpec(suite="small", runs_per_cell=4, base_seed=23,
                          apps=("susan",), modes=("protected",),
                          errors=(3,), include_table2=False)


class TestServiceSmoke:
    def test_fleet_loss_mid_campaign_stays_byte_identical(self, tmp_path,
                                                          fast_liveness):
        # The CI service-smoke scenario: daemon + two registered workers,
        # one killed mid-campaign; the store must be byte-identical to a
        # serial sweep of the same spec.
        serial_root = tmp_path / "serial"
        submit(SMOKE_SPEC, serial_root)

        daemon = CampaignService(tmp_path / "cache", worker_ttl=30.0)
        daemon.start_in_background()
        workers = [spawn_worker() for _ in range(2)]
        try:
            client = ServiceClient(daemon.url)
            for _process, address in workers:
                client.register_worker(address)
            victim = workers[0][0]
            killer = threading.Timer(0.5, victim.kill)
            killer.start()
            job = client.submit(SMOKE_SPEC)
            final = client.wait(job["job"], timeout=600)
            killer.cancel()
            assert final["state"] == "complete"
            fleet = final["report"]["fleet"]
            assert fleet, "campaign did not run on the registered fleet"
            assert store_bytes(daemon.store_for(SMOKE_SPEC)) \
                == store_bytes(ShardStore(serial_root))
        finally:
            for process, _address in workers:
                process.kill()
                process.wait(timeout=10)
            daemon.shutdown()

    def test_late_worker_joins_via_fleet_source(self):
        # A socket executor whose fleet_source reports a new address
        # folds it in as a fresh slot — the mechanism that lets workers
        # register mid-campaign and join at the next chunk boundary.
        spec = CampaignSpec(runs_per_cell=4, base_seed=23)
        executor = SocketExecutor([suite_apps("small")["susan"]],
                                  spec.campaign_config())
        fleet = []
        executor.fleet_source = lambda: list(fleet)
        fleet.append("127.0.0.1:7006")
        executor._refresh_fleet()
        assert [slot.address for slot in executor._slots] \
            == ["127.0.0.1:7006"]
        # Duplicate and malformed registry entries never crash a campaign.
        fleet.extend(["127.0.0.1:7006", "bogus"])
        executor._refresh_fleet()
        assert [slot.address for slot in executor._slots] \
            == ["127.0.0.1:7006"]
        # A registry that throws is ignored, not fatal.
        executor.fleet_source = lambda: 1 / 0
        executor._refresh_fleet()
        executor.close()
