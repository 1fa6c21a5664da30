"""Tests of the pluggable executor subsystem (:mod:`repro.exec`).

The contract under test: every backend — in-process serial, local process
pool, TCP socket workers — produces a RunRecord stream bit-identical to
the serial reference under the same seeds, because injection plans derive
purely from ``(base_seed, run_index, errors)``.
"""

import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import create_app, registry
from repro.core import CampaignConfig
from repro.core.campaign import usable_cpus
from repro.exec import (
    PROTOCOL_VERSION,
    PoolExecutor,
    SerialExecutor,
    SocketExecutor,
    create_executor,
    parse_worker_address,
    resolve_executor_name,
)
from repro.exec.local import start_pool, stop_pool
from repro.experiments import live_campaign
from repro.sim import InjectionPlan, ProtectionMode, executing_engine

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def adpcm():
    return create_app("adpcm", samples=300)


@pytest.fixture(scope="module")
def serial_records(adpcm):
    """Reference records: one cell on the serial executor."""
    return live_campaign(adpcm, CampaignConfig(runs=5, base_seed=11), 4,
                         ProtectionMode.PROTECTED).records


def _spawn_worker(*extra_args):
    """Start ``python -m repro.exec.worker`` and return (process, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--listen", "127.0.0.1:0",
         *extra_args],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    banner = process.stdout.readline().strip()
    match = re.search(r"listening on (\S+:\d+)$", banner)
    assert match, f"unexpected worker banner: {banner!r}"
    return process, match.group(1)


@pytest.fixture(scope="module")
def worker_addresses():
    workers = [_spawn_worker() for _ in range(2)]
    yield [address for _, address in workers]
    for process, _ in workers:
        process.terminate()
        process.wait(timeout=10)


class TestExecutorResolution:
    @pytest.mark.parametrize("workers, parallel, engine, backend", [
        ((), 1, "fork", SerialExecutor),
        ((), 1, "batch", SerialExecutor),
        ((), 1, "decoded", SerialExecutor),
        ((), 2, "fork", PoolExecutor),
        ((), 4, "batch", PoolExecutor),
        (("127.0.0.1:1",), 1, "fork", SocketExecutor),
        (("127.0.0.1:1",), 4, "batch", SocketExecutor),
        ((), 4, "decoded", PoolExecutor),
        (("127.0.0.1:1",), 4, "decoded", SocketExecutor),
    ])
    def test_backend_is_a_function_of_the_config(self, adpcm, workers,
                                                 parallel, engine, backend):
        """workers -> socket, parallel > 1 -> pool, otherwise serial; the
        engine never picks the backend."""
        config = CampaignConfig(runs=4, workers=workers, parallel=parallel,
                                engine=engine)
        assert resolve_executor_name(config) == backend.name
        assert type(create_executor([adpcm], config)) is backend

    def test_default_parallel_is_the_usable_cpu_count(self, adpcm):
        config = CampaignConfig(runs=4)
        assert config.parallel == usable_cpus()
        backend = PoolExecutor if usable_cpus() > 1 else SerialExecutor
        assert resolve_executor_name(config) == backend.name
        assert type(create_executor([adpcm], config)) is backend

    def test_one_usable_cpu_runs_serially(self, adpcm, monkeypatch):
        """The affinity mask, not the machine, sets the defaults: on one
        usable CPU a default config is serial and the daemon gets one
        lane."""
        from repro.service.daemon import default_lanes

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_executor_name(CampaignConfig(runs=4)) == "serial"
        assert default_lanes() == 1

    def test_pending_runs_cap_the_pool_width(self, adpcm):
        config = CampaignConfig(runs=4, parallel=4)
        assert create_executor([adpcm], config, pending=3).config.parallel == 3
        assert type(create_executor([adpcm], config, pending=1)) \
            is SerialExecutor
        assert type(create_executor([adpcm], config, pending=8)) \
            is PoolExecutor

    def test_parse_worker_address(self):
        assert parse_worker_address("host:7006") == ("host", 7006)
        assert parse_worker_address(":7006") == ("127.0.0.1", 7006)
        with pytest.raises(ValueError, match="invalid worker address"):
            parse_worker_address("no-port")

    def test_worker_banner_round_trips_through_the_parser(self):
        """The banner is how callers learn --workers addresses, so the
        worker must advertise a form its own parser accepts — including
        bracketed IPv6 hosts."""
        import io

        from repro.exec.worker import serve

        for host in ("127.0.0.1", "::1"):
            stream = io.StringIO()
            try:
                # max_sessions=0: bind, print the banner, exit.
                serve(host=host, port=0, max_sessions=0,
                      banner_stream=stream)
            except OSError:
                continue  # no IPv6 loopback in this environment
            address = stream.getvalue().strip().rpartition(" ")[2]
            assert parse_worker_address(address)[0] == host

    def test_parse_worker_address_ipv6_brackets_are_stripped(self):
        # socket.create_connection wants the bare host, not the URI form.
        assert parse_worker_address("[::1]:9999") == ("::1", 9999)
        assert parse_worker_address("[fe80::2%eth0]:80") == ("fe80::2%eth0", 80)

    @pytest.mark.parametrize("address, match", [
        ("::1:9999", "bracket IPv6 hosts"),      # every split is a valid v6
        ("[::1]9999", "invalid worker address"),  # no colon after bracket
        ("[]:80", "invalid worker address"),      # empty host
        ("[::1]:", "port must be a decimal"),
        ("host:٩٩", "port must be a decimal"),  # Arabic-Indic ٩٩
        ("host:²", "port must be a decimal"),        # '²' passes isdigit
        ("host:99999", "out of range"),
        ("host:0", "out of range"),  # bind-side wildcard, never a target
    ])
    def test_parse_worker_address_rejects_ambiguous_forms(self, address,
                                                          match):
        with pytest.raises(ValueError, match=match):
            parse_worker_address(address)


class TestConfigValidation:
    """CampaignConfig fails fast instead of deep inside the run loop."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"runs": 0}, "runs must be >= 1"),
        ({"runs": -3}, "runs must be >= 1"),
        ({"parallel": 0}, "parallel must be >= 1"),
        ({"workloads": 0}, "workloads must be >= 1"),
        ({"engine": "quantum"}, "unknown engine 'quantum'"),
    ])
    def test_invalid_configs_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CampaignConfig(**kwargs)

    def test_valid_engines_accepted(self):
        for engine in ("fork", "batch", "decoded", "reference"):
            CampaignConfig(engine=engine)

    def test_batch_is_a_spelling_of_fork(self):
        assert CampaignConfig(engine="batch").engine == "fork"

    def test_workers_normalised_to_tuple(self):
        config = CampaignConfig(workers=["a:1", "b:2"])
        assert config.workers == ("a:1", "b:2")


class TestWarmStart:
    @pytest.mark.parametrize("options, checkpoints", [
        ({"engine": "fork"}, True),
        ({"engine": "batch"}, True),
        ({"engine": "decoded"}, False),
        ({"engine": "fork", "model": "memory-bit"}, False),
        ({"engine": "fork", "parallel": 2}, True),
        ({"engine": "decoded", "parallel": 2}, False),
    ], ids=["fork", "batch", "decoded", "memory-bit", "pool",
            "pool-decoded"])
    def test_start_warms_the_campaign_goldens(self, options, checkpoints):
        """Entering an executor caches the golden run of every workload
        seed of every application, plus its checkpoint store exactly when
        injected runs fork — a pool warms both before its workers start,
        so they inherit them."""
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, workloads=2,
                                **{"parallel": 1, **options})
        with create_executor(apps, config):
            for app in apps:
                assert sorted(app._goldens) == [0, 1]
                built = app.golden(0).checkpoint_store is not None
                assert built is checkpoints

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers share the parent's "
                               "objects")
    def test_pool_workers_run_on_the_parents_warm_apps(self):
        """A sweep's pool seeds its workers' warm-app caches with the
        parent's applications, so no worker runs a golden run or builds
        a checkpoint store of its own."""
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, workloads=2, parallel=2)
        with create_executor(apps, config) as executor:
            list(executor.run(_two_app_tasks()))
            warm = {registry._cache_key(app.name, app.wire_params()):
                    _warm_state(app) for app in apps}
            with multiprocessing.Manager() as manager:
                barrier = manager.Barrier(2)
                futures = [executor._pool.submit(_worker_warm_state,
                                                 barrier, sorted(warm))
                           for _ in range(2)]
                states = [future.result(timeout=120) for future in futures]
        assert states == [warm, warm]


def _warm_state(app) -> tuple:
    """An application's identity and its goldens' checkpoint stores."""
    return id(app), {seed: id(golden.checkpoint_store)
                     for seed, golden in app._goldens.items()}


def _worker_warm_state(barrier, keys) -> dict:
    """``_warm_state`` of a pool worker's cached apps; the barrier holds
    each worker until all have taken one probe."""
    barrier.wait(timeout=60)
    return {key: _warm_state(registry._APP_CACHE[key]) for key in keys}


class TestSerialExecutor:
    def test_matches_run_campaign(self, adpcm, serial_records):
        config = CampaignConfig(runs=5, base_seed=11)
        with SerialExecutor([adpcm], config) as executor:
            records = list(executor.run(
                [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]))
        assert records == serial_records

    def test_subset_of_indices(self, adpcm, serial_records):
        """Partial cells (the resume path) reproduce exactly those records."""
        config = CampaignConfig(runs=5, base_seed=11)
        with SerialExecutor([adpcm], config) as executor:
            records = list(executor.run(
                [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in (1, 3)]))
        assert records == [serial_records[1], serial_records[3]]

    @pytest.mark.parametrize("engine", ["fork", "batch", "decoded"])
    def test_injection_free_runs_reuse_the_golden_run(self, adpcm, engine,
                                                      monkeypatch):
        """errors=0 and NONE-mode records are built from the memoized
        golden result: equal to a decoded re-simulation, with no
        ``Machine.run``."""
        from repro.exec import base as exec_base
        from repro.sim import Machine

        config = CampaignConfig(runs=3, base_seed=11, engine=engine)
        tasks = [("adpcm", 0, 0, ProtectionMode.PROTECTED),
                 ("adpcm", 1, 0, ProtectionMode.UNPROTECTED),
                 ("adpcm", 2, 4, ProtectionMode.NONE)]
        expected = []
        for _app_name, run_index, errors, mode in tasks:
            seed = config.workload_seed_for(run_index)
            machine = Machine(adpcm.program())
            adpcm.apply_workload(machine, adpcm.workload(seed))
            run = machine.run(max_instructions=adpcm.golden(seed).watchdog_budget)
            expected.append(exec_base._build_record(
                adpcm, config, run_index, errors, mode, None, run, seed))

        def no_simulation(*args, **kwargs):
            raise AssertionError("an injection-free run was simulated")

        monkeypatch.setattr(Machine, "run", no_simulation)
        assert exec_base.make_records({"adpcm": adpcm}, config,
                                      tasks) == expected
        assert [exec_base.make_record(adpcm, config, *task[1:])
                for task in tasks] == expected


class TestDegradeRule:
    """One rule decides when fork requests run on the decoded engine.

    The rule sees the engine a campaign config resolved, so
    ``engine="batch"`` reaches it as ``"fork"``.
    """

    @pytest.mark.parametrize("engine", ["fork", "batch", "decoded",
                                        "reference"])
    @pytest.mark.parametrize("targets", [[], [3]])
    @pytest.mark.parametrize("model, supports_fork", [
        ("control-bit", True),
        ("memory-bit", False),
    ])
    def test_executing_engine_table(self, engine, targets, model,
                                    supports_fork):
        plan = InjectionPlan(ProtectionMode.PROTECTED, targets, model=model)
        assert plan.fork_compatible is supports_fork
        engine = CampaignConfig(engine=engine).engine
        expected = ("decoded" if engine == "fork"
                    and not (targets and supports_fork) else engine)
        assert executing_engine(engine, plan) == expected

    @pytest.mark.parametrize("engine", ["fork", "batch", "decoded"])
    def test_no_plan_runs_decoded(self, engine):
        engine = CampaignConfig(engine=engine).engine
        assert executing_engine(engine, None) == "decoded"


class TestBatchEngine:
    """``engine="batch"`` is a spelling of the fork engine."""

    def test_batch_engine_matches_serial(self, adpcm, serial_records):
        """engine='batch' reproduces the fork-engine reference records
        bit for bit."""
        config = CampaignConfig(runs=5, base_seed=11, engine="batch")
        cell = live_campaign(adpcm, config, 4, ProtectionMode.PROTECTED)
        assert cell.records == serial_records

    def test_state_model_falls_back_to_decoded(self, adpcm):
        """memory-bit corrupts machine state, so engine='batch' silently
        degrades to decoded with identical records."""
        import warnings

        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(4)]
        config = CampaignConfig(runs=4, base_seed=11, engine="batch",
                                model="memory-bit")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with SerialExecutor([adpcm], config) as executor:
                records = list(executor.run(tasks))
        reference = CampaignConfig(runs=4, base_seed=11, engine="decoded",
                                   model="memory-bit")
        with SerialExecutor([adpcm], reference) as executor:
            expected = list(executor.run(tasks))
        assert records == expected


class TestPoolExecutor:
    def test_pool_matches_serial(self, adpcm, serial_records):
        config = CampaignConfig(runs=5, base_seed=11, parallel=2)
        cell = live_campaign(adpcm, config, 4, ProtectionMode.PROTECTED)
        assert cell.records == serial_records

    def test_close_cancels_queued_tasks(self, adpcm, monkeypatch):
        """An interrupted sweep must not wait for every queued run."""
        from concurrent.futures import ProcessPoolExecutor

        calls = []
        shutdown = ProcessPoolExecutor.shutdown

        def recording_shutdown(pool, *args, **kwargs):
            calls.append(kwargs)
            return shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "shutdown",
                            recording_shutdown)
        config = CampaignConfig(runs=4, base_seed=11, parallel=2)
        with PoolExecutor([adpcm], config) as executor:
            records = executor.run([("adpcm", index, 4,
                                     ProtectionMode.PROTECTED)
                                    for index in range(40)])
            next(records)
        assert calls == [{"cancel_futures": True}]

    def test_a_borrowed_pool_is_neither_warmed_nor_stopped(self,
                                                          serial_records,
                                                          monkeypatch):
        """An executor on a shared pool warms nothing in the parent, and
        its close cancels its own queued tasks but leaves the pool up."""
        from concurrent.futures import Future

        cancelled = []
        cancel = Future.cancel

        def recording_cancel(future):
            cancelled.append(cancel(future))
            return cancelled[-1]

        monkeypatch.setattr(Future, "cancel", recording_cancel)
        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(40)]
        config = CampaignConfig(runs=5, base_seed=11, parallel=2)
        app = create_app("adpcm", samples=300)
        pool = start_pool(2)
        try:
            first, second = (PoolExecutor([app], config) for _ in range(2))
            for executor in (first, second):
                executor.shared_pool = pool
            with first:
                records = first.run(tasks)
                next(records)
            assert any(cancelled)
            assert app._goldens == {}
            with second:
                assert list(second.run(tasks[:5])) == serial_records
        finally:
            stop_pool(pool)

    def test_interrupt_during_close_still_stops_the_workers(self, adpcm,
                                                            monkeypatch):
        """A second Ctrl-C while the pool shuts down is held until the
        workers are stopped; abandoning them hangs the interpreter at
        exit."""
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        shutdown = ProcessPoolExecutor.shutdown

        def interrupted_shutdown(pool, *args, **kwargs):
            os.kill(os.getpid(), signal.SIGINT)
            return shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "shutdown",
                            interrupted_shutdown)
        config = CampaignConfig(runs=4, base_seed=11, parallel=2)
        with pytest.raises(KeyboardInterrupt):
            with PoolExecutor([adpcm], config) as executor:
                next(executor.run([("adpcm", index, 4,
                                    ProtectionMode.PROTECTED)
                                   for index in range(8)]))
        assert multiprocessing.active_children() == []


def _two_app_tasks():
    """Tasks that cross application boundaries, back and forth."""
    return ([("adpcm", index, 2, ProtectionMode.PROTECTED)
             for index in range(3)]
            + [("gsm", index, 4, ProtectionMode.UNPROTECTED)
               for index in range(3)]
            + [("adpcm", index, 0, ProtectionMode.UNPROTECTED)
               for index in range(2)])


@pytest.fixture(scope="module")
def two_app_records():
    """Each task's record, built on its own in-process."""
    from repro.exec.base import make_record

    apps = {"adpcm": create_app("adpcm", samples=300),
            "gsm": create_app("gsm", frames=2)}
    config = CampaignConfig(runs=3, base_seed=5, parallel=1)
    return [make_record(apps[name], config, *task)
            for name, *task in _two_app_tasks()]


class TestTaskOrder:
    """One executor serves several applications; ``run`` yields records
    in task order across application boundaries on every backend."""

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_local_backends(self, two_app_records, parallel):
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, base_seed=5, parallel=parallel)
        with create_executor(apps, config) as executor:
            assert executor.name == ("pool" if parallel > 1 else "serial")
            assert list(executor.run(_two_app_tasks())) == two_app_records

    def test_socket_serves_every_app_in_one_session(self, two_app_records,
                                                    worker_addresses):
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, base_seed=5,
                                workers=tuple(worker_addresses))
        with create_executor(apps, config) as executor:
            records = list(executor.run(_two_app_tasks()))
            stats = executor.fleet_stats()
        assert records == two_app_records
        assert stats["fallback_runs"] == 0
        assert sum(counters["chunks_ok"]
                   for counters in stats["workers"].values()) > 0

    def test_socket_needs_one_session_per_worker(self):
        """A worker that serves a single session runs every application
        of the executor: no session is reopened at an app boundary."""
        process, address = _spawn_worker("--max-sessions", "1")
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, base_seed=5, workers=(address,),
                                fallback=False)
        try:
            with SocketExecutor(apps, config) as executor:
                records = list(executor.run(_two_app_tasks()))
        finally:
            process.terminate()
            process.wait(timeout=10)
        serial = CampaignConfig(runs=3, base_seed=5, parallel=1)
        with SerialExecutor(apps, serial) as executor:
            assert records == list(executor.run(_two_app_tasks()))

    def test_unreachable_fleet_degrades_once_across_apps(self,
                                                         two_app_records,
                                                         monkeypatch):
        """An adpcm, gsm, adpcm task list against a dead address dials it
        once and warns once; the executor stays local afterwards."""
        import warnings

        monkeypatch.setattr(SocketExecutor, "CONNECT_TIMEOUT", 0.5)
        apps = [create_app("adpcm", samples=300), create_app("gsm", frames=2)]
        config = CampaignConfig(runs=3, base_seed=5,
                                workers=("127.0.0.1:1",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with SocketExecutor(apps, config) as executor:
                records = list(executor.run(_two_app_tasks()))
                stats = executor.fleet_stats()
        fleet_warnings = [w for w in caught
                          if "falling back to local" in str(w.message)]
        assert len(fleet_warnings) == 1
        assert stats["workers"]["127.0.0.1:1"]["failures"] == 1
        assert stats["fallback_runs"] == len(_two_app_tasks())
        assert records == two_app_records


class TestSocketExecutor:
    def test_socket_matches_serial(self, adpcm, serial_records,
                                   worker_addresses):
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=tuple(worker_addresses))
        cell = live_campaign(adpcm, config, 4, ProtectionMode.PROTECTED)
        assert cell.records == serial_records

    def test_socket_serves_multiple_cells_per_session(self, adpcm,
                                                      worker_addresses):
        """One executor session shards a whole sweep, cell after cell."""
        config = CampaignConfig(runs=4, base_seed=23,
                                workers=tuple(worker_addresses))
        cells = [[("adpcm", index, errors, ProtectionMode.UNPROTECTED)
                  for index in range(4)] for errors in (0, 2, 6)]
        with create_executor([adpcm], config) as executor:
            socket_records = [list(executor.run(tasks)) for tasks in cells]
        reference = CampaignConfig(runs=4, base_seed=23)
        with SerialExecutor([adpcm], reference) as executor:
            serial_records = [list(executor.run(tasks)) for tasks in cells]
        assert socket_records == serial_records

    def test_workers_registered_mid_session_join(self, adpcm, serial_records,
                                                 worker_addresses,
                                                 monkeypatch):
        """The fleet source is re-queried at every chunk boundary, not
        only when a session opens: a daemon job's single ``run`` call
        still picks up workers that register while it runs."""
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=(worker_addresses[0],))
        queries = []

        def fleet():
            queries.append(len(queries))
            return list(worker_addresses[:1 + (len(queries) > 1)])

        monkeypatch.setattr(SocketExecutor, "RECONNECT_BASE", 0.01)
        executor = SocketExecutor([adpcm], config)
        executor.fleet_source = fleet
        with executor:
            records = list(executor.run(
                [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]))
            stats = executor.fleet_stats()
        assert records == serial_records
        assert len(queries) > 1
        assert sorted(stats["workers"]) == sorted(worker_addresses)

    def test_connect_failure_is_reported_without_fallback(self, adpcm,
                                                          monkeypatch):
        monkeypatch.setattr(SocketExecutor, "CONNECT_TIMEOUT", 0.5)
        config = CampaignConfig(runs=2,
                                workers=("127.0.0.1:1",), fallback=False)
        executor = SocketExecutor([adpcm], config)
        with pytest.raises(OSError, match="no socket workers reachable"):
            executor.start()

    def test_connect_failure_degrades_locally_by_default(self, adpcm,
                                                         serial_records,
                                                         monkeypatch):
        """Graceful degradation: an unreachable fleet produces the same
        records in-process, with exactly one loud warning."""
        import warnings

        monkeypatch.setattr(SocketExecutor, "CONNECT_TIMEOUT", 0.5)
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=("127.0.0.1:1",))
        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with SocketExecutor([adpcm], config) as executor:
                records = list(executor.run(tasks))
                # Still local, still no new warning.
                again = list(executor.run(tasks))
                stats = executor.fleet_stats()
        fleet_warnings = [w for w in caught
                          if "falling back to local" in str(w.message)]
        assert len(fleet_warnings) == 1
        assert records == serial_records
        assert again == serial_records
        assert stats["fallback_runs"] == 10


class _ScriptedWorker:
    """Minimal in-test worker whose post-handshake behaviour is a
    callable — the executor-facing failure modes (hangs, version skew)
    that a healthy real worker cannot exhibit."""

    def __init__(self, behaviour, sessions=1):
        import socket as socket_module
        import threading

        self._socket = socket_module
        self.server = socket_module.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self.server.getsockname()[1]
        self._thread = threading.Thread(
            target=self._serve, args=(behaviour, sessions), daemon=True)
        self._thread.start()

    def _serve(self, behaviour, sessions):
        for _ in range(sessions):
            try:
                connection, _address = self.server.accept()
            except OSError:
                return
            with connection:
                try:
                    behaviour(connection)
                except (OSError, ConnectionError):
                    pass
        self.server.close()

    def close(self):
        try:
            self.server.close()
        except OSError:
            pass


class TestSocketRobustness:
    """Liveness and handshake-failure behaviour of the wire protocol."""

    @pytest.fixture(autouse=True)
    def fast_liveness(self, monkeypatch):
        monkeypatch.setattr(SocketExecutor, "CONNECT_TIMEOUT", 5.0)
        monkeypatch.setattr(SocketExecutor, "HEARTBEAT_INTERVAL", 0.2)
        monkeypatch.setattr(SocketExecutor, "RECONNECT_ATTEMPTS", 1)
        monkeypatch.setattr(SocketExecutor, "RECONNECT_BASE", 0.01)

    def test_hung_worker_is_detected_and_degraded_around(self, adpcm,
                                                         serial_records):
        """Satellite: a worker that accepts a chunk and never replies —
        no records, no heartbeats — must trip the heartbeat timeout, not
        stall the cell forever (the settimeout(None) hang of protocol
        v1)."""
        import warnings

        from repro.exec import worker as worker_module
        from repro.exec.tcp import recv_frame, send_frame

        def accept_chunk_then_hang(connection):
            worker_module._handshake(connection, None)
            assert recv_frame(connection)["kind"] == "init"
            send_frame(connection, {"kind": "init-ok"})
            assert recv_frame(connection)["kind"] == "run"
            # Never reply; hold the socket open until the executor
            # gives up and closes it.
            while recv_frame(connection) is not None:
                pass

        hung = _ScriptedWorker(accept_chunk_then_hang)
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=(hung.address,))
        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with SocketExecutor([adpcm], config) as executor:
                    records = list(executor.run(tasks))
                    stats = executor.fleet_stats()
        finally:
            hung.close()
        assert records == serial_records
        assert any("falling back to local" in str(w.message) for w in caught)
        assert stats["workers"][hung.address]["retries"] >= 1
        assert stats["fallback_runs"] == 5

    def test_hung_worker_without_fallback_raises(self, adpcm):
        from repro.exec import FleetLostError
        from repro.exec import worker as worker_module
        from repro.exec.tcp import recv_frame, send_frame

        def accept_chunk_then_hang(connection):
            worker_module._handshake(connection, None)
            recv_frame(connection)
            send_frame(connection, {"kind": "init-ok"})
            recv_frame(connection)
            while recv_frame(connection) is not None:
                pass

        hung = _ScriptedWorker(accept_chunk_then_hang)
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=(hung.address,), fallback=False)
        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]
        try:
            with SocketExecutor([adpcm], config) as executor:
                with pytest.raises(FleetLostError, match="fallback disabled"):
                    list(executor.run(tasks))
        finally:
            hung.close()

    def test_version_mismatch_is_actionable_client_side(self, adpcm):
        """A peer speaking another protocol version is refused with a
        message naming both versions — never retried, never degraded."""
        from repro.exec import HandshakeError
        from repro.exec.tcp import recv_frame, send_frame

        def old_protocol(connection):
            assert recv_frame(connection)["kind"] == "hello"
            send_frame(connection, {"kind": "welcome", "protocol": 1,
                                    "nonce": "00", "auth": None})
            while recv_frame(connection) is not None:
                pass

        stale = _ScriptedWorker(old_protocol)
        config = CampaignConfig(runs=2,
                                workers=(stale.address,))
        try:
            executor = SocketExecutor([adpcm], config)
            with pytest.raises(HandshakeError,
                               match=rf"v1.*v{PROTOCOL_VERSION}"):
                executor.start()
        finally:
            stale.close()

    def test_version_mismatch_is_actionable_worker_side(self,
                                                        worker_addresses):
        """A real worker refuses a future-versioned hello with an error
        frame naming both versions."""
        import socket as socket_module

        from repro.exec.tcp import recv_frame, send_frame

        with socket_module.create_connection(
                parse_worker_address(worker_addresses[0]), timeout=10.0) as sock:
            send_frame(sock, {"kind": "hello", "protocol": 99,
                              "nonce": "00"})
            frame = recv_frame(sock)
        assert frame["kind"] == "error"
        assert "version mismatch" in frame["message"]
        assert "v99" in frame["message"]
        assert f"v{PROTOCOL_VERSION}" in frame["message"]

    @pytest.mark.parametrize("apps, tasks, refusal", [
        ([{"name": "adpcm"}, {"name": "adpcm"}], None, "named twice"),
        ([{"name": "no-such-app"}], None, "init payload rejected"),
        ([{"name": "adpcm"}], [["gsm", 0, 0, "protected"]], "not named"),
    ], ids=["duplicate", "unknown", "outside-session"])
    def test_worker_refuses_apps_outside_its_session(self, worker_addresses,
                                                     apps, tasks, refusal):
        """A session runs only the applications its init frame names,
        each named once."""
        import socket as socket_module

        from repro.exec.tcp import encode_config, recv_frame, send_frame

        with socket_module.create_connection(
                parse_worker_address(worker_addresses[0]), timeout=10.0) as sock:
            send_frame(sock, {"kind": "hello", "protocol": PROTOCOL_VERSION,
                              "nonce": "00"})
            assert recv_frame(sock)["kind"] == "welcome"
            send_frame(sock, {"kind": "auth", "mac": None})
            assert recv_frame(sock)["kind"] == "ready"
            send_frame(sock, {"kind": "init", "apps": apps, "heartbeat": 1.0,
                              "config": encode_config(CampaignConfig(runs=1))})
            if tasks is not None:
                assert recv_frame(sock)["kind"] == "init-ok"
                send_frame(sock, {"kind": "run", "tasks": tasks})
            frame = recv_frame(sock)
        assert frame["kind"] == "error"
        assert refusal in frame["message"]

    def test_secret_required_by_worker_is_actionable(self, adpcm):
        from repro.exec import HandshakeError

        process, address = _spawn_worker("--secret", "sesame")
        config = CampaignConfig(runs=2,
                                workers=(address,))
        try:
            with pytest.raises(HandshakeError, match="requires a shared "
                                                     "secret"):
                SocketExecutor([adpcm], config).start()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_wrong_secret_is_actionable(self, adpcm):
        from repro.exec import HandshakeError

        process, address = _spawn_worker("--secret", "sesame")
        config = CampaignConfig(runs=2,
                                workers=(address,), worker_secret="wrong")
        try:
            with pytest.raises(HandshakeError, match="HMAC verification"):
                SocketExecutor([adpcm], config).start()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_matching_secret_authenticates_and_runs(self, adpcm,
                                                    serial_records):
        process, address = _spawn_worker("--secret", "sesame")
        config = CampaignConfig(runs=5, base_seed=11,
                                workers=(address,), worker_secret="sesame")
        tasks = [("adpcm", index, 4, ProtectionMode.PROTECTED)
                 for index in range(5)]
        try:
            with SocketExecutor([adpcm], config) as executor:
                assert list(executor.run(tasks)) == serial_records
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_unauthenticated_worker_rejects_credentialed_executor(
            self, adpcm, worker_addresses):
        from repro.exec import HandshakeError

        config = CampaignConfig(runs=2,
                                workers=(worker_addresses[0],),
                                worker_secret="sesame")
        with pytest.raises(HandshakeError, match="did not authenticate"):
            SocketExecutor([adpcm], config).start()


class TestWireFraming:
    def test_oversized_frame_rejected_before_send(self, monkeypatch):
        """Satellite: the size check runs on the *send* side — emitting
        the frame and letting the peer drop it mid-read would desync the
        stream for both peers."""
        from repro.exec import tcp

        monkeypatch.setattr(tcp, "MAX_FRAME_BYTES", 64)
        with pytest.raises(tcp.FrameTooLargeError, match="protocol limit"):
            tcp.encode_frame({"kind": "records", "records": ["x" * 256]})

    def test_corrupt_payload_fails_crc(self):
        import socket as socket_module

        from repro.exec import tcp

        frame = bytearray(tcp.encode_frame({"kind": "heartbeat"}))
        frame[-1] ^= 0xFF
        left, right = socket_module.socketpair()
        with left, right:
            left.sendall(bytes(frame))
            left.close()
            with pytest.raises(tcp.ProtocolError, match="CRC32"):
                tcp.recv_frame(right)

    def test_close_tolerates_serialization_errors(self):
        """Satellite: teardown runs on error paths, so close() must
        swallow *any* failure to send the goodbye — not just OSError —
        or it would mask the original campaign exception."""
        from repro.exec.tcp import _WorkerConnection

        class ExplodingSocket:
            def sendall(self, data):
                raise ValueError("serialization failure mid-goodbye")

            def close(self):
                raise OSError("already torn down")

        connection = _WorkerConnection.__new__(_WorkerConnection)
        connection.address = "test:1"
        connection.sock = ExplodingSocket()
        connection.close()  # must not raise
