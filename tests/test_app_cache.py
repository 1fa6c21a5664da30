"""One warm application per (name, params) per process.

Every suite lookup goes through the registry's warm-app cache
(:func:`repro.apps.registry.cached_app`), so a later sweep, table or
daemon job in the same process finds its applications compiled, their
golden runs done and their checkpoints captured, and a pool worker
forked afterwards inherits them.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading

import pytest

from repro.apps import SUITES, registry, suite_apps
from repro.core import app as app_module
from repro.experiments.tables import (table2_catastrophic_failures,
                                      table4_fault_models)
from repro.service.spec import CampaignSpec

from test_golden_pass import fresh_app_cache  # noqa: F401  (a fixture)


@pytest.fixture
def captures(monkeypatch):
    """The machines of every checkpoint capture run in this process."""
    machines = []
    capture = app_module.build_checkpoint_store

    def counting(machine, *args, **kwargs):
        machines.append(machine)
        return capture(machine, *args, **kwargs)

    monkeypatch.setattr(app_module, "build_checkpoint_store", counting)
    return machines


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_suite_app_has_one_cache_entry(suite, fresh_app_cache):
    """A suite's params may leave a default out (blowfish's key length);
    the instance is still the one a pool task or a wire session finds by
    its ``wire_params()``."""
    apps = suite_apps(suite)
    assert list(apps) == list(SUITES[suite])
    for name, app in apps.items():
        assert registry.cached_app(name, app.wire_params()) is app
        assert suite_apps(suite)[name] is app
    assert len(fresh_app_cache) == len(apps)


def test_a_spec_experiment_config_reads_the_cache(fresh_app_cache):
    suite = CampaignSpec(suite="small").experiment_config().suite()
    assert suite == suite_apps("small")


def test_threads_warming_one_app_share_one_capture(fresh_app_cache,
                                                   captures):
    """Daemon lanes are threads of one process: lanes that warm one
    cached application at once run one capture and see one store."""
    app = suite_apps("small")["adpcm"]
    lanes = 4
    barrier = threading.Barrier(lanes)
    stores = []

    def warm():
        barrier.wait(timeout=30)
        app.warm(checkpoints=True)
        stores.append(app.checkpoint_store(0))

    threads = [threading.Thread(target=warm) for _ in range(lanes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(captures) == 1
    assert len(stores) == lanes and all(store is stores[0] for store in stores)
    # A warm app still pickles (a spawned pool worker receives it so).
    revived = pickle.loads(pickle.dumps(app))
    assert revived.golden(0).executed == app.golden(0).executed


def _acquire_warm_lock() -> None:
    sys.exit(0 if app_module._WARM_LOCK.acquire(timeout=10) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_child_forked_mid_warm_can_warm():
    """A child forked while another thread warms (a daemon lane beside a
    lane that restarts the pool) does not inherit the warm lock held."""
    held, release = threading.Event(), threading.Event()

    def hold():
        with app_module._WARM_LOCK:
            held.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(timeout=30)
        child = multiprocessing.get_context("fork").Process(
            target=_acquire_warm_lock)
        child.start()
        child.join(timeout=60)
    finally:
        release.set()
        holder.join(timeout=60)
    assert child.exitcode == 0


def test_table2_then_table4_capture_each_app_once(fresh_app_cache, captures):
    """Storeless Table 2 and then Table 4 sweep the same seven
    applications six times in one process (one sweep for Table 2, one
    per fault model for Table 4); every sweep finds them warm."""
    spec = CampaignSpec(runs_per_cell=2)
    table2_catastrophic_failures(spec)
    table4_fault_models(spec)
    assert len(captures) == len(SUITES[spec.suite])
