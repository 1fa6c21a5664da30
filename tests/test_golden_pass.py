"""One golden execution per application and workload seed.

Under the fork engine the checkpoint capture *is* the golden run
(:func:`repro.sim.fork.build_checkpoint_store`): warming an application
executes its program once per workload seed, wherever it warms -- an
executor's ``start``, a shared pool worker's first task, a socket
worker's session.  The golden result read off the store must be
bit-identical to the decoded and the reference engines' golden runs, and
the capture's coarsening grid must describe the golden run exactly at
every checkpoint it keeps.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

import pytest

from repro.apps import SUITES, create_app, registry
from repro.core import CampaignConfig
from repro.core import app as app_module
from repro.exec import SocketExecutor, create_executor
from repro.exec.local import _pool_worker_run
from repro.sim import Machine, ProtectionMode, build_checkpoint_store
from repro.sim import fork as fork_module
from repro.sim import machine as machine_module
from repro.sim import stepper as stepper_module
from repro.sim.fork import golden_result
from repro.sim.stepper import Stepper

from test_engine_differential import bit_equal

#: Three runs over two workload seeds: every app warms seeds 0 and 1.
GRID = dict(runs=3, workloads=2, base_seed=5)

#: Injected tasks of both applications over both seeds.
TASKS = ([("adpcm", index, 2, ProtectionMode.PROTECTED) for index in range(3)]
         + [("gsm", index, 4, ProtectionMode.UNPROTECTED) for index in range(3)])

RESULT_FIELDS = ("outcome", "executed", "exit_value", "fault", "fault_kind",
                 "exec_counts", "statistics", "outputs")


def _apps():
    return [create_app("adpcm", samples=300), create_app("gsm", frames=2)]


@pytest.fixture
def golden_executions(monkeypatch):
    """Golden-program executions per program object.

    Every engine runs through a :class:`Stepper`; a golden execution is
    one that starts from scratch without an injection plan.
    """
    counts = Counter()

    class CountingStepper(Stepper):
        def __init__(self, decoded, machine, pc, executed=0,
                     exec_counts=None, plan=None, exposed_start=0):
            if plan is None and executed == 0:
                counts[id(machine.program)] += 1
            super().__init__(decoded, machine, pc, executed, exec_counts,
                             plan, exposed_start)

    for module in (fork_module, machine_module):
        monkeypatch.setattr(module, "Stepper", CountingStepper)
    return counts


@pytest.fixture
def fresh_app_cache(monkeypatch):
    """An empty warm-app cache, as a newly forked shared-pool worker or a
    newly started socket worker has."""
    monkeypatch.setattr(registry, "_APP_CACHE", {})
    return registry._APP_CACHE


# ----------------------------------------------------------------------
# One execution per (app, seed) wherever an application warms.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
def test_executor_start_runs_each_golden_once(golden_executions, parallel):
    apps = _apps()
    config = CampaignConfig(engine="fork", parallel=parallel, **GRID)
    with create_executor(apps, config) as executor:
        assert executor.name == ("serial" if parallel == 1 else "pool")
        for app in apps:
            assert sorted(app._goldens) == [0, 1]
            assert all(golden.checkpoint_store is not None
                       for golden in app._goldens.values())
            assert golden_executions[id(app.program())] == 2
        if parallel == 1:
            list(executor.run(TASKS))
    assert sum(golden_executions.values()) == 4


def test_a_shared_pool_workers_first_task_runs_each_golden_once(
        golden_executions, fresh_app_cache):
    """A pool shared by many sweeps (the daemon's) warms an application
    on the worker's first task for it; deriving the plan must not run the
    golden program ahead of the capture."""
    config = CampaignConfig(engine="fork", parallel=1, **GRID)
    params = {app.name: app.wire_params() for app in _apps()}
    for app_name, run_index, errors, mode in TASKS:
        _pool_worker_run((config, app_name, params[app_name], run_index,
                          errors, mode))
    assert len(fresh_app_cache) == 2
    for app in fresh_app_cache.values():
        assert golden_executions[id(app.program())] == 2
    assert sum(golden_executions.values()) == 4


def test_a_socket_worker_session_runs_each_golden_once(golden_executions,
                                                        fresh_app_cache):
    from repro.exec.worker import serve

    banner = io.StringIO()
    worker = threading.Thread(target=serve, kwargs=dict(
        port=0, max_sessions=1, banner_stream=banner), daemon=True)
    worker.start()
    deadline = time.monotonic() + 30
    while "listening on" not in banner.getvalue():
        assert time.monotonic() < deadline, "worker never listened"
        time.sleep(0.01)
    address = banner.getvalue().split()[-1]

    apps = _apps()
    config = CampaignConfig(engine="fork", workers=(address,),
                            fallback=False, **GRID)
    with SocketExecutor(apps, config) as executor:
        records = list(executor.run(TASKS))
    worker.join(timeout=30)
    assert len(records) == len(TASKS)
    assert len(fresh_app_cache) == 2
    for app in fresh_app_cache.values():
        assert golden_executions[id(app.program())] == 2


def test_decoded_warm_builds_no_store(golden_executions):
    apps = _apps()
    config = CampaignConfig(engine="decoded", parallel=1, **GRID)
    with create_executor(apps, config) as executor:
        list(executor.run(TASKS))
    for app in apps:
        assert sorted(app._goldens) == [0, 1]
        assert all(golden.checkpoint_store is None
                   for golden in app._goldens.values())
        assert golden_executions[id(app.program())] == 2


def test_a_memoized_golden_run_guards_the_capture():
    """A golden run that exists before the store is the capture's
    reference: a capture that drifts from it is refused."""
    app = create_app("adpcm", samples=300)
    golden = app.golden(0)
    golden.result.exec_counts[0] += 1
    with pytest.raises(RuntimeError, match="diverged"):
        app.checkpoint_store(0)


# ----------------------------------------------------------------------
# The one-pass golden run against the engines' golden runs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(SUITES["small"]()))
def test_one_pass_golden_matches_decoded_and_reference(name):
    app = SUITES["small"]()[name]
    for seed in (0, 1):
        store = app.checkpoint_store(seed)
        golden = app.golden(seed).result
        # The result shares the store's final state instead of copying it.
        assert golden.exec_counts is store.final_exec_counts
        assert golden.outputs is store.final_outputs
        assert golden.memory.cells is store.final_cells
        for engine in ("decoded", "reference"):
            machine = Machine(app.program())
            app.apply_workload(machine, app.workload(seed))
            other = machine.run(engine=engine)
            for field in RESULT_FIELDS:
                assert bit_equal(getattr(golden, field),
                                 getattr(other, field)), (seed, engine, field)
            assert bit_equal(golden.memory.cells, other.memory.cells)


def test_a_golden_run_that_fails_raises(monkeypatch):
    monkeypatch.setattr(machine_module, "DEFAULT_MAX_INSTRUCTIONS", 1000)
    app = create_app("adpcm", samples=300)
    with pytest.raises(RuntimeError, match="did not complete"):
        app.checkpoint_store(0)
    assert app._goldens == {}


def test_an_error_in_the_capture_is_not_a_failed_golden_run(monkeypatch):
    """Only the simulator's faults and its watchdog mean the golden run
    failed; any other error raised by the capture propagates as itself."""
    def broken_capture(machine, expected=None):
        raise ValueError("capture bug")

    monkeypatch.setattr(app_module, "build_checkpoint_store", broken_capture)
    app = create_app("adpcm", samples=300)
    with pytest.raises(ValueError, match="capture bug"):
        app.checkpoint_store(0)
    assert app._goldens == {}


# ----------------------------------------------------------------------
# The coarsening grid.
# ----------------------------------------------------------------------
def _fresh_machine(app):
    machine = Machine(app.program())
    app.apply_workload(machine, app.workload(0))
    return machine


class _AccessLog(dict):
    """Memory cells that log every load and store of a run, each with the
    dynamic index of the instruction making it (``now``)."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.now = 0
        self.log = {}  # address -> [(index, is_store), ...]

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self.log.setdefault(key, []).append((self.now, True))

    def get(self, key, default=None):
        self.log.setdefault(key, []).append((self.now, False))
        return dict.get(self, key, default)


@pytest.fixture(scope="module")
def gsm_accesses():
    """A short application, its golden run's memory accesses and its pc
    at every dynamic index, taken one instruction at a time."""
    app = create_app("gsm", frames=2)
    machine = _fresh_machine(app)
    cells = machine.memory.cells = _AccessLog(machine.memory.cells)
    decoded = fork_module.decode_program(app.program())
    stepper = Stepper(decoded, machine, decoded.entry_index)
    trace = []
    while not stepper.halted:
        cells.now = stepper.executed
        trace.append(stepper.pc)
        stepper.run(stepper.executed + 1)
    return app, cells.log, trace


def _leader_stops(decoded, trace):
    """The dynamic indices at which a run with every unit compiled comes
    back to its dispatch loop at a unit leader: a unit runs whole from
    its leader, a span from a block's middle to its unit's end."""
    sizes, owners = decoded.block_sizes, decoded.block_owner
    stops, index = [], 0
    while index < len(trace):
        pc = trace[index]
        if sizes[pc]:
            stops.append(index)
            index += sizes[pc]
        else:
            index += sizes[owners[pc]] - (pc - owners[pc])
    return stops


def _grid(stops, interval):
    """Checkpoint positions on a grid of ``interval``: 0, then the first
    stop at or past the next grid point after each."""
    positions = [0]
    while True:
        at = bisect_left(stops, (positions[-1] // interval + 1) * interval)
        if at == len(stops):
            return positions
        positions.append(stops[at])


@pytest.mark.parametrize("count", [1, 2, 3, 8, 128, 4096])
@pytest.mark.parametrize("first", [1, 64])
def test_grid_keeps_exact_checkpoints(count, first, gsm_accesses,
                                      monkeypatch):
    """The capture's result is the decoded golden run.  Every checkpoint
    sits at a unit leader, the first the run reaches at or past a grid
    point, and holds the golden state there.  The grid never exceeds
    ``count``, keeps more than half of it once coarsened, and coarsens
    no further than it must.  ``last_read`` never calls a cell dead at a
    checkpoint from which the golden run reads it before writing it, nor
    live past the checkpoint before its last read."""
    monkeypatch.setattr(fork_module, "FIRST_INTERVAL", first)
    # Every unit compiles on its first visit, so the run stops only where
    # :func:`_leader_stops` says.
    monkeypatch.setattr(stepper_module, "HOT_VISITS", 0)
    app, accesses, trace = gsm_accesses
    capture = _fresh_machine(app)
    store = build_checkpoint_store(capture, count=count)
    result, reference = golden_result(capture, store), _fresh_machine(app).run()
    for field in RESULT_FIELDS:
        assert bit_equal(getattr(result, field), getattr(reference, field))
    assert bit_equal(result.memory.cells, reference.memory.cells)
    decoded = fork_module.decode_program(app.program())
    interval = store.interval
    checkpoints = store.checkpoints
    positions = [ckpt.executed for ckpt in checkpoints]
    assert all(decoded.block_sizes[ckpt.pc] for ckpt in checkpoints)
    assert all(map(int.__lt__, positions, positions[1:]))
    stops = _leader_stops(decoded, trace)
    assert positions == _grid(stops, interval)
    assert len(checkpoints) <= count
    assert interval % first == 0
    assert (interval // first) & (interval // first - 1) == 0
    if interval > first:
        assert len(checkpoints) > count / 2
        assert len(_grid(stops, interval // 2)) > count

    # A plain stepper stopped at each checkpoint holds the golden state.
    machine = _fresh_machine(app)
    stepper = Stepper(decoded, machine, decoded.entry_index)
    image = dict(store.base_cells)
    for ckpt in checkpoints[1:]:
        image.update(ckpt.memory_delta)
        stepper.run(ckpt.executed)
        assert ckpt.pc == stepper.pc
        assert ckpt.int_regs == machine.int_regs
        assert bit_equal(ckpt.float_regs, machine.float_regs)
        assert ckpt.exec_counts == stepper.flush()
        assert bit_equal(image, dict(machine.memory.cells))
        assert ckpt.output_lens == {channel: len(values) for channel, values
                                    in machine.outputs.items()}

    # A load at index t reads a cell live at the checkpoint before t
    # unless a store to it lies between that checkpoint and the load.
    last = positions[-1]
    for address, log in accesses.items():
        stored = loaded = -1
        for index, is_store in log:
            if is_store:
                stored = index
                continue
            loaded = index
            before = bisect_right(positions, index) - 1
            if stored < positions[before]:
                assert store.last_read.get(address, -1) >= before
        assert store.last_read.get(address, -1) \
            <= bisect_right(positions, loaded) - 1
        assert (address in store.final_writes) == (stored >= last)


SMALL_SUITE_WARM = """
from repro.apps import small_suite
from repro.sim import semantics

for app in small_suite().values():
    app.warm(checkpoints=True)
spans = sum(span for _, span in semantics._UNIT_MAKERS)
print(spans, len(semantics._UNIT_MAKERS) - spans)
"""


def test_a_cold_capture_compiles_no_span_maker():
    """The capture stops only at unit leaders, so warming the small suite
    in a fresh process runs every unit whole and binds no span."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", SMALL_SUITE_WARM],
                               capture_output=True, text=True, env=env,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    spans, units = map(int, completed.stdout.split())
    assert spans == 0
    assert units > 0
