"""Differential tests: decoded threaded-code engine vs the seed interpreter.

The pre-decoded engine (:mod:`repro.sim.decode`) must be *bit-identical* to
the seed ``if/elif`` interpreter preserved in :mod:`repro.sim.reference` —
same outcome, same dynamic instruction counts, same outputs, same memory
image, same injection events under the same plan seeds.  Every application
is exercised with and without injections, in both protection modes.

A recorded fixture (``tests/fixtures/engine_golden_digests.json``) pins the
golden-run behaviour of the seed interpreter, so an accidental semantic
change to *both* engines is also caught.
"""

import dataclasses
import hashlib
import json
import math
import struct
import zlib
from pathlib import Path

import pytest

from repro.apps import suite_apps
from repro.sim import Machine, ProtectionMode, plan_injections

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "engine_golden_digests.json"

APP_NAMES = ["susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"]


@pytest.fixture(scope="module")
def suite():
    return suite_apps("small")


def nan_equal(a, b):
    """Recursive equality that treats two NaNs as equal.

    Python's container ``==`` short-circuits on object identity, so two
    *semantically identical* memory images can compare unequal when one
    engine materialises a fresh ``float('nan')`` object.  Injected runs
    legitimately produce NaN cells, so engine comparisons use this helper
    instead of ``==`` for outputs and memory.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            nan_equal(value, b[key]) for key, value in a.items())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(nan_equal, a, b)))
    return a == b


def bit_equal(a, b):
    """Recursive equality of type and IEEE-754 bits.

    Stricter than :func:`nan_equal`: ``-0.0`` differs from ``0.0``, an int
    cell ``5`` differs from a float ``5.0``, and two NaNs are equal only
    with the same bit pattern.  Dataclasses (injection events) compare
    field by field.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            bit_equal(value, b[key]) for key, value in a.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(bit_equal, a, b))
    if dataclasses.is_dataclass(a):
        return all(bit_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def _run_pair(app, injection_seed=None, errors=0, mode=ProtectionMode.NONE):
    """Run the same workload through every engine; return (memory, result) pairs."""
    program = app.program()
    workload = app.generate_workload(0)
    pairs = {}
    for engine in ("reference", "decoded"):
        machine = Machine(program)
        app.apply_workload(machine, workload)
        plan = None
        if injection_seed is not None:
            golden = app.golden(0)
            plan = plan_injections(errors, golden.exposed_count(mode), mode,
                                   seed=injection_seed)
        result = machine.run(
            max_instructions=app.golden(0).watchdog_budget,
            injection=plan,
            engine=engine,
        )
        pairs[engine] = (machine.memory.cells, result)
    return pairs


def _assert_identical(pairs):
    ref_cells, ref = pairs["reference"]
    cells, result = pairs["decoded"]
    assert result.outcome == ref.outcome
    assert result.executed == ref.executed
    assert result.exit_value == ref.exit_value
    assert result.fault_kind == ref.fault_kind
    assert nan_equal(result.outputs, ref.outputs)
    assert result.exec_counts == ref.exec_counts
    assert result.statistics == ref.statistics
    assert nan_equal(cells, ref_cells)
    if ref.injection is not None:
        assert result.injection.injected_errors == ref.injection.injected_errors
        assert result.injection.events == ref.injection.events


@pytest.mark.parametrize("name", APP_NAMES)
def test_golden_run_is_identical(suite, name):
    _assert_identical(_run_pair(suite[name]))


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("mode", [ProtectionMode.PROTECTED, ProtectionMode.UNPROTECTED])
def test_injected_run_is_identical(suite, name, mode):
    pairs = _run_pair(suite[name], injection_seed=1234 + zlib.crc32(name.encode()) % 1000,
                      errors=5, mode=mode)
    _assert_identical(pairs)
    # The plans must actually have fired for the comparison to mean much.
    assert len(pairs["decoded"][1].injection.targets) == 5


@pytest.mark.parametrize("name", APP_NAMES)
def test_catastrophic_paths_are_identical(suite, name):
    """Heavy unprotected injection drives crash/hang paths through both engines.

    Forty unprotected flips over five plan seeds reliably produce a mix of
    completed, crashed and hung runs; every one must match the oracle,
    including the fault message and the partial memory image.
    """
    app = suite[name]
    program = app.program()
    workload = app.generate_workload(0)
    golden = app.golden(0)
    mode = ProtectionMode.UNPROTECTED
    for seed in (1, 2, 3, 4, 5):
        runs = {}
        for engine in ("reference", "decoded"):
            machine = Machine(program)
            app.apply_workload(machine, workload)
            plan = plan_injections(40, golden.exposed_count(mode), mode, seed=seed)
            result = machine.run(max_instructions=golden.watchdog_budget,
                                 injection=plan, engine=engine)
            runs[engine] = (machine.memory.cells, result)
        _assert_identical(runs)
        assert runs["decoded"][1].fault == runs["reference"][1].fault


def test_empty_plan_matches_golden(suite):
    """A zero-target plan must take the fast path and still match the oracle."""
    app = suite["mcf"]
    pairs = _run_pair(app, injection_seed=9, errors=0, mode=ProtectionMode.PROTECTED)
    _assert_identical(pairs)
    assert pairs["decoded"][1].injection.injected_errors == 0


# ----------------------------------------------------------------------
# Recorded seed fixtures.
# ----------------------------------------------------------------------

def _digest(values) -> str:
    payload = repr(values).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _golden_digest(app) -> dict:
    result = app.golden(0).result
    return {
        "outcome": result.outcome,
        "executed": result.executed,
        "exit_value": result.exit_value,
        "outputs": _digest(sorted(result.outputs.items())),
        "exec_counts": _digest(result.exec_counts),
        "exposed_protected": result.statistics.exposed_protected,
        "exposed_unprotected": result.statistics.exposed_unprotected,
        "tagged": result.statistics.tagged,
    }


def test_golden_runs_match_recorded_fixtures(suite):
    """Decoded-engine golden runs reproduce the recorded seed behaviour."""
    recorded = json.loads(FIXTURE_PATH.read_text())
    observed = {name: _golden_digest(suite[name]) for name in APP_NAMES}
    assert observed == recorded["apps"]
