"""Differential tests: checkpoint-and-fork engine vs the full decoded engine.

The fork engine (:mod:`repro.sim.fork`) restores a mid-run golden
checkpoint, replays only the gap to the first injection, and splices the
golden suffix back in when the run re-converges.  Every one of those
shortcuts must be invisible in the results: a forked run's
:class:`RunResult` — outcome, dynamic counts, outputs, memory image,
statistics, injection events, fault messages — must be **bit-identical** to
executing the same plan from scratch on the decoded engine, across all
seven applications, both protection modes, every fork-compatible fault
model, and error counts spanning masked, degraded, crashed and hung
outcomes.

``engine="batch"`` names the retired lockstep engine and now runs on
fork; the end of this module checks that the spelling and the
``repro.sim.batch`` module it leaves behind change no record.
"""

import math
import zlib

import pytest

from repro.apps import suite_apps
from repro.core import CampaignConfig
from repro.experiments import live_campaign
from repro.isa import F, Opcode, R
from repro.sim import (
    InjectionPlan,
    Machine,
    ProtectionMode,
    build_checkpoint_store,
    get_model,
    plan_injections,
)
from repro.sim import fork as fork_module
from repro.sim.stepper import Stepper

from test_block_dispatch import assemble, op
from test_engine_differential import bit_equal

APP_NAMES = ["susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"]
MODES = [ProtectionMode.PROTECTED, ProtectionMode.UNPROTECTED]
#: Fault models the fork engine can resume (fork-compatible plans); the
#: state-kind ``memory-bit`` model falls back to decoded and is covered in
#: ``tests/test_executors.py``.
FORK_MODELS = ["control-bit", "data-bit", "multi-bit", "opcode"]


@pytest.fixture(scope="module")
def suite():
    return suite_apps("small")


@pytest.fixture
def fine_grid(monkeypatch):
    """Checkpoint grids from one instruction on: a short hand-written
    program then gets a checkpoint per ``count``-th of its length."""
    monkeypatch.setattr(fork_module, "FIRST_INTERVAL", 1)


def _assert_identical(full, forked):
    """Outputs and memory go through ``bit_equal``: injected float runs can
    legitimately hold NaN, and container ``==`` would compare two distinct
    NaN objects unequal on identity alone."""
    assert forked.outcome == full.outcome
    assert forked.executed == full.executed
    assert forked.exit_value == full.exit_value
    assert forked.fault == full.fault
    assert forked.fault_kind == full.fault_kind
    assert bit_equal(forked.outputs, full.outputs)
    assert forked.exec_counts == full.exec_counts
    assert forked.statistics == full.statistics
    assert bit_equal(forked.memory.cells, full.memory.cells)
    assert forked.injection.injected_errors == full.injection.injected_errors
    assert forked.injection.events == full.injection.events


def _plan(app, errors, mode, seed, model_name="control-bit"):
    """A plan drawn from the model's own site population."""
    population = get_model(model_name).population(app.golden(0), mode)
    return plan_injections(errors, population, mode, seed=seed,
                           model=model_name)


def _run_both(app, errors, mode, seed, model_name="control-bit"):
    full_plan = _plan(app, errors, mode, seed, model_name)
    fork_plan = _plan(app, errors, mode, seed, model_name)
    assert full_plan.targets == fork_plan.targets
    full = app.run_once(injection=full_plan, seed=0, engine="decoded")
    forked = app.run_once(injection=fork_plan, seed=0, engine="fork")
    return full, forked


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("errors", [1, 4, 16])
@pytest.mark.parametrize("model_name", FORK_MODELS)
def test_forked_run_is_bit_identical(suite, name, mode, errors, model_name):
    app = suite[name]
    seed = 1000 + zlib.crc32(
        f"{name}/{mode.value}/{errors}/{model_name}".encode()) % 10000
    full, forked = _run_both(app, errors, mode, seed, model_name)
    _assert_identical(full, forked)
    population = get_model(model_name).population(app.golden(0), mode)
    assert len(forked.injection.targets) == min(errors, population)


def test_catastrophic_paths_are_identical(suite):
    """Heavy unprotected injection exercises crash and hang paths.

    Forty unprotected flips over several plan seeds produce a mix of
    completed, crashed and hung runs across the applications; the fork
    engine must reproduce each one exactly, including the fault message,
    the partial memory image, and the watchdog's dynamic stopping point.
    """
    outcomes = set()
    for name in ("mcf", "blowfish", "gsm"):
        app = suite[name]
        for seed in (1, 2, 3, 4, 5):
            full, forked = _run_both(app, 40, ProtectionMode.UNPROTECTED, seed)
            _assert_identical(full, forked)
            outcomes.add(full.outcome)
    assert len(outcomes) > 1, "plans produced only one outcome kind"


def test_splice_fires_for_masked_faults(suite):
    """Fully-masked faults must terminate through the golden-suffix splice."""
    app = suite["susan"]
    golden = app.golden(0)
    store = app.checkpoint_store(0)
    before = store.spliced_runs
    spliced_result = None
    for i in range(30):
        seed = 99 + 7919 * i
        plan = plan_injections(1, golden.exposed_count(ProtectionMode.PROTECTED),
                               ProtectionMode.PROTECTED, seed=seed)
        result = app.run_once(injection=plan, seed=0, engine="fork")
        if store.spliced_runs > before:
            spliced_result = result
            break
    assert spliced_result is not None, "no run re-converged in 30 attempts"
    # A spliced, fully-masked run reproduces the golden artefacts exactly
    # even though it only simulated a fraction of the program.
    g = golden.result
    assert spliced_result.outputs == g.outputs
    assert spliced_result.executed == g.executed
    assert spliced_result.exit_value == g.exit_value
    assert spliced_result.memory.cells == g.memory.cells


# Dead-divergence fast-forward: a loop stores i*i+7 to out[i]; the tails
# decide whether a corrupted out[i] is dead (never read), overwritten by
# the golden run (a splice point), read back (live), or, for out[5],
# overwritten after the last checkpoint.
_A, _B, _C, _D, _BUF, _SUM = (R(index) for index in range(8, 14))
_TAILS = {
    "dead": [],
    "overwritten": [
        op(Opcode.LI, _A, imm=0), "W",
        op(Opcode.ADD, _D, _BUF, _A),
        op(Opcode.SW, rs1=_D, rs2=R(0), imm=0),
        op(Opcode.ADDI, _A, _A, imm=1),
        op(Opcode.BLT, rs1=_A, rs2=_B, label="W")],
    "live": [
        op(Opcode.LI, _A, imm=0), "S",
        op(Opcode.ADD, _D, _BUF, _A),
        op(Opcode.LW, _C, _D, imm=0),
        op(Opcode.ADD, _SUM, _SUM, _C),
        op(Opcode.ADDI, _A, _A, imm=1),
        op(Opcode.BLT, rs1=_A, rs2=_B, label="S"),
        op(Opcode.OUT, rs1=_SUM, imm=0)],
    # The golden run's last write, after its last checkpoint.
    "rewritten_last": [op(Opcode.SW, rs1=_BUF, rs2=R(0), imm=5)],
}


def _store_loop(tail):
    return assemble([
        op(Opcode.LA, _BUF, label="out"),
        op(Opcode.LI, _A, imm=0),
        op(Opcode.LI, _B, imm=40),
        "L",
        op(Opcode.MUL, _C, _A, _A),
        op(Opcode.ADDI, _C, _C, imm=7),
        op(Opcode.ADD, _D, _BUF, _A),
        op(Opcode.SW, rs1=_D, rs2=_C, imm=0),
        op(Opcode.ADDI, _A, _A, imm=1),
        op(Opcode.BLT, rs1=_A, rs2=_B, label="L"),
        *_TAILS[tail],
        op(Opcode.HALT),
    ], data=[("out", [0] * 48)])


class _ReadLater(dict):
    """A ``last_read`` that calls every cell live: no fast-forward."""

    def get(self, key, default=None):
        return 1 << 30


@pytest.mark.usefixtures("fine_grid")
@pytest.mark.parametrize("tail", sorted(_TAILS))
def test_dead_divergence_fast_forward_matches_full_replay(tail, monkeypatch):
    program = _store_loop(tail)
    golden = Machine(program).run()
    fast = build_checkpoint_store(Machine(program), golden, 8)
    full = build_checkpoint_store(Machine(program), golden, 8)
    full.last_read = _ReadLater()

    simulated = [0]

    class CountingStepper(Stepper):
        def run(self, limit):
            before = self.executed
            try:
                super().run(limit)
            finally:
                simulated[0] += self.executed - before

    monkeypatch.setattr(fork_module, "Stepper", CountingStepper)
    budget = golden.executed * 8

    def runs(store):
        simulated[0] = 0
        results = [Machine(program).run(
            max_instructions=budget, engine="decoded" if store is None else "fork",
            injection=InjectionPlan(ProtectionMode.UNPROTECTED, [target],
                                    seed=target),
            checkpoints=store) for target in range(3, 160, 5)]
        return results, simulated[0]

    decoded, _ = runs(None)
    fast_results, fast_simulated = runs(fast)
    full_results, full_simulated = runs(full)
    for reference, *forked in zip(decoded, fast_results, full_results):
        for result in forked:
            for name in ("outcome", "executed", "exit_value", "fault",
                         "exec_counts", "statistics", "outputs"):
                assert bit_equal(getattr(result, name),
                                 getattr(reference, name)), name
            assert bit_equal(result.memory.cells, reference.memory.cells)
            assert bit_equal(result.injection.events,
                             reference.injection.events)
    # The fast-forward changes no counter, only how much is simulated.
    assert (fast.forked_runs, fast.spliced_runs, fast.replayed_instructions) \
        == (full.forked_runs, full.spliced_runs, full.replayed_instructions)
    if tail == "live":
        assert fast_simulated == full_simulated
    else:
        assert fast_simulated < full_simulated, "no run fast-forwarded"
    if tail == "overwritten":
        assert fast.spliced_runs > 0
    if tail == "rewritten_last":
        assert program.data_address("out") + 5 in fast.final_writes


def _signed_zero_program(x_live=True):
    """A loop storing squares to dead cells, then ``x = 0.0 - 0.0`` saved
    to a cell, then a second loop.  With ``x_live`` the program outputs
    ``x`` after the loop; without, the loop overwrites the squares and
    ``x`` is never read again.

    Returns the program, its checkpoint store, the exposed-stream index
    of the MUL of loop iteration 4 and that of the FSUB.
    """
    F1, F3, F4 = F(1), F(3), F(4)
    tail = ([op(Opcode.ADDI, _A, _A, imm=1),
             op(Opcode.BLT, rs1=_A, rs2=_B, label="W"),
             op(Opcode.FLW, F4, _SUM, imm=0),
             op(Opcode.FOUT, rs1=F4, imm=0)] if x_live else
            [op(Opcode.ADD, _D, _BUF, _A),
             op(Opcode.SW, rs1=_D, rs2=R(0), imm=0),
             op(Opcode.ADDI, _A, _A, imm=1),
             op(Opcode.BLT, rs1=_A, rs2=_B, label="W"),
             op(Opcode.OUT, rs1=_A, imm=0)])
    program = assemble([
        op(Opcode.LA, _BUF, label="out"),
        op(Opcode.LA, _SUM, label="x"),
        op(Opcode.FLI, F1, imm=0.0),
        op(Opcode.FLI, F4, imm=1.0),
        op(Opcode.LI, _A, imm=0),
        op(Opcode.LI, _B, imm=20),
        "L",
        op(Opcode.MUL, _C, _A, _A),             # stored to a dead cell
        op(Opcode.ADD, _D, _BUF, _A),
        op(Opcode.SW, rs1=_D, rs2=_C, imm=0),
        op(Opcode.ADDI, _A, _A, imm=1),
        op(Opcode.BLT, rs1=_A, rs2=_B, label="L"),
        op(Opcode.FSUB, F3, F1, F1),            # 0.0; -0.0 with bit 63
        op(Opcode.FSW, rs1=_SUM, rs2=F3, imm=0),
        op(Opcode.FLI, F3, imm=7.0),
        op(Opcode.LI, _A, imm=0),
        "W",
        *tail,
        op(Opcode.HALT),
    ], data=[("out", [0] * 24), ("x", [0.0])])
    golden = Machine(program).run()
    store = build_checkpoint_store(Machine(program), golden, 8)
    return program, store, 6 + 3 * 4, 6 + 3 * 20


def _sign_flip_run(program, store, targets):
    """Run ``targets`` under the first plan seed whose last injection
    flips bit 63 of the FSUB result, on the decoded and the fork engine;
    returns the decoded run after checking the fork run matches it."""
    for seed in range(2000):
        plan = InjectionPlan(ProtectionMode.UNPROTECTED, targets, seed=seed)
        decoded = Machine(program).run(injection=plan)
        if [event.bit for event in plan.events][-1] == 63:
            break
    else:
        pytest.fail("no seed flips the sign of the FSUB result")
    forked = Machine(program).run(
        injection=InjectionPlan(ProtectionMode.UNPROTECTED, targets,
                                seed=seed),
        engine="fork", checkpoints=store)
    for name in ("outcome", "executed", "exec_counts", "outputs"):
        assert bit_equal(getattr(forked, name), getattr(decoded, name)), name
    assert bit_equal(forked.memory.cells, decoded.memory.cells)
    return decoded


@pytest.mark.usefixtures("fine_grid")
def test_fast_forward_needs_bit_identical_live_state():
    """A live cell holding -0.0 where golden holds 0.0 compares equal
    under ``==`` but reaches the output, so it blocks the fast-forward."""
    program, store, mul_site, fsub_site = _signed_zero_program()
    decoded = _sign_flip_run(program, store, [mul_site, fsub_site])
    assert math.copysign(1.0, decoded.outputs[0][0]) == -1.0


@pytest.mark.usefixtures("fine_grid")
def test_splice_needs_bit_identical_state():
    """The same -0.0 with no dead cell beside it: memory and registers
    then compare ``==`` to the golden state, yet the run must not adopt
    the golden suffix, whose output is +0.0."""
    program, store, _, fsub_site = _signed_zero_program()
    decoded = _sign_flip_run(program, store, [fsub_site])
    assert math.copysign(1.0, decoded.outputs[0][0]) == -1.0


@pytest.mark.usefixtures("fine_grid")
def test_fast_forward_keeps_a_dead_cells_sign():
    """A dead cell holding -0.0 where golden holds 0.0: the fast-forward
    may skip past it, but the final memory image keeps its sign."""
    program, store, mul_site, fsub_site = _signed_zero_program(x_live=False)
    decoded = _sign_flip_run(program, store, [mul_site, fsub_site])
    x = decoded.memory.cells[program.data_address("x")]
    assert x == 0.0 and math.copysign(1.0, x) == -1.0


def test_fork_respects_tiny_instruction_budgets(suite):
    """A budget below the restore point must hang exactly like a full run."""
    app = suite["mcf"]
    golden = app.golden(0)
    mode = ProtectionMode.PROTECTED
    budget = golden.executed // 2
    full_plan = plan_injections(4, golden.exposed_count(mode), mode, seed=77)
    fork_plan = plan_injections(4, golden.exposed_count(mode), mode, seed=77)
    full = app.run_once(injection=full_plan, seed=0, max_instructions=budget,
                        engine="decoded")
    forked = app.run_once(injection=fork_plan, seed=0, max_instructions=budget,
                          engine="fork")
    _assert_identical(full, forked)
    assert full.outcome == "hang"
    assert full.executed == budget


def test_reused_plan_still_fires_every_injection(suite):
    """A plan object reused across runs carries the previous run's events;
    the fork engine must not mistake those for this run's flips (which
    would swap to fast handlers and splice before anything fired)."""
    app = suite["adpcm"]
    golden = app.golden(0)
    mode = ProtectionMode.UNPROTECTED
    reused = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    first = app.run_once(injection=reused, seed=0, engine="fork")
    events_after_first = len(reused.events)
    assert events_after_first > 0
    # Second run with the same (now event-laden) plan object: the decoded
    # engine re-fires every reached target, and the fork engine must match
    # its execution state exactly (events accumulate in both).
    forked = app.run_once(injection=reused, seed=0, engine="fork")
    assert len(reused.events) > events_after_first
    fresh = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    app.run_once(injection=fresh, seed=0, engine="decoded")   # first use
    decoded = app.run_once(injection=fresh, seed=0, engine="decoded")  # reuse
    assert forked.outcome == decoded.outcome
    assert forked.executed == decoded.executed
    assert forked.outputs == decoded.outputs
    assert forked.exec_counts == decoded.exec_counts
    assert forked.memory.cells == decoded.memory.cells


def test_fork_engine_requires_checkpoint_store(suite):
    app = suite["mcf"]
    plan = plan_injections(1, app.golden(0).exposed_count(ProtectionMode.PROTECTED),
                           ProtectionMode.PROTECTED, seed=3)
    machine = Machine(app.program())
    with pytest.raises(ValueError, match="checkpoint store"):
        machine.run(injection=plan, engine="fork")


def test_fork_engine_with_empty_plan_degrades_to_decoded(suite):
    """Nothing to inject means nothing to fork from: run the golden path."""
    app = suite["mcf"]
    plan = plan_injections(0, 1, ProtectionMode.NONE, seed=5)
    result = app.run_once(injection=plan, seed=0, engine="fork")
    golden = app.golden(0).result
    assert result.outputs == golden.outputs
    assert result.exec_counts == golden.exec_counts


def test_fork_campaigns_match_decoded_campaigns(suite):
    """Campaign records are independent of the configured engine."""
    app = suite["adpcm"]
    decoded = live_campaign(
        app, CampaignConfig(runs=8, base_seed=21, engine="decoded"), 4,
        ProtectionMode.PROTECTED)
    forked = live_campaign(
        app, CampaignConfig(runs=8, base_seed=21, engine="fork"), 4,
        ProtectionMode.PROTECTED)
    assert forked.records == decoded.records


# ----------------------------------------------------------------------
# engine="batch": a spelling of fork.
# ----------------------------------------------------------------------

def test_run_batched_is_per_plan_run_forked(suite):
    """``repro.sim.batch.run_batched`` returns what ``run_forked`` returns
    for each plan, and no run is ever retired."""
    from repro.sim.batch import run_batched

    app = suite["gsm"]
    mode = ProtectionMode.UNPROTECTED
    seeds = (1, 2, 3, 4, 5)
    store = app.checkpoint_store(0)
    budget = app.golden(0).watchdog_budget
    batched = run_batched(Machine(app.program()),
                          [_plan(app, 40, mode, seed) for seed in seeds],
                          store, budget)
    assert len(batched) == len(seeds)
    for seed, result in zip(seeds, batched):
        forked = fork_module.run_forked(Machine(app.program()),
                                        _plan(app, 40, mode, seed), store,
                                        budget)
        _assert_identical(forked, result)
    assert store.batch_retired_runs == 0


def _run_batched(app, plans, max_instructions=None):
    """A cell of plans through ``repro.sim.batch.run_batched``, sharing
    one checkpoint store the way a campaign cell does."""
    from repro.sim.batch import run_batched

    golden = app.golden(0)
    budget = (max_instructions if max_instructions is not None
              else golden.watchdog_budget)
    return run_batched(Machine(app.program()), plans,
                       app.checkpoint_store(0), budget)


def _cell_plans(app, errors_axis, mode, model_name, seed_base):
    """One plan per error count, derived from the model's own population."""
    return [_plan(app, errors, mode, seed_base + 31 * errors, model_name)
            for errors in errors_axis]


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", FORK_MODELS)
def test_batched_cell_is_bit_identical(suite, name, mode, model_name):
    """A whole {1,4,16}-error cell run back to back on one checkpoint
    store matches the decoded engine plan for plan: no run leaves state
    behind in the store for the next one."""
    app = suite[name]
    seed_base = 2000 + zlib.crc32(f"{name}/{mode.value}/{model_name}".encode()) % 10000
    plans = _cell_plans(app, (1, 4, 16), mode, model_name, seed_base)
    assert all(plan.targets for plan in plans)
    batched = _run_batched(app, plans)
    assert len(batched) == len(plans)
    for errors in (1, 4, 16):
        full_plan, = _cell_plans(app, (errors,), mode, model_name, seed_base)
        full = app.run_once(injection=full_plan, seed=0, engine="decoded")
        _assert_identical(full, batched[(1, 4, 16).index(errors)])


def test_batched_catastrophic_paths_are_identical(suite):
    """Five 40-error unprotected plans per app run as one cell; the crash
    and hang runs must match the decoded engine exactly, including fault
    messages and partial memory images."""
    outcomes = set()
    mode = ProtectionMode.UNPROTECTED
    seeds = (1, 2, 3, 4, 5)
    for name in ("mcf", "blowfish", "gsm"):
        app = suite[name]
        batched = _run_batched(app, [_plan(app, 40, mode, seed)
                                     for seed in seeds])
        for seed, result in zip(seeds, batched):
            full = app.run_once(injection=_plan(app, 40, mode, seed), seed=0,
                                engine="decoded")
            _assert_identical(full, result)
            outcomes.add(result.outcome)
    assert len(outcomes) > 1, "plans produced only one outcome kind"


def test_batch_respects_tiny_instruction_budgets(suite):
    """A starved run in a cell must hang exactly like the decoded run."""
    app = suite["mcf"]
    mode = ProtectionMode.PROTECTED
    budget = app.golden(0).executed // 2
    seeds = (77, 78)
    batched = _run_batched(app, [_plan(app, 4, mode, seed) for seed in seeds],
                           max_instructions=budget)
    for seed, result in zip(seeds, batched):
        full = app.run_once(injection=_plan(app, 4, mode, seed), seed=0,
                            max_instructions=budget, engine="decoded")
        _assert_identical(full, result)
        assert result.outcome == "hang"
        assert result.executed == budget


def test_batch_reused_plan_still_fires_every_injection(suite):
    """An event-laden plan object re-fires through ``run_batched`` just as
    it does through the decoded engine (see the fork twin above)."""
    app = suite["adpcm"]
    mode = ProtectionMode.UNPROTECTED
    reused = _plan(app, 8, mode, 4711)
    _run_batched(app, [reused])
    events_after_first = len(reused.events)
    assert events_after_first > 0
    second, = _run_batched(app, [reused])
    assert len(reused.events) > events_after_first
    fresh = _plan(app, 8, mode, 4711)
    app.run_once(injection=fresh, seed=0, engine="decoded")   # first use
    decoded = app.run_once(injection=fresh, seed=0, engine="decoded")  # reuse
    assert second.outcome == decoded.outcome
    assert second.executed == decoded.executed
    assert bit_equal(second.outputs, decoded.outputs)
    assert second.exec_counts == decoded.exec_counts
    assert bit_equal(second.memory.cells, decoded.memory.cells)


def test_machine_rejects_the_batch_spelling(suite):
    """Only ``CampaignConfig`` knows ``"batch"``; the machine does not."""
    app = suite["mcf"]
    plan = _plan(app, 1, ProtectionMode.PROTECTED, 3)
    with pytest.raises(ValueError, match="unknown engine 'batch'"):
        Machine(app.program()).run(injection=plan, engine="batch")


def test_batch_campaigns_match_decoded_campaigns(suite):
    """Campaign records are independent of the configured engine,
    ``engine="batch"`` included."""
    app = suite["adpcm"]
    decoded = live_campaign(
        app, CampaignConfig(runs=8, base_seed=21, engine="decoded"), 4,
        ProtectionMode.PROTECTED)
    batched = live_campaign(
        app, CampaignConfig(runs=8, base_seed=21, engine="batch"), 4,
        ProtectionMode.PROTECTED)
    assert batched.records == decoded.records


def test_batch_sweep_interrupted_mid_cell_resumes_bit_identically(tmp_path):
    """Kill an ``engine="batch"`` sweep mid-cell and resume it (still
    spelled ``"batch"``): the shard store must come out byte-identical to
    an uninterrupted sweep on the fork engine, whatever chunk boundary it
    died on."""
    from repro.core.store import ShardStore
    from repro.experiments.sweep import SweepOrchestrator
    from repro.service.spec import CampaignSpec

    spec = CampaignSpec(suite="small", runs_per_cell=6, base_seed=29,
                        apps=("adpcm",), errors=(2, 6), include_table2=False)

    def run_sweep(root, engine, chunk_size, progress=None):
        orchestrator = SweepOrchestrator(ShardStore(root), spec,
                                         spec.campaign_config(engine=engine),
                                         chunk_size=chunk_size,
                                         progress=progress)
        return orchestrator.run()

    def store_bytes(root):
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    reference_root = tmp_path / "fork-reference"
    run_sweep(reference_root, "fork", chunk_size=6)

    calls = {"left": 2}

    def interrupt(message):
        calls["left"] -= 1
        if calls["left"] <= 0:
            raise KeyboardInterrupt(f"injected interruption at {message!r}")

    batch_root = tmp_path / "batch-interrupted"
    with pytest.raises(KeyboardInterrupt):
        # chunk_size=4 against 6-run cells: the kill lands mid-cell.
        run_sweep(batch_root, "batch", chunk_size=4, progress=interrupt)
    assert store_bytes(batch_root) != store_bytes(reference_root)

    run_sweep(batch_root, "batch", chunk_size=4)
    assert store_bytes(batch_root) == store_bytes(reference_root)


def test_checkpoint_store_is_not_pickled(suite):
    """Worker payloads must not carry the snapshots (workers rebuild them)."""
    import pickle

    app = suite["mcf"]
    store = app.checkpoint_store(0)
    assert app.golden(0).checkpoint_store is store
    revived = pickle.loads(pickle.dumps(app.golden(0)))
    assert revived.checkpoint_store is None
    # The program round-trips without its decode cache either.
    program = app.program()
    assert getattr(program, "_decoded_cache", None) is not None
    revived_program = pickle.loads(pickle.dumps(program))
    assert getattr(revived_program, "_decoded_cache", None) is None
