"""Hang proofs on the fork engine's record path (:mod:`repro.sim.hang`).

A record-only forked run past the golden length may end on a proof that
it neither halts nor faults before its budget.  Such a run's record
must equal the full-budget run's, so every case here compares the
record fields of a record-only fork run against the decoded engine's
full run, and pins whether the prover fired
(``CheckpointStore.proven_hangs``).

The small programs each flip one bit of a tagged instruction's result
(protected mode exposes only tagged instructions); the plan seed picks
the bit.
"""

import json

import pytest

from repro.apps import suite_apps
from repro.core.campaign import CampaignConfig
from repro.exec.base import make_record
from repro.isa import F, Opcode, R
from repro.sim import (InjectionPlan, Machine, ProtectionMode,
                       build_checkpoint_store)
from repro.sim import fork as fork_module

from test_block_dispatch import assemble, op
from test_engine_differential import bit_equal

_O = Opcode
PROTECTED = ProtectionMode.PROTECTED


@pytest.fixture(autouse=True)
def fine_grid(monkeypatch):
    """Checkpoints across the short golden runs, not only at the start."""
    monkeypatch.setattr(fork_module, "FIRST_INTERVAL", 1)


def _seed_for_bit(bit):
    """A plan seed whose first control-bit draw on an int flips ``bit``."""
    return next(seed for seed in range(10_000)
                if InjectionPlan(PROTECTED, [0], seed=seed).choose_bit(32)
                == bit)


def _record(result):
    return (result.outcome, result.executed, result.fault_kind,
            result.injection.injected_errors)


def _compare(program, bit, targets=(0,), budget=None):
    """The decoded full run and the record-only fork run of one plan;
    returns the decoded result and whether the prover fired."""
    # The capture is the golden run (one that stores a NaN cannot be
    # checked against a separate golden run: NaN != NaN).
    store = build_checkpoint_store(Machine(program), count=8)
    if budget is None:
        budget = 8 * store.final_executed
    seed = _seed_for_bit(bit)
    full = Machine(program).run(
        budget, InjectionPlan(PROTECTED, list(targets), seed=seed),
        engine="decoded")
    forked = Machine(program).run(
        budget, InjectionPlan(PROTECTED, list(targets), seed=seed),
        engine="fork", checkpoints=store, record_only=True)
    assert _record(forked) == _record(full)
    assert bit_equal(forked.injection.events, full.injection.events)
    assert store.proven_hangs in (0, 1)
    if store.proven_hangs:
        # Telemetry counts what ran, not the budget the record reports.
        assert store.replayed_instructions < budget
    return full, bool(store.proven_hangs)


def _counter_loop(test=_O.BLT):
    """``for (i = -1; i < 50; i++)``: flipping bit ``b`` of the start
    adds ``2**b`` iterations of two instructions."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        "loop",
        op(_O.ADDI, R(16), R(16), imm=1),
        op(test, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0])


def _length(program, bit):
    """Executed count of the injected run with no budget to speak of."""
    plan = InjectionPlan(PROTECTED, [0], seed=_seed_for_bit(bit))
    result = Machine(program).run(10 ** 7, plan)
    assert result.outcome == "completed"
    return result.executed


@pytest.mark.parametrize("slack, outcome, expect_proven", [
    (2, "completed", False),  # the loop exits one iteration before the budget
    (0, "completed", False),  # it halts at exactly the budget
    (-1, "hang", False),      # its exit test is the last row of the budget
    (-2, "hang", False),      # ...of the last, partial iteration in the window
    (-3, "hang", True),       # it would exit an iteration after the budget
])
def test_counter_loop_exiting_near_the_budget(slack, outcome, expect_proven):
    program = _counter_loop()
    total = _length(program, 12)
    full, proven = _compare(program, 12, budget=total + slack)
    assert full.outcome == outcome
    assert proven == expect_proven


def test_equality_exit_inside_the_window_is_refused():
    """``i != 50`` holds at both ends of a window that passes 50."""
    program = _counter_loop(_O.BNE)
    full, proven = _compare(program, 12, budget=_length(program, 12) + 64)
    assert full.outcome == "completed"
    assert not proven


def test_quadratic_counter_is_refused():
    """``x += y; y++`` with ``y`` flipped to -65: ``x`` falls, turns and
    exits, although it steps down at every try."""
    program = assemble([
        op(_O.LI, R(18), imm=-1),
        op(_O.LI, R(16), imm=0),
        op(_O.LI, R(17), imm=1275),
        "loop",
        op(_O.ADD, R(16), R(16), R(18)),
        op(_O.ADDI, R(18), R(18), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0])
    full, proven = _compare(program, 6)
    assert full.outcome == "completed"
    assert not proven


def test_counter_loop_far_past_its_budget_is_proven():
    full, proven = _compare(_counter_loop(), 12)
    assert full.outcome == "hang"
    assert proven


def test_flipped_sign_bit_is_proven():
    """The induction register sent to about -2**31: 2**31 iterations."""
    full, proven = _compare(_counter_loop(), 31)
    assert full.outcome == "hang"
    assert proven


def _step_loop():
    """``do x += step; while (x > 0)``: exits when ``x`` wraps past
    2**31 - 1.  The golden step ``2**24 + 2**20`` wraps after 121
    iterations; flipping bit 24 leaves ``2**20``, which wraps after
    2048."""
    return assemble([
        op(_O.LI, R(17), imm=(1 << 24) + (1 << 20)),
        op(_O.LI, R(16), imm=1),
        "loop",
        op(_O.ADD, R(16), R(16), R(17)),
        op(_O.BGT, rs1=R(16), rs2=R(0), label="loop"),
        op(_O.HALT),
    ], tagged=[0])


def test_step_that_wraps_after_the_budget_is_proven():
    full, proven = _compare(_step_loop(), 24)
    assert full.outcome == "hang"
    assert proven


def test_step_that_wraps_inside_the_window_is_refused():
    program = _step_loop()
    full, proven = _compare(program, 24, budget=_length(program, 24) + 64)
    assert full.outcome == "completed"
    assert not proven


def _divide_loop():
    """Divides by a second counter that falls from 150 by one per
    iteration; the golden run's 51 iterations never reach 0, a flipped
    loop counter reaches it at iteration 150."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        op(_O.LI, R(20), imm=150),
        op(_O.LI, R(18), imm=1000),
        "loop",
        op(_O.ADDI, R(20), R(20), imm=-1),
        op(_O.DIV, R(19), R(18), R(20)),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0])


def test_division_by_an_induction_variable_crashes_at_the_same_index():
    full, proven = _compare(_divide_loop(), 12)
    assert (full.outcome, full.fault_kind) == ("crash", "arithmetic")
    assert not proven


def test_division_whose_zero_lies_past_the_budget_is_proven():
    full, proven = _compare(_divide_loop(), 12, budget=500)
    assert full.outcome == "hang"
    assert proven


def _address_loop(through_top=False):
    """Loads ``2**30`` words past a pointer that climbs from 1000 by
    ``2**22`` per iteration: the address (not wrapped, unlike the
    pointer, which wraps only after 512 iterations) passes ``2**31 - 1``
    after 256, which the golden run's 50 do not reach, but a counter
    flipped to about ``-2**31`` does.  ``through_top`` loads through a
    copy of the pointer that the prover knows only as some int32."""
    pointer = R(23) if through_top else R(21)
    return assemble([
        op(_O.LI, R(21), imm=1000),
        op(_O.LI, R(16), imm=0),
        op(_O.LI, R(17), imm=50),
        op(_O.LI, R(22), imm=1 << 22),
        "loop",
        op(_O.XORI, R(23), R(21), imm=0),
        op(_O.LW, R(18), pointer, imm=1 << 30),
        op(_O.ADD, R(21), R(21), R(22)),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BNE, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[1])


@pytest.mark.parametrize("through_top", [False, True])
def test_address_walking_out_of_the_address_space_faults(through_top):
    full, proven = _compare(_address_loop(through_top), 31)
    assert (full.outcome, full.fault_kind) == ("crash", "memory")
    assert not proven


def test_address_that_stays_inside_the_budget_window_is_proven():
    full, proven = _compare(_address_loop(), 31, budget=700)
    assert full.outcome == "hang"
    assert proven


def _nan_loop():
    """Stores NaN to cell 900 every iteration and loads through a pointer
    that falls from 1000 by one per iteration; the golden run's 51
    iterations stop at 950, a flipped counter walks into the NaN."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        op(_O.LI, R(21), imm=1000),
        op(_O.LI, R(22), imm=900),
        op(_O.FLI, F(2), imm=0.0),
        op(_O.FDIV, F(1), F(2), F(2)),
        "loop",
        op(_O.FSW, rs1=R(22), rs2=F(1), imm=0),
        op(_O.LW, R(18), R(21), imm=0),
        op(_O.ADDI, R(21), R(21), imm=-1),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0])


def test_load_of_a_nan_the_loop_stores_crashes():
    full, proven = _compare(_nan_loop(), 12)
    assert full.outcome == "crash"
    assert not proven


def test_load_of_a_float_the_loop_lets_overflow_crashes():
    """The loop loads cell 900, then stores a float that doubles each
    iteration there: finite at every try, infinite at iteration 1024."""
    program = assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        op(_O.LI, R(22), imm=900),
        op(_O.FLI, F(1), imm=1.0),
        op(_O.FLI, F(2), imm=2.0),
        "loop",
        op(_O.LW, R(18), R(22), imm=0),
        op(_O.FMUL, F(1), F(1), F(2)),
        op(_O.FSW, rs1=R(22), rs2=F(1), imm=0),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0])
    full, proven = _compare(program, 12, budget=6000)
    assert full.outcome == "crash"
    assert not proven


def _walking_load_loop(data, body, offset):
    """A counted loop with a pointer that starts ``offset`` words below
    the data and climbs one word per iteration: it reaches the data at
    iteration ``offset``, past the golden run's 51.  ``done`` labels the
    halt."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        op(_O.LA, R(22), label="data"),
        op(_O.ADDI, R(21), R(22), imm=-offset),
        "loop",
        *body,
        op(_O.ADDI, R(21), R(21), imm=1),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        "done",
        op(_O.HALT),
    ], data=[("data", data)], tagged=[0])


def test_load_of_a_nan_in_memory_crashes():
    program = _walking_load_loop([float("nan")],
                                 [op(_O.LW, R(18), R(21), imm=0)], 100)
    full, proven = _compare(program, 12)
    assert full.outcome == "crash"
    assert not proven


#: ``int()`` of the largest float, xor ``2**970``, is an int that no
#: float holds.
_WIDE = [1.7976931348623157e308, 2.0 ** 970]


_WIDE_USES = {
    "store": [op(_O.FLW, F(1), R(22), imm=2),
              op(_O.SW, rs1=R(22), rs2=R(20), imm=2)],
    "convert": [op(_O.CVTIF, F(1), R(20))],
    "divide": [op(_O.LI, R(24), imm=1), op(_O.DIV, R(25), R(20), R(24))],
}


@pytest.mark.parametrize("use", sorted(_WIDE_USES))
def test_int_too_wide_for_a_float_crashes(use):
    """The pointer reaches ``2**970`` at iteration 99, and the xor turns
    wide; it is converted to a float, divided (through a float
    quotient), or stored to a cell that the next iteration loads as a
    float."""
    body = [op(_O.LW, R(18), R(22), imm=0),
            op(_O.LW, R(19), R(21), imm=0),
            op(_O.XOR, R(20), R(18), R(19)),
            *_WIDE_USES[use]]
    full, proven = _compare(_walking_load_loop(_WIDE, body, 98), 12)
    assert full.outcome == "crash"
    assert not proven


@pytest.mark.parametrize("through_top", [False, True])
def test_store_that_may_overwrite_a_forwarded_cell_is_seen(through_top):
    """Each iteration stores 0 to a cell, then 1 through the climbing
    pointer (or an int32 copy of it), then exits when the cell holds a
    nonzero value: at iteration 100, when the pointer reaches it."""
    pointer = R(23) if through_top else R(21)
    program = _walking_load_loop([0], [
        op(_O.SW, rs1=R(22), rs2=R(0), imm=0),
        op(_O.XORI, R(23), R(21), imm=0),
        op(_O.LI, R(19), imm=1),
        op(_O.SW, rs1=pointer, rs2=R(19), imm=0),
        op(_O.LW, R(18), R(22), imm=0),
        op(_O.BNEZ, rs1=R(18), label="done"),
    ], 100)
    full, proven = _compare(program, 12)
    assert full.outcome == "completed"
    assert not proven


def _call_loop():
    """A counted loop that calls a function spilling ``$31`` and a
    variable register to the stack, then returning through ``jr``."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        "loop",
        op(_O.JAL, R(31), label="callee"),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
        "callee",
        op(_O.ADDI, R(29), R(29), imm=-2),
        op(_O.SW, rs1=R(29), rs2=R(31), imm=0),
        op(_O.SW, rs1=R(29), rs2=R(16), imm=1),
        op(_O.ADDI, R(16), R(16), imm=3),
        op(_O.ADD, R(2), R(16), R(17)),
        op(_O.LW, R(16), R(29), imm=1),
        op(_O.LW, R(31), R(29), imm=0),
        op(_O.ADDI, R(29), R(29), imm=2),
        op(_O.JR, rs1=R(31)),
    ], tagged=[0])


def test_loop_that_calls_a_function_is_proven():
    full, proven = _compare(_call_loop(), 12)
    assert full.outcome == "hang"
    assert proven


def test_exit_test_on_a_loaded_value_is_refused():
    """The loop exits when its counter meets a value it loads each
    iteration: a true hang that the rule cannot show."""
    program = assemble([
        op(_O.LI, R(16), imm=0),
        op(_O.LA, R(21), label="bound"),
        "loop",
        op(_O.LW, R(18), R(21), imm=0),
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.BNE, rs1=R(16), rs2=R(18), label="loop"),
        op(_O.HALT),
    ], data=[("bound", [50])], tagged=[0])
    full, proven = _compare(program, 31)
    assert full.outcome == "hang"
    assert not proven


def _pending_loop():
    """The counter loop with a second exposed row inside it, whose
    results nothing reads."""
    return assemble([
        op(_O.LI, R(16), imm=-1),
        op(_O.LI, R(17), imm=50),
        "loop",
        op(_O.ADDI, R(16), R(16), imm=1),
        op(_O.ADDI, R(18), R(16), imm=0),
        op(_O.BLT, rs1=R(16), rs2=R(17), label="loop"),
        op(_O.HALT),
    ], tagged=[0, 3])


def test_target_pending_in_the_loop_is_refused():
    # The second target lies past the budget: it never fires, but the
    # loop holds the row where it would, so the run is simulated to its
    # budget.
    full, proven = _compare(_pending_loop(), 12, targets=(0, 10 ** 6))
    assert full.outcome == "hang"
    assert full.injection.injected_errors == 1
    assert not proven


def test_target_that_no_row_of_the_loop_can_fire_is_proven():
    # Only the start is exposed, so the second target never fires: the
    # loop is plain code with a target pending.
    full, proven = _compare(_counter_loop(), 12, targets=(0, 5))
    assert full.outcome == "hang"
    assert full.injection.injected_errors == 1
    assert proven


def test_target_firing_late_in_the_loop_is_proven_after_it():
    # 52 iterations run before the golden length; the second target
    # fires near 80 iterations, between the first and second tries.
    full, proven = _compare(_pending_loop(), 12, targets=(0, 80))
    assert full.outcome == "hang"
    assert full.injection.injected_errors == 2
    assert proven


# ----------------------------------------------------------------------
# Recorded hangs of the unprotected grid: fork records against decoded
# ones, and each task's verdict pinned.
# ----------------------------------------------------------------------

#: ``(base_seed, app, run_index, errors) -> proven`` for hangs of the
#: unprotected half at six runs per cell.
RECORDED_HANGS = {
    (1, "susan", 2, 150): True,     # a counted loop
    (1, "susan", 2, 20): False,     # the hang is an outer loop nest
    (1, "mpeg", 5, 4): True,
    (1, "mcf", 4, 40): True,
    (1, "mcf", 0, 10): False,       # pointer chasing: exits read memory
    (2, "blowfish", 2, 40): True,   # ``jr $31`` to itself, targets pending
    (1, "blowfish", 1, 10): True,
    (1, "gsm", 1, 30): True,
    (2, "gsm", 4, 10): False,       # CVTIF of a loaded int
}


@pytest.fixture(scope="module")
def suite():
    return suite_apps("small")


@pytest.mark.parametrize("task", sorted(RECORDED_HANGS),
                         ids=lambda task: "-".join(map(str, task)))
def test_recorded_hang_records_match_decoded(suite, task):
    base_seed, name, run_index, errors = task
    app = suite[name]
    records = {}
    for engine in ("decoded", "fork"):
        config = CampaignConfig(runs=6, base_seed=base_seed, engine=engine,
                                parallel=1)
        store = app.checkpoint_store(config.workload_seed_for(run_index))
        before = store.proven_hangs
        records[engine] = make_record(app, config, run_index, errors,
                                      ProtectionMode.UNPROTECTED)
    proven = store.proven_hangs - before  # of the fork run, made last
    assert records["fork"].outcome == "hang"
    assert (json.dumps(records["fork"].to_json(), sort_keys=True)
            == json.dumps(records["decoded"].to_json(), sort_keys=True))
    assert proven == RECORDED_HANGS[task]
