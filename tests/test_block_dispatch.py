"""Unit and span dispatch against per-instruction dispatch.

Every scalar loop runs through :class:`repro.sim.stepper.Stepper`, which
executes a whole unit (a basic block extended along unconditional jumps)
per call where it can, and a span of a unit's rows where it enters
mid-block or must stop early (here from the first visit on: the ``hot``
fixture drops the hotness threshold).  The oracle is the same engine
with no leaders: a decode whose ``block_sizes`` are all zero makes the
stepper single-step every instruction through the per-instruction
handlers, which is how the engines dispatched before blocks.  Results
are compared with :func:`bit_equal` -- type and IEEE-754 bits, including
the injection events -- on small programs built to put faults, watchdog
budgets, jumps and injection targets at the first, a middle and the last
row of a block, a span and a fused unit.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from contextlib import contextmanager, nullcontext

import pytest

from repro.apps import create_app
from repro.assembler import ProgramBuilder
from repro.isa import F, Opcode, R
from repro.sim import (
    ArithmeticFault,
    InjectionPlan,
    Machine,
    ProtectionMode,
    SimFault,
    build_checkpoint_store,
    decode_program,
    plan_injections,
)
from repro.sim import fork as fork_module
from repro.sim import machine as machine_module
from repro.sim import stepper as stepper_module
from repro.sim.semantics import unit_maker
from repro.sim.stepper import Stepper

from test_engine_differential import bit_equal

UNPROTECTED = ProtectionMode.UNPROTECTED
PROTECTED = ProtectionMode.PROTECTED


@pytest.fixture(autouse=True)
def hot(monkeypatch):
    """Compile every block at its first visit, not only hot ones, and
    start checkpoint grids at one instruction, so that these short
    programs get grids that coarsen."""
    monkeypatch.setattr(stepper_module, "HOT_VISITS", 0)
    monkeypatch.setattr(fork_module, "FIRST_INTERVAL", 1)


def assemble(lines, data=(), tagged=()):
    """Build a program from ``emit`` keyword dicts and label strings.

    ``data`` holds ``(name, initial values)`` pairs; ``tagged`` lists the
    instruction indices marked low-reliability (the data-bit sites).
    """
    builder = ProgramBuilder()
    for name, values in data:
        builder.data(name, len(values), values)
    with builder.function("main"):
        for line in lines:
            if isinstance(line, str):
                builder.label(line)
            else:
                builder.emit(**line)
    program = builder.build()
    for index in tagged:
        program.instructions[index].low_reliability = True
    return program


def op(opcode, rd=None, rs1=None, rs2=None, imm=None, label=None):
    return dict(op=opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm, label=label)


def _per_instruction(program):
    decoded = decode_program(program)
    return dataclasses.replace(decoded, block_sizes=[0] * decoded.text_len,
                               block_shapes=[None] * decoded.text_len)


@contextmanager
def per_instruction_dispatch():
    """Run the engines with no leaders, one instruction per dispatch."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (machine_module, fork_module):
            patch.setattr(module, "decode_program", _per_instruction)
        yield


def assert_bit_identical(blocked, stepped):
    for name in ("outcome", "executed", "exit_value", "fault", "fault_kind",
                 "exec_counts", "statistics", "outputs"):
        assert bit_equal(getattr(blocked, name), getattr(stepped, name)), name
    assert bit_equal(blocked.memory.cells, stepped.memory.cells)
    blocked_events = blocked.injection.events if blocked.injection else []
    stepped_events = stepped.injection.events if stepped.injection else []
    assert bit_equal(blocked_events, stepped_events)


#: Checkpoint counts of the fork engine's stores: from a lone start
#: checkpoint to more than these programs' lengths, so the one-pass
#: capture coarsens its grid several times, or never.
STORE_COUNTS = (1, 2, 3, 8, 128)


def run_both(program, budget=1000, plan=None, engine="decoded"):
    """The same run under block and per-instruction dispatch.

    ``plan`` is a zero-argument factory, so each run gets fresh events.
    Under ``engine="fork"`` the run is also forked off a one-pass store
    of each of :data:`STORE_COUNTS`, built under the same dispatch, and
    must match the decoded run bit for bit.
    """
    def run(engine, store=None):
        return Machine(program).run(
            max_instructions=budget,
            injection=plan() if plan is not None else None,
            engine=engine, checkpoints=store)

    results = []
    for dispatch in (nullcontext(), per_instruction_dispatch()):
        with dispatch:
            decoded = run("decoded")
            if engine == "fork":
                for count in STORE_COUNTS:
                    store = build_checkpoint_store(Machine(program),
                                                   count=count)
                    assert_bit_identical(run("fork", store), decoded)
            results.append(decoded)
    return results


# ----------------------------------------------------------------------
# Faults inside a block.
# ----------------------------------------------------------------------
A, B, C, D = R(8), R(9), R(10), R(11)

#: One faulting instruction each, with the state that makes it fault.
FAULTS = {
    "arithmetic": ([op(Opcode.LI, B, imm=0),
                    op(Opcode.DIV, C, A, B)], ArithmeticFault),
    "value": ([op(Opcode.LA, A, label="cell"),
               op(Opcode.LW, C, A, imm=0)], ValueError),
    "overflow": ([op(Opcode.LA, A, label="cell"),
                  op(Opcode.LW, C, A, imm=1),
                  op(Opcode.CVTIF, F(1), C)], OverflowError),
}
CELL = ("cell", [math.nan, 10 ** 400])


def _faulting_program(kind, before, after):
    setup, _ = FAULTS[kind]
    filler = [op(Opcode.ADDI, D, D, imm=k + 1) for k in range(3)]
    return assemble(filler[:before] + setup + filler[:after]
                    + [op(Opcode.HALT)], data=[CELL])


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("before,after", [(0, 0), (0, 3), (2, 1), (3, 0)])
def test_fault_mid_block_matches_per_instruction(kind, before, after):
    program = _faulting_program(kind, before, after)
    decoded = decode_program(program)
    assert decoded.block_sizes[0] == decoded.text_len  # one block
    blocked, stepped = run_both(program)
    assert blocked.outcome == "crash"
    assert_bit_identical(blocked, stepped)

    # The stepper leaves pc at the faulting instruction either way.
    faulting = before + len(FAULTS[kind][0]) - 1
    for dispatch in (decoded, _per_instruction(program)):
        stepper = Stepper(dispatch, Machine(program), 0)
        with pytest.raises(FAULTS[kind][1]) as info:
            stepper.run(100)
        assert stepper.pc == faulting
        assert stepper.executed == faulting + 1
        assert stepper.flush() == stepped.exec_counts
        if isinstance(info.value, SimFault):
            assert info.value.pc == faulting


#: What a span may raise.
_FAULTS = (SimFault, OverflowError, ValueError)


def _stepped_twice(decoded, program, cut, limit):
    """A stepper cut at ``cut`` and resumed until ``limit``: the second
    run enters the block mid-way."""
    stepper = Stepper(decoded, Machine(program), 0)
    stepper.run(cut)
    assert stepper.pc == cut
    with pytest.raises(_FAULTS) as info:
        stepper.run(limit)
    return stepper, info.value


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_fault_in_a_span_entered_mid_block(kind, where):
    """Resuming mid-block runs a span; a fault at its first, a middle or
    its last row leaves what per-instruction dispatch leaves."""
    program = _faulting_program(kind, 3, 3)
    faulting = 3 + len(FAULTS[kind][0]) - 1
    cut, limit = {"first": (faulting, 100), "middle": (faulting - 1, 100),
                  "last": (faulting - 2, faulting + 1)}[where]
    decoded = decode_program(program)
    blocked, exc = _stepped_twice(decoded, program, cut, limit)
    assert blocked.spans[0] is not None
    stepped, oracle_exc = _stepped_twice(_per_instruction(program), program,
                                         cut, limit)
    assert type(exc) is type(oracle_exc) is FAULTS[kind][1]
    assert str(exc) == str(oracle_exc)
    assert (blocked.pc, blocked.executed) == (stepped.pc, stepped.executed) \
        == (faulting, faulting + 1)
    assert blocked.flush() == stepped.flush()


def _fused_faulting_program(kind):
    """``ADDI; ADDI; J L; ADDI; L: <fault>; ADDI; HALT``: the unit at the
    entry runs on through the jump into the faulting block."""
    setup, _ = FAULTS[kind]
    return assemble([op(Opcode.ADDI, D, D, imm=1), op(Opcode.ADDI, D, D, imm=2),
                     op(Opcode.J, label="L"), op(Opcode.ADDI, D, D, imm=3),
                     "L", *setup, op(Opcode.ADDI, D, D, imm=4),
                     op(Opcode.HALT)], data=[CELL])


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_fault_in_the_successor_block_of_a_fused_unit(kind):
    program = _fused_faulting_program(kind)
    decoded = decode_program(program)
    rows = decoded.block_rows[0]
    assert rows == (0, 1, 2, *range(4, decoded.text_len))
    assert decoded.block_shapes[0][2] == ("J", False)  # fused, not last
    blocked, stepped = run_both(program)
    assert blocked.outcome == "crash"
    assert_bit_identical(blocked, stepped)

    # Entered mid-unit, through a span that crosses the fused jump.
    faulting = 3 + len(FAULTS[kind][0])
    blocked, exc = _stepped_twice(decoded, program, 1, 100)
    stepped, oracle_exc = _stepped_twice(_per_instruction(program), program,
                                         1, 100)
    assert str(exc) == str(oracle_exc)
    assert blocked.pc == stepped.pc == faulting
    assert blocked.executed == stepped.executed == faulting
    assert blocked.flush() == stepped.flush()


# ----------------------------------------------------------------------
# Watchdog budgets and jumps.
# ----------------------------------------------------------------------
def _loop():
    return assemble([
        op(Opcode.LI, A, imm=0),
        op(Opcode.LI, B, imm=5),
        "L",
        op(Opcode.ADDI, A, A, imm=1),
        op(Opcode.ADD, C, C, A),
        op(Opcode.SLLI, D, C, imm=1),
        op(Opcode.BLT, rs1=A, rs2=B, label="L"),
        op(Opcode.OUT, rs1=D, imm=0),
        op(Opcode.HALT),
    ])


LOOP = _loop()


def test_blocks_run_whole_once_hot(monkeypatch):
    """The loop body single-steps until its leader has been visited
    ``HOT_VISITS`` times, then runs as one block per iteration."""
    monkeypatch.setattr(stepper_module, "HOT_VISITS", 3)
    program = _loop()
    decoded = decode_program(program)
    stepper = Stepper(decoded, Machine(program), decoded.entry_index)
    stepper.run(1000)
    assert stepper.halted and stepper.executed == 24
    assert stepper.bound == [2]  # the entry block stays cold
    assert stepper.block_counts[2] == 2  # iterations 4 and 5
    assert stepper.flush() == Machine(program).run(
        engine="reference").exec_counts


def test_every_watchdog_budget_matches_per_instruction():
    golden = Machine(LOOP).run()
    assert golden.executed == 2 + 5 * 4 + 2
    for budget in range(0, golden.executed + 3):
        blocked, stepped = run_both(LOOP, budget)
        assert blocked.outcome == ("completed" if budget >= golden.executed
                                   else "hang"), budget
        assert_bit_identical(blocked, stepped)


def test_jr_into_the_middle_of_a_block():
    program = assemble([
        op(Opcode.LI, A, imm=4),
        op(Opcode.JR, rs1=A),
        op(Opcode.ADDI, B, B, imm=1),
        op(Opcode.ADDI, C, C, imm=2),
        op(Opcode.ADDI, D, D, imm=3),   # the JR lands here
        op(Opcode.ADDI, D, D, imm=4),
        op(Opcode.BNEZ, rs1=A, label="L"),
        "L",
        op(Opcode.OUT, rs1=D, imm=0),
        op(Opcode.HALT),
    ])
    decoded = decode_program(program)
    assert decoded.block_sizes[2] == 5 and decoded.block_sizes[4] == 0
    blocked, stepped = run_both(program)
    reference = Machine(program).run(engine="reference")
    assert blocked.exec_counts == [1, 1, 0, 0, 1, 1, 1, 1, 1]
    assert_bit_identical(blocked, stepped)
    assert bit_equal(blocked.outputs, reference.outputs)
    assert blocked.exec_counts == reference.exec_counts


#: A loop whose body ends in ``J H``: the body's unit runs through the
#: jump into the header's test, so one iteration is one dispatch.
J_LOOP = assemble([
    op(Opcode.LI, A, imm=0),
    op(Opcode.LI, B, imm=5),
    "H",
    op(Opcode.BGE, rs1=A, rs2=B, label="X"),
    op(Opcode.ADDI, A, A, imm=1),
    op(Opcode.ADD, C, C, A),
    op(Opcode.SLLI, D, C, imm=1),
    op(Opcode.J, label="H"),
    "X",
    op(Opcode.OUT, rs1=D, imm=0),
    op(Opcode.HALT),
])


def test_j_fused_loop_layout():
    decoded = decode_program(J_LOOP)
    assert decoded.block_rows[0] == (0, 1, 2)  # falls into the header
    assert decoded.block_rows[3] == (3, 4, 5, 6, 2)
    assert decoded.block_owner[5] == 3 and decoded.block_owner[2] == 2
    stepper = Stepper(decoded, Machine(J_LOOP), decoded.entry_index)
    stepper.run(1000)
    assert stepper.halted
    assert stepper.block_counts[3] == 5  # one dispatch per iteration


def test_every_watchdog_budget_across_a_j_fused_loop():
    golden = Machine(J_LOOP).run()
    assert golden.executed == 3 + 5 * 5 + 2
    for budget in range(0, golden.executed + 3):
        blocked, stepped = run_both(J_LOOP, budget)
        assert blocked.outcome == ("completed" if budget >= golden.executed
                                   else "hang"), budget
        assert_bit_identical(blocked, stepped)


def test_fork_budgets_across_a_j_fused_loop():
    golden = Machine(J_LOOP).run()

    def plan():
        return InjectionPlan(mode=UNPROTECTED, targets=[4, 9], seed=3)

    for budget in range(5, golden.executed + 2):
        blocked, stepped = run_both(J_LOOP, budget, plan, "fork")
        assert_bit_identical(blocked, stepped)


def test_self_jump_runs_to_the_watchdog():
    program = assemble([op(Opcode.LI, A, imm=1), "L", op(Opcode.J, label="L"),
                        op(Opcode.HALT)])
    decoded = decode_program(program)
    assert decoded.block_rows[1] == (1,)
    assert decoded.block_rows[0] == (0, 1)  # stops at the repeated block
    for budget in (0, 1, 2, 3, 10, 1000):
        blocked, stepped = run_both(program, budget)
        assert blocked.outcome == "hang"
        assert blocked.executed == budget
        assert_bit_identical(blocked, stepped)


def test_entries_into_a_blocks_middle_heat_its_unit(monkeypatch):
    """A ``JR`` loop that only ever re-enters a block mid-way compiles its
    unit after ``HOT_VISITS`` entries; the rows single-stepped after an
    entry do not count."""
    monkeypatch.setattr(stepper_module, "HOT_VISITS", 3)
    program = assemble([
        op(Opcode.LI, A, imm=3),
        op(Opcode.LI, B, imm=0),
        op(Opcode.ADDI, C, C, imm=2),
        op(Opcode.ADDI, B, B, imm=1),   # every JR lands here
        op(Opcode.SLTI, D, B, imm=10),
        op(Opcode.BEQZ, rs1=D, label="X"),
        op(Opcode.JR, rs1=A),
        "X",
        op(Opcode.OUT, rs1=C, imm=0),
        op(Opcode.HALT),
    ])
    decoded = decode_program(program)
    stepper = Stepper(decoded, Machine(program), decoded.entry_index)
    assert decoded.block_rows[0] == (0, 1, 2, 3, 4, 5)
    stepper.run(7)  # the first pass: one visit to the leader
    assert stepper.pc == 3 and decoded.block_heat[0] == 1
    stepper.run(1000)
    assert stepper.halted and stepper.spans[0] is not None
    assert decoded.block_heat[0] == 4  # compiled at the fourth entry
    assert stepper.flush() == Machine(program).run(
        engine="reference").exec_counts


# ----------------------------------------------------------------------
# Injection targets inside a block, under every fault model.
# ----------------------------------------------------------------------
#: The loop body (indices 3-7) is one block with three register writes:
#: LW (its first exposed row), ADD (a middle one) and ADDI (the last).
#: Those three are tagged low-reliability, so the protected stream --
#: the data-bit model's -- is the loop's writes alone.
MEMORY_LOOP = assemble([
    op(Opcode.LA, R(12), label="buf"),
    op(Opcode.LI, A, imm=0),
    op(Opcode.LI, B, imm=4),
    "L",
    op(Opcode.LW, C, R(12), imm=0),
    op(Opcode.ADD, C, C, A),
    op(Opcode.SW, rs1=R(12), rs2=C, imm=0),
    op(Opcode.ADDI, A, A, imm=1),
    op(Opcode.BLT, rs1=A, rs2=B, label="L"),
    op(Opcode.LW, D, R(12), imm=0),
    op(Opcode.OUT, rs1=D, imm=0),
    op(Opcode.HALT),
], data=[("buf", [7])], tagged=(3, 4, 6))

#: Second iteration of the loop block: its exposed occurrences in the
#: unprotected stream (LA, LI, LI come first), in the protected stream,
#: and its rows' positions in the whole dynamic stream (memory-bit).
SECOND_PASS = {
    UNPROTECTED: {"first": 6, "middle": 7, "last": 8},
    PROTECTED: {"first": 3, "middle": 4, "last": 5},
    "stream": {"first": 8, "middle": 10, "last": 12},
}

MODELS = [("control-bit", UNPROTECTED), ("control-bit", PROTECTED),
          ("data-bit", UNPROTECTED), ("multi-bit", UNPROTECTED),
          ("opcode", UNPROTECTED), ("memory-bit", UNPROTECTED)]


def _targets(model, mode, where):
    if model == "memory-bit":
        return [SECOND_PASS["stream"][where]]
    stream = PROTECTED if model == "data-bit" else mode
    return [SECOND_PASS[stream][where]]


def test_loop_block_layout():
    decoded = decode_program(MEMORY_LOOP)
    assert decoded.block_sizes[3] == 5
    golden = Machine(MEMORY_LOOP).run()
    assert golden.statistics.exposed_unprotected == 3 + 4 * 3 + 1
    assert golden.statistics.exposed_protected == 4 * 3


@pytest.mark.parametrize("model,mode", MODELS,
                         ids=[f"{m}-{mode.value}" for m, mode in MODELS])
@pytest.mark.parametrize("where", ["first", "middle", "last", "spread"])
def test_injection_inside_a_block_matches_per_instruction(model, mode, where):
    if where == "spread":
        targets = sorted({t for w in ("first", "last")
                          for t in _targets(model, mode, w)} | {0, 11})
    else:
        targets = _targets(model, mode, where)

    def plan():
        return InjectionPlan(mode=mode, targets=targets, seed=5, model=model)

    engines = ["decoded"] + (["fork"] if model != "memory-bit" else [])
    for engine in engines:
        blocked, stepped = run_both(MEMORY_LOOP, plan=plan, engine=engine)
        assert blocked.injection.events, (engine, targets)
        assert_bit_identical(blocked, stepped)
    if model == "control-bit":
        reference = Machine(MEMORY_LOOP).run(injection=plan(),
                                              engine="reference")
        assert_bit_identical(blocked, reference)


@pytest.mark.parametrize("model,mode", MODELS,
                         ids=[f"{m}-{mode.value}" for m, mode in MODELS])
@pytest.mark.parametrize("where", [("first", "middle"), ("first", "last"),
                                   ("middle", "last"),
                                   ("first", "middle", "last")],
                         ids="-".join)
def test_several_targets_in_one_block_visit(model, mode, where):
    """Targets on consecutive exposed rows (the second right after the
    first fires) and on the first row after a span (``last`` follows the
    ``SW`` the span runs) fire exactly as per-instruction dispatch fires
    them."""
    targets = [target for w in where for target in _targets(model, mode, w)]

    def plan():
        return InjectionPlan(mode=mode, targets=targets, seed=9, model=model)

    engines = ["decoded"] + (["fork"] if model != "memory-bit" else [])
    for engine in engines:
        blocked, stepped = run_both(MEMORY_LOOP, plan=plan, engine=engine)
        assert len(blocked.injection.events) == len(targets), engine
        assert_bit_identical(blocked, stepped)


def test_fork_budgets_across_checkpoints_match_per_instruction():
    golden = Machine(MEMORY_LOOP).run()

    def plan():
        return InjectionPlan(mode=UNPROTECTED, targets=[7], seed=3)

    for budget in range(8, golden.executed + 2):
        blocked, stepped = run_both(MEMORY_LOOP, budget, plan, "fork")
        assert_bit_identical(blocked, stepped)


# ----------------------------------------------------------------------
# Generated block source is keyed by shape and carries no data.
# ----------------------------------------------------------------------
def _shaped(regs, imms):
    """A unit that runs through a fused ``J`` over a skipped row."""
    a, b, c = (R(index) for index in regs)
    return assemble([
        op(Opcode.LA, a, label="buf"),
        op(Opcode.ADDI, b, a, imm=imms[0]),
        op(Opcode.SW, rs1=a, rs2=b, imm=imms[1]),
        op(Opcode.J, label="next"),
        op(Opcode.ADDI, b, b, imm=imms[0]),
        "next",
        op(Opcode.LW, c, a, imm=imms[1]),
        op(Opcode.XORI, c, c, imm=imms[2]),
        op(Opcode.OUT, rs1=c, imm=0),
        op(Opcode.HALT),
    ], data=[("buf", [0] * 64)])


@pytest.mark.parametrize("span", [False, True], ids=["run", "span"])
def test_block_makers_are_shared_and_data_free(span):
    operands = [((13, 14, 15), (1234, 40, 4321)), ((17, 18, 19), (777, 48, 9876))]
    programs = [_shaped(regs, imms) for regs, imms in operands]
    shapes = [decode_program(p).block_shapes[0] for p in programs]
    assert shapes[0] == shapes[1]
    assert len(shapes[0]) == 8 and shapes[0][3] == ("J", False)
    maker = unit_maker(shapes[0], span)
    assert unit_maker(shapes[1], span) is maker
    assert unit_maker(shapes[0], not span) is not maker

    constants = {node.value for node in ast.walk(ast.parse(maker.source))
                 if isinstance(node, ast.Constant)}
    values = {value for regs, imms in operands for value in (*regs, *imms)}
    assert not constants & values
    outputs = []
    for program in programs:
        decoded = decode_program(program)
        machine = Machine(program)
        stepper = Stepper(decoded, machine, decoded.entry_index)
        if span:  # cut after two rows: the rest of the unit is a span
            stepper.run(2)
        stepper.run(100)
        assert stepper.halted and (stepper.spans[0] is not None) == span
        reference = Machine(program).run(engine="reference")
        assert machine.outputs == reference.outputs
        assert stepper.flush() == reference.exec_counts
        outputs.append(machine.outputs)
    assert outputs[0] != outputs[1]


# ----------------------------------------------------------------------
# A hot forked run single-steps only its target rows.
# ----------------------------------------------------------------------
def test_hot_forked_run_single_steps_only_its_target_rows(monkeypatch):
    """Everything else -- the rows before a target, the rest of a block
    after it, the tails before checkpoint boundaries -- runs in compiled
    units and spans."""
    app = create_app("adpcm", samples=300)
    golden = app.golden(0)

    def plan():
        return plan_injections(12, golden.exposed_count(UNPROTECTED),
                               UNPROTECTED, seed=21)

    app.run_once(injection=plan(), engine="fork")  # warm-up
    handler_steps, wrapper_steps = [], []

    def counted(handler, steps, pc):
        def step():
            steps.append(pc)
            return handler()
        return step

    def bind_handler(self, pc):
        handler = self.handlers[pc] = counted(
            stepper_module.FAST_MAKERS[self.decoded.ops[pc]](
                self.decoded.specs[pc], self.machine), handler_steps, pc)
        return handler

    def bind_injected(self, pc):
        handler = self.injected[pc] = (
            counted(self.wrap(pc), wrapper_steps, pc) if self.flags[pc]
            else self.handlers[pc] or self._handler(pc))
        return handler

    monkeypatch.setattr(Stepper, "_handler", bind_handler)
    monkeypatch.setattr(Stepper, "_injected", bind_injected)
    result = app.run_once(injection=plan(), engine="fork")
    events = result.injection.events
    assert len(events) == 12
    assert handler_steps == []
    assert wrapper_steps == [event.static_index for event in events]
