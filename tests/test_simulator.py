"""Unit tests for the functional simulator and the fault injector."""

import pytest

from repro.assembler import ProgramBuilder, parse_assembly
from repro.isa import F, R
from repro.sim import (
    InjectionPlan,
    Machine,
    Outcome,
    ProtectionMode,
    plan_injections,
)


def _out_buffer(machine):
    """The 32 cells of the ``out_buffer`` global."""
    return machine.memory.read_block(machine.data_address("out_buffer"), 32)


def run_builder(body, **run_kwargs):
    builder = ProgramBuilder()
    with builder.function("main"):
        body(builder)
        builder.halt()
    program = builder.build()
    machine = Machine(program)
    return machine, machine.run(**run_kwargs)


class TestArithmetic:
    def test_add_and_li(self):
        def body(b):
            b.li(R(8), 20)
            b.li(R(9), 22)
            b.add(R(2), R(8), R(9))
        _, result = run_builder(body)
        assert result.outcome == Outcome.COMPLETED
        assert result.exit_value == 42

    def test_signed_wraparound(self):
        def body(b):
            b.li(R(8), 2**31 - 1)
            b.addi(R(2), R(8), 1)
        _, result = run_builder(body)
        assert result.exit_value == -(2**31)

    def test_division_truncates_toward_zero(self):
        def body(b):
            b.li(R(8), -7)
            b.li(R(9), 2)
            b.div(R(2), R(8), R(9))
        _, result = run_builder(body)
        assert result.exit_value == -3

    def test_division_by_zero_crashes(self):
        def body(b):
            b.li(R(8), 1)
            b.li(R(9), 0)
            b.div(R(2), R(8), R(9))
        _, result = run_builder(body)
        assert result.outcome == Outcome.CRASH
        assert result.fault_kind == "arithmetic"

    def test_shift_amount_is_masked(self):
        def body(b):
            b.li(R(8), 1)
            b.li(R(9), 33)   # hardware masks to 1
            b.sll(R(2), R(8), R(9))
        _, result = run_builder(body)
        assert result.exit_value == 2

    def test_float_pipeline(self):
        def body(b):
            b.fli(F(1), 2.25)
            b.fli(F(2), 4.0)
            b.fmul(F(3), F(1), F(2))
            b.cvtfi(R(2), F(3))
        _, result = run_builder(body)
        assert result.exit_value == 9

    def test_float_division_by_zero_gives_infinity(self):
        def body(b):
            b.fli(F(1), 1.0)
            b.fli(F(2), 0.0)
            b.fdiv(F(3), F(1), F(2))
            b.fout(F(3))
        _, result = run_builder(body)
        assert result.outcome == Outcome.COMPLETED
        assert result.output(0)[0] == float("inf")


class TestMemoryAndControl:
    def test_store_load_roundtrip(self):
        def body(b):
            b.data("scratch", 8)
            b.la(R(8), "scratch")
            b.li(R(9), 77)
            b.sw(R(9), R(8), 3)
            b.lw(R(2), R(8), 3)
        _, result = run_builder(body)
        assert result.exit_value == 77

    def test_loop_sums_integers(self):
        def body(b):
            b.li(R(8), 0)    # sum
            b.li(R(9), 1)    # i
            b.li(R(10), 10)  # n
            b.label("loop")
            b.add(R(8), R(8), R(9))
            b.addi(R(9), R(9), 1)
            b.ble(R(9), R(10), "loop")
            b.mov(R(2), R(8))
        _, result = run_builder(body)
        assert result.exit_value == 55

    def test_call_and_return(self):
        builder = ProgramBuilder()
        with builder.function("main"):
            builder.li(R(4), 5)
            builder.jal("double")
            builder.halt()
        with builder.function("double"):
            builder.add(R(2), R(4), R(4))
            builder.ret()
        machine = Machine(builder.build())
        result = machine.run()
        assert result.exit_value == 10

    def test_jump_to_garbage_crashes(self):
        def body(b):
            b.li(R(8), 123456)
            b.jr(R(8))
        _, result = run_builder(body)
        assert result.outcome == Outcome.CRASH
        assert result.fault_kind == "control"

    def test_watchdog_detects_infinite_loop(self):
        def body(b):
            b.label("spin")
            b.j("spin")
        _, result = run_builder(body, max_instructions=500)
        assert result.outcome == Outcome.HANG
        assert result.executed == 500

    def test_wild_address_is_silently_mapped(self):
        # A corrupted-but-positive address must not crash (SimpleScalar-like
        # lazily mapped memory); it just reads zero.
        def body(b):
            b.li(R(8), 2**30 + 12345)
            b.lw(R(2), R(8), 0)
        _, result = run_builder(body)
        assert result.outcome == Outcome.COMPLETED
        assert result.exit_value == 0

    def test_out_channels(self):
        def body(b):
            b.li(R(8), 7)
            b.out(R(8), 0)
            b.out(R(8), 3)
        _, result = run_builder(body)
        assert result.output(0) == [7]
        assert result.output(3) == [7]

    def test_statistics_classify_instructions(self):
        def body(b):
            b.li(R(8), 1)
            b.li(R(9), 5)
            b.label("loop")
            b.addi(R(8), R(8), 1)
            b.blt(R(8), R(9), "loop")
        _, result = run_builder(body)
        stats = result.statistics
        assert stats.total == result.executed
        assert stats.branch > 0
        assert stats.arithmetic > 0


class TestAssemblyParser:
    SOURCE = """
    .data table 4 = 5 6 7 8
    .func main
        la   $8, table
        lw   $9, $8, 2
        addi $2, $9, 100
        halt
    .endfunc
    """

    def test_parse_and_run(self):
        program = parse_assembly(self.SOURCE)
        result = Machine(program).run()
        assert result.exit_value == 107

    def test_functions_are_recorded(self):
        program = parse_assembly(self.SOURCE)
        assert "main" in program.functions


class TestInjection:
    def _program(self):
        builder = ProgramBuilder()
        with builder.function("main"):
            builder.data("out_buffer", 64)
            builder.la(R(10), "out_buffer")
            builder.li(R(8), 0)      # i
            builder.li(R(9), 32)     # n
            builder.label("loop")
            builder.mul(R(11), R(8), R(8)).low_reliability = True
            builder.add(R(12), R(10), R(8))
            builder.sw(R(11), R(12), 0)
            builder.addi(R(8), R(8), 1)
            builder.blt(R(8), R(9), "loop")
            builder.halt()
        return builder.build()

    def test_plan_targets_are_unique_and_sorted(self):
        plan = plan_injections(10, 1000, ProtectionMode.PROTECTED, seed=1)
        assert plan.targets == sorted(set(plan.targets))
        assert len(plan.targets) == 10

    def test_plan_is_deterministic_per_seed(self):
        a = plan_injections(5, 500, ProtectionMode.PROTECTED, seed=9)
        b = plan_injections(5, 500, ProtectionMode.PROTECTED, seed=9)
        assert a.targets == b.targets

    def test_plan_rejects_invalid_targets(self):
        with pytest.raises(ValueError):
            InjectionPlan(mode=ProtectionMode.PROTECTED, targets=[3, 3])
        with pytest.raises(ValueError):
            InjectionPlan(mode=ProtectionMode.PROTECTED, targets=[-1])

    def test_protected_injection_only_hits_tagged_instructions(self):
        program = self._program()
        golden = Machine(program).run()
        exposed = golden.statistics.exposed_protected
        assert exposed == 32  # one tagged MUL per loop iteration
        plan = plan_injections(4, exposed, ProtectionMode.PROTECTED, seed=3)
        result = Machine(program).run(injection=plan)
        assert result.outcome == Outcome.COMPLETED
        assert plan.injected_errors == 4
        assert all(event.opcode == "MUL" for event in plan.events)

    def test_injection_corrupts_results(self):
        program = self._program()
        golden_machine = Machine(program)
        golden = golden_machine.run()
        golden_values = _out_buffer(golden_machine)

        plan = plan_injections(3, golden.statistics.exposed_protected,
                               ProtectionMode.PROTECTED, seed=11)
        injected_machine = Machine(program)
        injected = injected_machine.run(injection=plan)
        corrupted_values = _out_buffer(injected_machine)
        assert injected.outcome == Outcome.COMPLETED
        assert corrupted_values != golden_values

    def test_zero_errors_is_identical_to_golden(self):
        program = self._program()
        golden_machine = Machine(program)
        golden_machine.run()
        plan = plan_injections(0, 100, ProtectionMode.PROTECTED, seed=1)
        machine = Machine(program)
        machine.run(injection=plan)
        assert _out_buffer(machine) == _out_buffer(golden_machine)
