"""Unit tests for the ISA layer: registers, encodings, instructions, programs."""

import pytest

from repro.assembler import ProgramBuilder, parse_assembly
from repro.isa import (
    DataObject,
    F,
    Instruction,
    Opcode,
    Program,
    ProgramError,
    R,
    bits_to_float,
    bits_to_int,
    flip_float_bit,
    flip_int_bit,
    float_to_bits,
    int_to_bits,
    parse_register,
    wrap_int,
)
from repro.isa.opcodes import OPCODE_INFO
from repro.sim import Machine


class TestRegisters:
    def test_int_register_name(self):
        assert R(5).name == "$5"
        assert R(5).is_int and not R(5).is_float

    def test_float_register_name(self):
        assert F(3).name == "$f3"
        assert F(3).is_float

    def test_parse_register_roundtrip(self):
        assert parse_register("$17") == R(17)
        assert parse_register("$f12") == F(12)
        assert parse_register("$sp") == R(29)
        assert parse_register("$ra") == R(31)

    def test_parse_register_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_register("r5")
        with pytest.raises(ValueError):
            parse_register("$99")

    def test_register_index_bounds(self):
        with pytest.raises(ValueError):
            R(32)
        with pytest.raises(ValueError):
            F(-1)


class TestEncoding:
    def test_wrap_int_positive_overflow(self):
        assert wrap_int(2**31) == -(2**31)
        assert wrap_int(2**31 - 1) == 2**31 - 1

    def test_wrap_int_negative(self):
        assert wrap_int(-(2**31) - 1) == 2**31 - 1

    def test_int_bits_roundtrip(self):
        for value in (0, 1, -1, 12345, -54321, 2**31 - 1, -(2**31)):
            assert bits_to_int(int_to_bits(value)) == value

    def test_flip_int_bit_is_involution(self):
        value = 0x1234
        assert flip_int_bit(flip_int_bit(value, 7), 7) == value

    def test_flip_int_sign_bit(self):
        assert flip_int_bit(0, 31) == -(2**31)

    def test_flip_int_bit_out_of_range(self):
        with pytest.raises(ValueError):
            flip_int_bit(0, 32)

    def test_float_bits_roundtrip(self):
        for value in (0.0, 1.5, -3.75, 1e300, -1e-300):
            assert bits_to_float(float_to_bits(value)) == value

    def test_flip_float_bit_is_involution(self):
        value = 3.14159
        assert flip_float_bit(flip_float_bit(value, 52), 52) == value

    def test_flip_float_exponent_changes_magnitude(self):
        assert flip_float_bit(1.0, 62) != 1.0


class TestInstructions:
    def test_defs_and_uses(self):
        instruction = Instruction(Opcode.ADD, rd=R(3), rs1=R(4), rs2=R(5))
        assert instruction.defs() == (R(3),)
        assert set(instruction.uses()) == {R(4), R(5)}

    def test_branch_has_no_defs(self):
        instruction = Instruction(Opcode.BNE, rs1=R(3), rs2=R(10), label="loop")
        assert instruction.defs() == ()
        assert instruction.is_branch

    def test_store_uses_both_registers(self):
        instruction = Instruction(Opcode.SW, rs1=R(29), rs2=R(8), imm=4)
        assert R(8) in instruction.uses() and R(29) in instruction.uses()

    def test_render_contains_mnemonic(self):
        instruction = Instruction(Opcode.ADDI, rd=R(2), rs1=R(0), imm=7)
        assert "addi" in instruction.render()

    def test_every_opcode_is_classified(self):
        assert set(OPCODE_INFO) == set(Opcode)

    def test_arithmetic_classification(self):
        assert Instruction(Opcode.MUL, rd=R(1), rs1=R(2), rs2=R(3)).is_arithmetic
        assert not Instruction(Opcode.LW, rd=R(1), rs1=R(2), imm=0).is_arithmetic
        assert Instruction(Opcode.LA, rd=R(1), label="x").is_arithmetic


class TestProgram:
    def _simple_program(self):
        program = Program()
        program.add_data(DataObject(name="buffer", size=4))
        program.add_label("main")
        program.add_instruction(Instruction(Opcode.LI, rd=R(2), imm=1))
        program.add_instruction(Instruction(Opcode.HALT))
        return program

    def test_finalize_assigns_data_addresses(self):
        program = self._simple_program().finalize()
        assert program.data_address("buffer") >= 0x1000

    def test_duplicate_label_rejected(self):
        program = self._simple_program()
        with pytest.raises(ProgramError):
            program.add_label("main")

    def test_unknown_branch_target_rejected(self):
        program = self._simple_program()
        program.add_instruction(Instruction(Opcode.J, label="nowhere"))
        with pytest.raises(ProgramError):
            program.finalize()

    def test_missing_entry_rejected(self):
        program = Program(entry="start")
        program.add_instruction(Instruction(Opcode.HALT))
        with pytest.raises(ProgramError):
            program.finalize()

    def test_data_object_validation(self):
        with pytest.raises(ProgramError):
            DataObject(name="bad", size=0)
        with pytest.raises(ProgramError):
            DataObject(name="bad", size=1, initial=[1, 2])

    def test_listing_mentions_labels_and_data(self):
        program = self._simple_program().finalize()
        listing = program.listing()
        assert "main:" in listing
        assert ".data buffer" in listing


class TestImmediateRange:
    """ALU immediates and memory offsets must be signed 32-bit integers."""

    CHECKED = ("addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti")
    MEMORY = ("lw", "sw", "flw", "fsw")

    @staticmethod
    def _assemble(line):
        return parse_assembly(f".func main\n  li $9, -5\n  {line}\n  halt\n"
                              f".endfunc\n")

    @pytest.mark.parametrize("mnemonic", CHECKED)
    @pytest.mark.parametrize("imm", [2**31, -(2**31) - 1, 2**70])
    def test_parse_assembly_rejects_wide_alu_immediate(self, mnemonic, imm):
        with pytest.raises(ProgramError, match="signed 32-bit"):
            self._assemble(f"{mnemonic} $10, $9, {imm}")

    @pytest.mark.parametrize("mnemonic", MEMORY)
    def test_parse_assembly_rejects_wide_memory_offset(self, mnemonic):
        register = "$f4" if mnemonic.startswith("f") else "$10"
        with pytest.raises(ProgramError, match="signed 32-bit"):
            self._assemble(f"{mnemonic} {register}, $9, {2**31}")

    @pytest.mark.parametrize("mnemonic", CHECKED)
    @pytest.mark.parametrize("imm", [2**31 - 1, -(2**31), 0])
    def test_int32_bounds_accepted(self, mnemonic, imm):
        self._assemble(f"{mnemonic} $10, $9, {imm}")

    def test_builder_rejects_wide_immediates(self):
        for emit in (lambda b: b.xori(R(10), R(9), 1180591620717411303424),
                     lambda b: b.addi(R(10), R(9), 2**31),
                     lambda b: b.lw(R(10), R(9), -(2**31) - 1),
                     lambda b: b.fsw(F(2), R(9), 2**40)):
            builder = ProgramBuilder()
            with builder.function("main"):
                emit(builder)
                builder.halt()
            with pytest.raises(ProgramError, match="signed 32-bit"):
                builder.build()

    def test_li_keeps_its_documented_wrap(self):
        program = self._assemble(f"li $2, {2**32 + 5}")
        assert Machine(program).run().exit_value == 5
