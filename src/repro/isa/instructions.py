"""Instruction representation for the virtual ISA.

An :class:`Instruction` is a three-address operation.  Register operands are
:class:`~repro.isa.registers.Reg` values; branch/jump targets are symbolic
labels resolved by the assembler; immediates are Python ints (or floats for
``FLI``).

The representation is deliberately explicit rather than encoded: the compiler
passes and the simulator both consume the same objects, and the fault model
(Section 4 of the paper) flips bits in instruction *results*, not in the
instruction encoding itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .opcodes import OPCODE_INFO, Opcode, OpcodeInfo
from .registers import Reg


@dataclass
class Instruction:
    """A single instruction.

    Parameters
    ----------
    op:
        The opcode.
    rd:
        Destination register, if the instruction writes one.
    rs1, rs2:
        Source registers.  Memory operations use ``rs1`` as the address
        register (``LW rd, rs1, imm`` loads ``mem[rs1 + imm]``; ``SW rs2,
        rs1, imm`` stores ``rs2`` to ``mem[rs1 + imm]``).
    imm:
        Immediate operand (int, or float for ``FLI``).
    label:
        Symbolic control-flow target or data symbol name.
    comment:
        Free-form annotation carried through for debugging and listings.
    """

    op: Opcode
    rd: Optional[Reg] = None
    rs1: Optional[Reg] = None
    rs2: Optional[Reg] = None
    imm: Optional[float] = None
    label: Optional[str] = None
    comment: str = ""
    #: Set by the control-data tagging pass: True means the instruction is
    #: *low reliability* (its result does not influence control flow and may
    #: run on unreliable hardware / receive injected errors under
    #: "protection ON").
    low_reliability: bool = False
    #: Source location (function name) filled in by the code generator.
    function: Optional[str] = None

    def __post_init__(self) -> None:
        self.info: OpcodeInfo = OPCODE_INFO[self.op]

    # ------------------------------------------------------------------
    # Operand views used by the data-flow analyses.
    # ------------------------------------------------------------------
    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        if self.rd is not None and self.info.writes_register:
            return (self.rd,)
        return ()

    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction."""
        regs = []
        if self.rs1 is not None:
            regs.append(self.rs1)
        if self.rs2 is not None:
            regs.append(self.rs2)
        # JR reads its target register through rs1; OUT reads rs1.
        return tuple(regs)

    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    @property
    def is_control(self) -> bool:
        return self.info.is_control

    @property
    def is_arithmetic(self) -> bool:
        return self.info.is_arithmetic

    @property
    def is_memory(self) -> bool:
        return self.info.is_memory

    @property
    def writes_register(self) -> bool:
        return self.info.writes_register and self.rd is not None

    # ------------------------------------------------------------------
    # Pretty printing.
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render the instruction in assembly-listing syntax."""
        parts = [self.info.name]
        operands = []
        if self.rd is not None:
            operands.append(str(self.rd))
        if self.rs1 is not None:
            operands.append(str(self.rs1))
        if self.rs2 is not None:
            operands.append(str(self.rs2))
        if self.imm is not None:
            operands.append(repr(self.imm) if isinstance(self.imm, float) else str(self.imm))
        if self.label is not None:
            operands.append(self.label)
        text = parts[0]
        if operands:
            text += " " + ", ".join(operands)
        if self.low_reliability:
            text += "    # [low-reliability]"
        elif self.comment:
            text += f"    # {self.comment}"
        return text

    def __str__(self) -> str:
        return self.render()
