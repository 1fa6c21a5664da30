"""Virtual instruction set architecture (ISA) used throughout the library.

The ISA is a small MIPS-like RISC target: 32 integer and 32 floating point
registers, word-addressable memory, conditional branches, jumps and calls.
It plays the role of the MIPS assembly level used by the original paper.
"""

from .encoding import (
    FLOAT_BITS,
    INT_BITS,
    bits_to_float,
    bits_to_int,
    flip_float_bit,
    flip_int_bit,
    float_to_bits,
    int_to_bits,
    wrap_int,
)
from .instructions import Instruction
from .opcodes import MNEMONIC_TO_OPCODE, OPCODE_INFO, Opcode, OpcodeInfo
from .program import (
    DATA_BASE,
    DataObject,
    FunctionInfo,
    Program,
    ProgramError,
)
from .registers import (
    F,
    NUM_FLOAT_REGS,
    NUM_INT_REGS,
    R,
    Reg,
    parse_register,
)

__all__ = [
    "DATA_BASE",
    "DataObject",
    "F",
    "FLOAT_BITS",
    "FunctionInfo",
    "INT_BITS",
    "Instruction",
    "MNEMONIC_TO_OPCODE",
    "NUM_FLOAT_REGS",
    "NUM_INT_REGS",
    "OPCODE_INFO",
    "Opcode",
    "OpcodeInfo",
    "Program",
    "ProgramError",
    "R",
    "Reg",
    "bits_to_float",
    "bits_to_int",
    "flip_float_bit",
    "flip_int_bit",
    "float_to_bits",
    "int_to_bits",
    "parse_register",
    "wrap_int",
]
