"""Per-opcode differential test: every handler family against the oracle.

The applications never execute 20 of the ISA's 57 opcodes (REM, SRL, the
immediate logicals and shifts, SLTI, FSQRT, FEQ, most branches, HALT and
NOP), so the app-based differential suites never compare those handlers
with the reference interpreter.  This suite drives every opcode over an
edge-value grid (±2**31 boundaries, shift amounts 0/31/32/33, zero
divisors, ±0.0, ±inf, NaN, subnormals and the CVTFI clamp bounds) through

* the reference interpreter on a tiny assembled program (the oracle);
* the decoded engine's fast handlers (``Machine.run(engine="decoded")``);
* the decoded engine's generated basic blocks, with the instruction
  between a neighbour before and after it;
* the compute closures exposed instructions run under injection;
* the opcode fault model's substitution pools, whose order is pinned.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from repro.assembler import ProgramBuilder
from repro.isa import F, Opcode, R
from repro.isa.registers import REG_RA
from repro.sim import Machine, Outcome, SimFault, decode_program
from repro.sim.decode import COMPUTE_MAKERS
from repro.sim.models import opcode as opcode_model
from repro.sim import stepper
from repro.sim.semantics import SEMANTICS

# Program layout: the instruction under test, a fall-through HALT and a
# HALT at label ``T`` (every branch, jump and call target).
TEXT_LEN = 3
A, B, D, ZERO, RA = R(8), R(9), R(10), R(0), REG_RA
FA, FB, FD = F(2), F(3), F(4)
CELL_BASE = 100

INT_EDGES = [0, 1, -1, 7, -7, 31, 32, 33, 2**31 - 1, -2**31, 2**31,
             -2**31 - 1, 0x5A5A5A5A]
IMM_EDGES = [0, 1, -1, 7, 31, 32, 33, 2**31 - 1, -2**31, 0x5A5A]
LI_EDGES = INT_EDGES + [2**32 + 5, -(2**40) - 3]
FLOAT_EDGES = [0.0, -0.0, 1.0, -1.5, 3.0, math.inf, -math.inf, math.nan,
               5e-324, -2.5e-308, 1e308, 2147483647.0, 2147483647.5,
               2147483648.0, -2147483648.5, -2147483649.0]
CELL_VALUES = [5, -7, 2**31 - 1, 2**40, 1.5, -2.5, -0.0, math.nan,
               math.inf, -math.inf, 1e300]
LOAD_BASES = [CELL_BASE + k for k in range(len(CELL_VALUES))] + [
    2**31 - 1, -2**31, 0]
LOAD_OFFSETS = [0, 1, -1, 2**31 - 1]
JR_TARGETS = [0, 1, 2, 3, 4, -1, 2**31 - 1]

SHAPES = {
    **{op: "int_rr" for op in (
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR, Opcode.SLL,
        Opcode.SRL, Opcode.SRA, Opcode.SLT, Opcode.SLE, Opcode.SEQ,
        Opcode.SNE)},
    **{op: "int_ri" for op in (
        Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
        Opcode.SRLI, Opcode.SRAI, Opcode.SLTI)},
    **{op: "flt_rr" for op in (
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FMIN,
        Opcode.FMAX)},
    **{op: "flt_un" for op in (Opcode.FNEG, Opcode.FABS, Opcode.FSQRT)},
    **{op: "flt_cmp" for op in (Opcode.FEQ, Opcode.FLT, Opcode.FLE)},
    **{op: "branch2" for op in (
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE, Opcode.BGT,
        Opcode.BGE)},
    **{op: "branch1" for op in (Opcode.BEQZ, Opcode.BNEZ)},
    Opcode.LI: "li", Opcode.FLI: "fli", Opcode.LA: "la",
    Opcode.CVTIF: "cvtif", Opcode.CVTFI: "cvtfi",
    Opcode.LW: "load", Opcode.FLW: "load",
    Opcode.SW: "store", Opcode.FSW: "store",
    Opcode.J: "jump", Opcode.JAL: "jump", Opcode.JR: "jr",
    Opcode.OUT: "out", Opcode.FOUT: "out",
    Opcode.HALT: "none", Opcode.NOP: "none",
}

#: The opcode fault model's pools in draw order: the substitute draw
#: indexes these lists, so reordering them changes stored records.
POOL_ORDER = {
    "INT_RR_POOL": [
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
        Opcode.XOR, Opcode.NOR, Opcode.SLL, Opcode.SRL, Opcode.SRA,
        Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE],
    "INT_RI_POOL": [
        Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
        Opcode.SRLI, Opcode.SRAI, Opcode.SLTI],
    "FLOAT_RR_POOL": [
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FMIN, Opcode.FMAX],
    "FLOAT_UN_POOL": [Opcode.FNEG, Opcode.FABS, Opcode.FSQRT],
    "FLOAT_CMP_POOL": [Opcode.FEQ, Opcode.FLT, Opcode.FLE],
}


@dataclass(frozen=True)
class Case:
    """One instruction plus the register and memory state it runs on."""

    op: Opcode
    rd: Optional[object] = None
    rs1: Optional[object] = None
    rs2: Optional[object] = None
    imm: Optional[object] = None
    label: Optional[str] = None
    regs: Tuple[Tuple[object, object], ...] = ()
    cells: Tuple[Tuple[int, object], ...] = ()

    @property
    def key(self):
        return (self.op, self.rd, self.rs1, self.rs2, repr(self.imm),
                self.label)

    def value(self, reg):
        return dict(self.regs)[reg]


def _memory_image():
    return tuple((CELL_BASE + k, value) for k, value in enumerate(CELL_VALUES))


def _cases(op: Opcode) -> List[Case]:
    shape = SHAPES[op]
    if shape == "int_rr":
        cases = [Case(op, D, A, B, regs=((A, x), (B, y)))
                 for x, y in itertools.product(INT_EDGES, INT_EDGES)]
        # No destination: the result is discarded but faults still happen.
        return cases + [Case(op, ZERO, A, B, regs=((A, 7), (B, y)))
                        for y in (0, 3)]
    if shape == "int_ri":
        return [Case(op, rd, A, imm=imm, regs=((A, x),))
                for rd in (D, ZERO) for imm in IMM_EDGES for x in INT_EDGES
                if rd is D or x == 7]
    if shape == "li":
        return [Case(op, rd, imm=imm) for rd in (D, ZERO) for imm in LI_EDGES]
    if shape == "fli":
        return [Case(op, FD, imm=imm) for imm in FLOAT_EDGES]
    if shape == "la":
        return [Case(op, rd, label="buf") for rd in (D, ZERO)]
    if shape in ("flt_rr", "flt_cmp"):
        rd = FD if shape == "flt_rr" else D
        return [Case(op, rd, FA, FB, regs=((FA, x), (FB, y)))
                for x, y in itertools.product(FLOAT_EDGES, FLOAT_EDGES)]
    if shape == "flt_un":
        return [Case(op, FD, FA, regs=((FA, x),)) for x in FLOAT_EDGES]
    if shape == "cvtif":
        return [Case(op, rd, A, regs=((A, x),))
                for rd in (FD, None) for x in INT_EDGES]
    if shape == "cvtfi":
        return [Case(op, rd, FA, regs=((FA, x),))
                for rd in (D, ZERO) for x in FLOAT_EDGES]
    if shape == "load":
        dests = (D, ZERO) if op is Opcode.LW else (FD, None)
        return [Case(op, rd, A, imm=offset, regs=((A, base),),
                     cells=_memory_image())
                for rd in dests for base in LOAD_BASES
                for offset in LOAD_OFFSETS]
    if shape == "store":
        source, values = ((B, INT_EDGES) if op is Opcode.SW
                          else (FB, FLOAT_EDGES))
        return [Case(op, None, A, source, imm=offset,
                     regs=((A, base), (source, value)),
                     cells=_memory_image())
                for base in LOAD_BASES[:2] + LOAD_BASES[-3:]
                for offset in LOAD_OFFSETS for value in values[:4]]
    if shape == "branch2":
        return [Case(op, None, A, B, label="T", regs=((A, x), (B, y)))
                for x, y in itertools.product(INT_EDGES, INT_EDGES)]
    if shape == "branch1":
        return [Case(op, None, A, label="T", regs=((A, x),))
                for x in INT_EDGES]
    if shape == "jump":
        dests = (RA, ZERO) if op is Opcode.JAL else (None,)
        return [Case(op, rd, label="T") for rd in dests]
    if shape == "jr":
        return [Case(op, None, A, regs=((A, target),))
                for target in JR_TARGETS]
    if shape == "out":
        source, values = ((A, INT_EDGES) if op is Opcode.OUT
                          else (FA, FLOAT_EDGES))
        return [Case(op, None, source, imm=channel, regs=((source, value),))
                for channel in (0, 3) for value in values]
    return [Case(op)]


_PROGRAMS: Dict[tuple, object] = {}


def _program(case: Case):
    program = _PROGRAMS.get(case.key)
    if program is None:
        builder = ProgramBuilder()
        builder.data("buf", 4)
        with builder.function("main"):
            builder.emit(case.op, rd=case.rd, rs1=case.rs1, rs2=case.rs2,
                         imm=case.imm, label=case.label)
            builder.halt()
            builder.label("T")
            builder.halt()
        program = _PROGRAMS[case.key] = builder.build()
    return program


def _machine(case: Case) -> Machine:
    machine = Machine(_program(case))
    for reg, value in case.regs:
        (machine.int_regs if reg.is_int else machine.float_regs)[reg.index] = value
    machine.memory.cells.update(case.cells)
    return machine


@dataclass
class Observed:
    outcome: str
    fault: Optional[str]
    fault_kind: Optional[str]
    int_regs: List[int]
    float_regs: List[float]
    cells: dict
    outputs: dict
    exec_counts: List[int]

    @property
    def crashed(self) -> bool:
        return self.outcome == Outcome.CRASH

    @property
    def next_pc(self) -> int:
        counts = self.exec_counts
        if counts[0] > 1:
            return 0
        for index in (1, 2):
            if counts[index]:
                return index
        return TEXT_LEN

    def dest(self, reg):
        return (self.int_regs if reg.is_int else self.float_regs)[reg.index]


_OBSERVED: Dict[tuple, Observed] = {}


def _observe(case: Case, engine: str) -> Observed:
    key = (case.key, repr(case.regs), repr(case.cells), engine)
    if key not in _OBSERVED:
        machine = _machine(case)
        result = machine.run(max_instructions=4, engine=engine)
        _OBSERVED[key] = Observed(
            result.outcome, result.fault, result.fault_kind,
            list(machine.int_regs), list(machine.float_regs),
            dict(machine.memory.cells), result.outputs, result.exec_counts)
    return _OBSERVED[key]


def same(a, b) -> bool:
    """Bit-exact equality: NaN equals NaN, 0.0 differs from -0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def _has_dest(case: Case) -> bool:
    return case.rd is not None and (case.rd.is_float or case.rd.index != 0)


def _over(ops):
    ops = list(ops)
    return pytest.mark.parametrize("op", ops, ids=[op.name for op in ops])


@_over(Opcode)
def test_decoded_matches_reference(op):
    for case in _cases(op):
        ref = _observe(case, "reference")
        dec = _observe(case, "decoded")
        assert (dec.outcome, dec.fault, dec.fault_kind) == (
            ref.outcome, ref.fault, ref.fault_kind), case
        assert same(dec.int_regs, ref.int_regs), case
        assert same(dec.float_regs, ref.float_regs), case
        assert same(dec.cells, ref.cells), case
        assert same(dec.outputs, ref.outputs), case
        assert dec.exec_counts == ref.exec_counts, case


#: Neighbours around the instruction under test in the block layout: the
#: one after reads what the one before wrote.
BEFORE = (Opcode.ADDI, R(11), R(11), 3)
AFTER = (Opcode.ADDI, R(12), R(11), 5)
_BLOCK_PROGRAMS: Dict[tuple, object] = {}


def _block_program(case: Case):
    """``before; instruction; after; HALT; T: HALT`` -- the instruction
    runs inside the generated unit that starts at the entry (a ``J T``
    fuses ``T: HALT`` into it)."""
    program = _BLOCK_PROGRAMS.get(case.key)
    if program is None:
        builder = ProgramBuilder()
        builder.data("buf", 4)
        with builder.function("main"):
            builder.emit(BEFORE[0], rd=BEFORE[1], rs1=BEFORE[2], imm=BEFORE[3])
            builder.emit(case.op, rd=case.rd, rs1=case.rs1, rs2=case.rs2,
                         imm=case.imm, label=case.label)
            builder.emit(AFTER[0], rd=AFTER[1], rs1=AFTER[2], imm=AFTER[3])
            builder.halt()
            builder.label("T")
            builder.halt()
        program = _BLOCK_PROGRAMS[case.key] = builder.build()
    return program


def _observe_in_block(case: Case, engine: str):
    machine = Machine(_block_program(case))
    for reg, value in case.regs:
        (machine.int_regs if reg.is_int else machine.float_regs)[reg.index] = value
    machine.memory.cells.update(case.cells)
    result = machine.run(max_instructions=8, engine=engine)
    return (result, list(machine.int_regs), list(machine.float_regs),
            dict(machine.memory.cells))


@_over(Opcode)
def test_block_dispatch_matches_reference(op, monkeypatch):
    monkeypatch.setattr(stepper, "HOT_VISITS", 0)  # compile at first visit
    control = SEMANTICS[op].ends_block
    for case in _cases(op):
        decoded = decode_program(_block_program(case))
        fused = 3 if op is Opcode.J else 2
        assert decoded.block_sizes[0] == (fused if control else 4), case
        ref, ref_ir, ref_fr, ref_cells = _observe_in_block(case, "reference")
        blk, blk_ir, blk_fr, blk_cells = _observe_in_block(case, "decoded")
        assert (blk.outcome, blk.fault, blk.fault_kind, blk.executed) == (
            ref.outcome, ref.fault, ref.fault_kind, ref.executed), case
        assert same(blk_ir, ref_ir), case
        assert same(blk_fr, ref_fr), case
        assert same(blk_cells, ref_cells), case
        assert same(blk.outputs, ref.outputs), case
        assert blk.exec_counts == ref.exec_counts, case


@_over(op for op in Opcode if op in COMPUTE_MAKERS)
def test_compute_closure_matches_reference(op):
    for case in _cases(op):
        ref = _observe(case, "reference")
        machine = _machine(case)
        spec = decode_program(machine.program).specs[0]
        try:
            value = COMPUTE_MAKERS[op](spec, machine)()
        except (SimFault, OverflowError, ValueError):
            assert ref.crashed, case
            continue
        assert not ref.crashed, case
        if _has_dest(case):
            assert same(value, ref.dest(case.rd)), case


def test_substitution_pool_order_is_pinned():
    for name, order in POOL_ORDER.items():
        assert [op for op, _ in getattr(opcode_model, name)] == order, name


@pytest.mark.parametrize("name", sorted(POOL_ORDER))
def test_substitution_pool_functions_match_reference(name):
    for op, function in getattr(opcode_model, name):
        for case in _cases(op):
            ref = _observe(case, "reference")
            if ref.crashed or not _has_dest(case):
                continue
            values = [value for _, value in case.regs]
            if SHAPES[op] == "int_ri":
                values.append(case.imm)
            assert same(function(*values), ref.dest(case.rd)), case
