"""Control-flow graph construction over the flat instruction stream.

Basic blocks are maximal straight-line instruction sequences; block leaders
are function entries, label targets and instructions following a control
transfer.  The CFG optionally includes interprocedural edges (call edges
from ``JAL`` to the callee entry and return edges from ``JR`` back to every
call site continuation), which the control-data tagging analysis requires
because the paper's ``CVar`` propagation "may ... cross basic block
boundaries and even procedure boundaries" (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...isa import Instruction, Opcode, Program


@dataclass
class BasicBlock:
    """A basic block: instructions ``[start, end)`` of the program."""

    index: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)
    function: Optional[str] = None

    def instruction_indices(self) -> range:
        return range(self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class ControlFlowGraph:
    """CFG for a whole program."""

    program: Program
    blocks: List[BasicBlock]
    block_of_index: List[int]
    call_sites: Dict[str, List[int]]  # callee name -> instruction indices of JALs
    interprocedural: bool

    def block_instructions(self, block: BasicBlock) -> List[Instruction]:
        return self.program.instructions[block.start:block.end]

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        return [self.blocks[s] for s in block.successors]

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        return [self.blocks[p] for p in block.predecessors]


def _find_leaders(program: Program) -> Set[int]:
    leaders: Set[int] = set()
    text_len = len(program.instructions)
    if text_len == 0:
        return leaders
    leaders.add(program.entry_index)
    for info in program.functions.values():
        if info.start < text_len:
            leaders.add(info.start)
    for index, instruction in enumerate(program.instructions):
        if instruction.is_control or instruction.op is Opcode.HALT:
            if index + 1 < text_len:
                leaders.add(index + 1)
            if instruction.label is not None and instruction.op is not Opcode.LA:
                leaders.add(program.resolve_label(instruction.label))
    # Any label that is a potential target also starts a block.
    for label, index in program.labels.items():
        if index < text_len:
            leaders.add(index)
    return leaders


def build_cfg(program: Program, interprocedural: bool = True) -> ControlFlowGraph:
    """Build the CFG of ``program``.

    Parameters
    ----------
    program:
        A finalized program.
    interprocedural:
        When True, ``JAL`` blocks get an edge to the callee entry block and
        ``JR`` blocks get edges to the continuation of every call site of
        the enclosing function (return edges).  When False, calls simply
        fall through and returns have no successors.
    """
    text_len = len(program.instructions)
    leaders = sorted(_find_leaders(program))
    blocks: List[BasicBlock] = []
    block_of_index = [0] * text_len

    for position, start in enumerate(leaders):
        end = leaders[position + 1] if position + 1 < len(leaders) else text_len
        if start >= end:
            continue
        block = BasicBlock(
            index=len(blocks),
            start=start,
            end=end,
            function=program.function_of_index(start),
        )
        blocks.append(block)
        for index in range(start, end):
            block_of_index[index] = block.index

    # Collect call sites per callee.
    call_sites: Dict[str, List[int]] = {}
    for index, instruction in enumerate(program.instructions):
        if instruction.op is Opcode.JAL and instruction.label is not None:
            call_sites.setdefault(instruction.label, []).append(index)

    # Wire edges.
    for block in blocks:
        last_index = block.end - 1
        last = program.instructions[last_index]
        successors: List[int] = []
        if last.op is Opcode.HALT:
            pass
        elif last.op is Opcode.J:
            successors.append(block_of_index[program.resolve_label(last.label)])
        elif last.op is Opcode.JAL:
            if interprocedural:
                target = program.resolve_label(last.label)
                if target < text_len:
                    successors.append(block_of_index[target])
            if last_index + 1 < text_len:
                successors.append(block_of_index[last_index + 1])
        elif last.op is Opcode.JR:
            if interprocedural and block.function is not None:
                for site in call_sites.get(block.function, []):
                    if site + 1 < text_len:
                        successors.append(block_of_index[site + 1])
        elif last.is_branch:
            successors.append(block_of_index[program.resolve_label(last.label)])
            if last_index + 1 < text_len:
                successors.append(block_of_index[last_index + 1])
        else:
            if last_index + 1 < text_len:
                successors.append(block_of_index[last_index + 1])

        # Deduplicate while preserving order.
        seen: Set[int] = set()
        block.successors = [s for s in successors if not (s in seen or seen.add(s))]

    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    return ControlFlowGraph(
        program=program,
        blocks=blocks,
        block_of_index=block_of_index,
        call_sites=call_sites,
        interprocedural=interprocedural,
    )
