"""Interprocedural def-use chains and control/data-reachability facts.

The control-data tagging pass (:mod:`.control_tagging`) answers one
binary question per instruction — "can this result reach a branch?" —
with a bespoke backward ``CVar`` fixpoint.  The susceptibility oracle
needs strictly more: *which* uses each definition reaches, whether those
uses are architecturally visible (branches, stores, outputs, addresses),
and how long the value stays live.  This pass derives all of it from the
standard analyses in :mod:`.dataflow` (reaching definitions + liveness)
over the same interprocedural CFG the tagging pass solves on.

The control-reachability fixpoint here is constructed to be *exactly*
equivalent to ``CVar``: a definition is control-reaching iff there is a
chain of def-clear def-use edges from it to a branch/``JR`` operand,
where each intermediate edge is value-propagating under the tagging
pass's per-opcode transfer semantics (store operands and load addresses
terminate chains under the paper's default rule; the
``protect_addresses``/``track_memory`` ablations open them, exactly as
the options do in :class:`.control_tagging.ControlTaggingPass`).  Both
computations are least fixpoints of distributive set-union systems over
the same paths, so they agree use-for-use — the test suite cross-checks
:meth:`DefUseInfo.tagged_sites` against the tagging pass's decisions on
every application.

Edge kinds
----------
``control``
    The use is a branch condition, an indirect-jump operand, or (under
    ``protect_addresses``) a memory address.
``store-data`` / ``store-address`` / ``load-address`` / ``output``
    Architecturally visible but (under the paper's rule) chain-ending:
    corruption escapes to memory, the address bus or an output channel.
``propagate``
    The use computes another register; visibility is inherited from the
    consumer's own definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...isa import Instruction, Opcode, Program, Reg
from ...isa.registers import REG_ZERO
from .cfg import ControlFlowGraph, build_cfg
from .control_tagging import STACK_REGISTERS
from .dataflow import LivenessAnalysis, ReachingDefinitions

USE_CONTROL = "control"
USE_STORE_DATA = "store-data"
USE_STORE_ADDRESS = "store-address"
USE_LOAD_ADDRESS = "load-address"
USE_OUTPUT = "output"
USE_PROPAGATE = "propagate"

#: Edge kinds whose corruption is architecturally visible on its own.
VISIBLE_KINDS = frozenset({
    USE_CONTROL, USE_STORE_DATA, USE_STORE_ADDRESS, USE_LOAD_ADDRESS,
    USE_OUTPUT,
})

#: One def-use edge: (use instruction index, used register, kind).
UseEdge = Tuple[int, Reg, str]


def _use_kinds(instruction: Instruction, register: Reg,
               protect_addresses: bool) -> Tuple[str, ...]:
    """Kinds of the use(s) of ``register`` at ``instruction``.

    Mirrors ``ControlTaggingPass._transfer_instruction`` per opcode:
    which operand positions add to ``CVar`` (``control``), which
    terminate chains visibly, and which merely forward the value into
    another definition (``propagate``).
    """
    op = instruction.op
    if instruction.is_branch or op is Opcode.JR:
        return (USE_CONTROL,)
    if op in (Opcode.SW, Opcode.FSW):
        kinds: List[str] = []
        if register == instruction.rs1:
            kinds.append(USE_CONTROL if protect_addresses
                         else USE_STORE_ADDRESS)
        if register == instruction.rs2:
            kinds.append(USE_STORE_DATA)
        return tuple(kinds)
    if op in (Opcode.LW, Opcode.FLW):
        return (USE_CONTROL,) if protect_addresses else (USE_LOAD_ADDRESS,)
    if op in (Opcode.OUT, Opcode.FOUT):
        return (USE_OUTPUT,)
    if instruction.defs():
        return (USE_PROPAGATE,)
    return ()


@dataclass
class DefUseInfo:
    """Per-definition-site use chains, reachability classes and lifetimes.

    All fields are keyed by *instruction index of the defining site*;
    only instructions with a register destination appear.
    """

    program: Program
    cfg: ControlFlowGraph
    #: def site -> sorted use-site edges (use index, register, kind).
    edges: Dict[int, Tuple[UseEdge, ...]]
    #: def site -> sorted distinct use-site indices.
    chains: Dict[int, Tuple[int, ...]]
    #: Definitions whose value may reach a control decision (== ``CVar``).
    control_reaching: FrozenSet[int]
    #: Definitions (not control-reaching) whose value may reach a store,
    #: an address computation or an output channel.
    data_reaching: FrozenSet[int]
    #: def site -> number of static program points where the definition
    #: both reaches and its register is live (the ACE-style window).
    live_slots: Dict[int, int]
    #: Analysis options (same knobs as the tagging pass's transfer).
    options: Dict[str, bool]

    def tagged_sites(
        self,
        respect_eligibility: bool = True,
        protect_stack_registers: bool = True,
    ) -> FrozenSet[int]:
        """Reproduce the tagging pass's decision from the def-use facts.

        An arithmetic instruction is taggable iff its destination is not
        control-reaching — plus the same decision-level guards
        (:data:`~.control_tagging.STACK_REGISTERS`, eligibility, ``$0``)
        the pass applies.  Asserted equal to
        ``ControlTaggingPass(...).run(program).tagged_indices`` in the
        test suite.
        """
        program = self.program
        eligible = {name for name, info in program.functions.items()
                    if info.eligible}
        tagged: Set[int] = set()
        for index, instruction in enumerate(program.instructions):
            if not instruction.is_arithmetic:
                continue
            defs = instruction.defs()
            destination = defs[0] if defs else None
            if destination is None or destination == REG_ZERO:
                continue
            if protect_stack_registers and destination in STACK_REGISTERS:
                continue
            if respect_eligibility and instruction.function is not None \
                    and instruction.function not in eligible:
                continue
            if index in self.control_reaching:
                continue
            tagged.add(index)
        return frozenset(tagged)


def _expand_per_instruction(
    cfg: ControlFlowGraph,
    protect_addresses: bool,
) -> Tuple[Dict[int, List[UseEdge]], Dict[int, int]]:
    """One forward walk: def-use edges plus live-slot windows.

    Expands the block-level reaching-definitions and liveness solutions
    to per-instruction facts, keeping the reaching set grouped by
    register so each program point costs O(live registers), not
    O(reaching definitions).
    """
    program = cfg.program
    reaching_analysis = ReachingDefinitions(cfg)
    reaching_result = reaching_analysis.solve(cfg)
    liveness = LivenessAnalysis(cfg)
    live_out = liveness.per_instruction_live_out(liveness.solve(cfg))

    edges: Dict[int, List[UseEdge]] = {}
    live_slots: Dict[int, int] = {}

    for block in cfg.blocks:
        grouped: Dict[Reg, Set[int]] = {}
        for register, def_index in reaching_result.block_in[block.index]:
            grouped.setdefault(register, set()).add(def_index)
        for index in block.instruction_indices():
            instruction = program.instructions[index]
            # Live-in at this point: live-out minus defs plus uses.
            live_in = set(live_out[index])
            for register in instruction.defs():
                live_in.discard(register)
            for register in instruction.uses():
                live_in.add(register)
            # A definition is "in its window" at every point where it
            # still reaches and its register is still wanted.
            for register in live_in:
                for def_index in grouped.get(register, ()):
                    live_slots[def_index] = live_slots.get(def_index, 0) + 1
            # Use edges against the reaching definitions.
            for register in set(instruction.uses()):
                kinds = _use_kinds(instruction, register, protect_addresses)
                for def_index in grouped.get(register, ()):
                    target = edges.setdefault(def_index, [])
                    for kind in kinds:
                        target.append((index, register, kind))
            # Kill and gen, exactly like the block transfer.
            for register in instruction.defs():
                grouped[register] = {index}
                live_slots.setdefault(index, 0)
    return edges, live_slots


def _memory_live_stores(
    cfg: ControlFlowGraph, mem_sources: Set[int]
) -> Set[int]:
    """Store sites from which some ``MEM``-source load is reachable.

    Under ``track_memory`` the abstract ``MEM`` location is never killed,
    so "``MEM`` is control-live after this store" reduces to plain
    forward reachability from the store to any control-live load.
    """
    if not mem_sources:
        return set()
    program = cfg.program
    source_blocks: Dict[int, List[int]] = {}
    for index in mem_sources:
        source_blocks.setdefault(cfg.block_of_index[index], []).append(index)
    # Blocks from which a source block is reachable via >= 1 edge.
    reaches_source: Set[int] = set()
    frontier = list(source_blocks)
    seen: Set[int] = set()
    while frontier:
        block_index = frontier.pop()
        for predecessor in cfg.blocks[block_index].predecessors:
            if predecessor in seen:
                continue
            seen.add(predecessor)
            reaches_source.add(predecessor)
            frontier.append(predecessor)
    stores: Set[int] = set()
    for index, instruction in enumerate(program.instructions):
        if instruction.op not in (Opcode.SW, Opcode.FSW):
            continue
        block_index = cfg.block_of_index[index]
        if block_index in reaches_source:
            stores.add(index)
            continue
        # Same-block case: a source load later in the store's own block.
        if any(source > index for source in source_blocks.get(block_index, ())):
            stores.add(index)
    return stores


def compute_def_use(
    program: Program,
    cfg: Optional[ControlFlowGraph] = None,
    protect_addresses: bool = False,
    track_memory: bool = False,
) -> DefUseInfo:
    """Def-use chains plus control/data reachability for ``program``.

    ``protect_addresses`` and ``track_memory`` replicate the tagging
    pass's transfer-level options so :meth:`DefUseInfo.tagged_sites`
    stays exactly equivalent under the ablations too.
    """
    if cfg is None:
        cfg = build_cfg(program, interprocedural=True)
    edges, live_slots = _expand_per_instruction(cfg, protect_addresses)

    # Reverse index for value propagation: consumer def site -> feeders.
    feeders: Dict[int, List[int]] = {}
    for def_index, def_edges in edges.items():
        for use_index, _register, kind in def_edges:
            if kind == USE_PROPAGATE:
                feeders.setdefault(use_index, []).append(def_index)

    def _control_fixpoint(extra_control: Dict[int, Set[Reg]]) -> Set[int]:
        """Definitions with a (possibly extended) control-transmitting use.

        ``extra_control`` marks per-use-site registers whose use became
        control-transmitting through the ``track_memory`` coupling.
        """
        control: Set[int] = set()
        worklist: List[int] = []
        for def_index, def_edges in edges.items():
            for use_index, register, kind in def_edges:
                if kind == USE_CONTROL or \
                        register in extra_control.get(use_index, ()):
                    control.add(def_index)
                    worklist.append(def_index)
                    break
        while worklist:
            consumer = worklist.pop()
            for feeder in feeders.get(consumer, ()):
                if feeder not in control:
                    control.add(feeder)
                    worklist.append(feeder)
        return control

    extra_control: Dict[int, Set[Reg]] = {}
    control = _control_fixpoint(extra_control)
    if track_memory:
        # Outer fixpoint for the MEM coupling: control-live loads make
        # their address control data and seed MEM; stores that can reach
        # a seeded load make their data operand control data.  Each round
        # only adds edges, so this terminates.
        while True:
            mem_sources = {
                index for index in control
                if program.instructions[index].op in (Opcode.LW, Opcode.FLW)
            }
            new_extra: Dict[int, Set[Reg]] = {}
            for index in mem_sources:
                rs1 = program.instructions[index].rs1
                if rs1 is not None:
                    new_extra.setdefault(index, set()).add(rs1)
            for index in _memory_live_stores(cfg, mem_sources):
                rs2 = program.instructions[index].rs2
                if rs2 is not None:
                    new_extra.setdefault(index, set()).add(rs2)
            if new_extra == extra_control:
                break
            extra_control = new_extra
            control = _control_fixpoint(extra_control)

    # Data reachability: a non-control definition whose value escapes to
    # memory, an address or an output — directly or through propagation.
    data: Set[int] = set()
    worklist = []
    for def_index, def_edges in edges.items():
        if def_index in control:
            continue
        for _use_index, _register, kind in def_edges:
            if kind in VISIBLE_KINDS:
                data.add(def_index)
                worklist.append(def_index)
                break
    while worklist:
        consumer = worklist.pop()
        for feeder in feeders.get(consumer, ()):
            if feeder not in control and feeder not in data:
                data.add(feeder)
                worklist.append(feeder)

    chains = {
        def_index: tuple(sorted({use for use, _reg, _kind in def_edges}))
        for def_index, def_edges in edges.items()
    }

    def _edge_key(edge: UseEdge) -> Tuple[int, str, int, str]:
        use_index, register, kind = edge
        return (use_index, register.kind, register.index, kind)

    return DefUseInfo(
        program=program,
        cfg=cfg,
        edges={def_index: tuple(sorted(set(def_edges), key=_edge_key))
               for def_index, def_edges in edges.items()},
        chains=chains,
        control_reaching=frozenset(control),
        data_reaching=frozenset(data),
        live_slots=live_slots,
        options={
            "protect_addresses": protect_addresses,
            "track_memory": track_memory,
        },
    )
