"""Pre-decoded threaded-code execution engine.

The seed interpreter walked a ~60-branch ``if/elif`` chain for every dynamic
instruction and chased ``instruction.rs1.index`` attributes on each visit.
This module lowers a finalized :class:`~repro.isa.Program` **once** into flat
per-instruction operand tuples (register indices as plain ints, pre-wrapped
immediates, resolved branch targets and data addresses) and then *binds* the
decoded form to a machine's register files and memory as specialized
zero-argument closures — classic threaded code — per instruction and per
unit.  The decode cuts the text into basic blocks and extends each into a
*unit* along static unconditional edges (``block_sizes``,
``block_shapes`` and ``block_rows`` at each leader, ``block_owner`` at
every index), and every engine's scalar loop is the unit stepper of
:mod:`repro.sim.stepper`::

    while pc != text_len:
        size = block_sizes[pc]
        if size and executed + size <= limit:
            pc = blocks[pc]()           # a whole unit
            block_counts[leader] += 1
            executed += size
        elif spans[block_owner[pc]]:
            pc = span(lo, hi)           # part of the unit holding pc
            executed += hi - lo
        else:
            exec_counts[pc] += 1        # one instruction
            executed += 1
            pc = handlers[pc]()

The makers -- :data:`FAST_MAKERS` for plain execution,
:data:`COMPUTE_MAKERS` for the raw results of injection-exposed
instructions and :func:`unit_maker` for whole units and their spans --
are not written here: :mod:`repro.sim.semantics` generates them from its
one-row-per-opcode table, and the stepper binds them on first use.

Decode products are cached on the ``Program`` (invalidated automatically when
the control-tagging pass re-tags instructions), so campaigns that run the
same program thousands of times pay the decode cost once.  The stepper
binds a closure the first time a run reaches it, so a short forked run
pays only for the code it executes.

Four artefacts come out of a decode:

* ``specs`` — per-instruction operand tuples consumed by the handler makers;
* units — each leader's basic block extended along unconditional jumps and
  fall-throughs: its rows and shape, and every index's block leader;
* exposure bit-vectors per :class:`ProtectionMode` (so golden runs skip the
  injection bookkeeping entirely — only runs with a non-empty injection plan
  bind the slower "exposed" handler variants);
* static classification index vectors (arithmetic / memory / branch / call /
  other / tagged / exposed) so run statistics are one ``sum(map(...))`` pass
  over the execution counts instead of per-instruction attribute chasing.

Everything stored on :class:`DecodedProgram` is plain data plus references to
module-level functions, so decoded programs pickle cleanly into campaign
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..isa import Opcode, Program
from ..isa.encoding import wrap_int
from .faults import (
    InjectionEvent,
    InjectionPlan,
    ProtectionMode,
    exposure_flags,
)
from .semantics import (
    COMPUTE_MAKERS,
    FAST_MAKERS,
    FLOAT_RESULT_OPS,
    SEMANTICS,
    Shape,
)

#: Handler: executes one instruction against bound machine state and returns
#: the next program counter.
Handler = Callable[[], int]

# Spec tuple layout: (index, rd, rs1, rs2, imm, target, next_pc).  Register
# fields are plain int indices (-1 when the operand is absent); ``imm`` is
# pre-processed per opcode (e.g. LI immediates are pre-wrapped, OUT channels
# pre-truncated); ``target`` holds the resolved branch index or data address.
Spec = Tuple[int, int, int, int, object, int, int]


def _wrap_exposed(compute, corrupt, consumes, is_float, d, nxt, index,
                  opname, plan, targets, state, int_regs, float_regs):
    """Injection wrapper for one exposed static instruction.

    Replicates the seed interpreter's writeback block: when this dynamic
    occurrence is the plan's next target, corrupt the result and record
    the event; the exposed-dynamic counter advances on every occurrence;
    ``$0`` destination writes are discarded.  The corruption is delegated
    to the fault model's corruptor closure, which returns ``(corrupted,
    bit, detail)`` — see :class:`repro.sim.models.FaultModel.make_corruptor`.

    When ``consumes`` is False (``FaultModel.consumes_result``) the
    victim's own operation is **not executed** at a fired occurrence: the
    corruptor replaces it outright, so a substituted operation can never
    surface the victim's faults (a corrupted-opcode ``DIV`` with a zero
    divisor must not raise the division fault of an operation that never
    ran).  The event's ``original`` is ``None`` in that case.
    """
    ntargets = len(targets)
    record = plan.record
    if is_float:
        def h():
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                original = compute() if consumes else None
                corrupted, bit, detail = corrupt(original)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=original, corrupted=corrupted,
                    detail=detail,
                ))
                state[0] = tp + 1
                state[1] = ec + 1
                float_regs[d] = corrupted
            else:
                state[1] = ec + 1
                float_regs[d] = compute()
            return nxt
    else:
        def h():
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                original = compute() if consumes else None
                corrupted, bit, detail = corrupt(original)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=original, corrupted=corrupted,
                    detail=detail,
                ))
                state[0] = tp + 1
                state[1] = ec + 1
                if d:  # the zero register stays hard-wired
                    int_regs[d] = corrupted
            else:
                state[1] = ec + 1
                if d:
                    int_regs[d] = compute()
                else:
                    compute()  # faults and conversions still happen
            return nxt
    return h


@dataclass
class ClassVectors:
    """Static classification index vectors for one decoded program.

    Each list holds the static instruction indices of one class; run
    statistics reduce to ``sum(map(exec_counts.__getitem__, vector))`` per
    class — one pass over precomputed indices instead of re-classifying
    every instruction on every run.
    """

    arithmetic: List[int] = field(default_factory=list)
    memory: List[int] = field(default_factory=list)
    branch: List[int] = field(default_factory=list)
    call: List[int] = field(default_factory=list)
    other: List[int] = field(default_factory=list)
    tagged: List[int] = field(default_factory=list)
    exposed_protected: List[int] = field(default_factory=list)
    exposed_unprotected: List[int] = field(default_factory=list)


@dataclass
class DecodedProgram:
    """Flat, pre-resolved form of a finalized :class:`Program`.

    Pure data (tuples, ints, bools, references to module-level maker
    functions), so it pickles into campaign worker processes along with the
    program it annotates.
    """

    program: Program
    specs: List[Spec]
    ops: List[Opcode]
    opnames: List[str]
    exposed_protected: List[bool]
    exposed_unprotected: List[bool]
    classes: ClassVectors
    tag_signature: Tuple[bool, ...]
    text_len: int
    entry_index: int
    block_sizes: List[int]
    block_shapes: List[Optional[Shape]]
    block_rows: List[Optional[Tuple[int, ...]]]
    block_owner: List[int]
    #: Visits per leader until its unit is hot enough to compile (see
    #: :data:`repro.sim.stepper.HOT_VISITS`).  Speed bookkeeping only: it
    #: never changes what a run computes.
    block_heat: List[int]

    # ------------------------------------------------------------------
    # Binding: decoded form -> per-machine threaded handler table.
    # ------------------------------------------------------------------
    def bind(self, machine) -> List[Handler]:
        """Bind fast handlers (no injection bookkeeping) to a machine."""
        specs = self.specs
        makers = FAST_MAKERS
        return [makers[op](specs[index], machine)
                for index, op in enumerate(self.ops)]

    def exposure(self, mode: ProtectionMode) -> List[bool]:
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return [False] * self.text_len

    def injection(self, machine, plan: InjectionPlan, exposed_start: int = 0):
        """Site flags, wrapper state and wrapper factory of a result plan.

        Returns ``(flags, state, wrap)``: ``flags[index]`` says whether the
        plan's :mod:`fault model <repro.sim.models>` can fire at static
        instruction ``index``; ``state`` is the ``[next-target pointer,
        exposed-dynamic counter]`` list every wrapper shares; ``wrap(index)``
        builds the injection wrapper of one exposed instruction, so a run
        binds only the wrappers it reaches.

        ``exposed_start`` seeds the exposed-dynamic counter, which lets the
        fork engine (:mod:`repro.sim.fork`) resume an injected run from a
        mid-run checkpoint: the counter continues from the number of exposed
        dynamic instructions already executed in the golden prefix, so the
        plan's absolute targets fire at exactly the same dynamic occurrences
        as in a from-scratch run.

        Until its occurrence is the next target, a wrapper evolves state
        exactly like the fast handler and only advances the counter, so a
        caller may run fast code instead and add the skipped exposed
        occurrences to ``state[1]`` -- and drop the wrappers altogether
        once ``state[0]`` reaches the number of targets.

        Every result model goes through one wrapper with a model-built
        corruptor; the default ``control-bit`` model's corruptor makes the
        same bit draws as the pre-model engine.  State-kind models (``memory-bit``) never reach this method -- the
        machine runs them by pausing at each target instead.
        """
        model = plan.model_impl
        if model.kind != "result":
            raise ValueError(
                f"fault model {model.name!r} corrupts machine state, not "
                f"instruction results; it cannot be bound as handlers"
            )
        flags = model.exposure(self, plan.mode)
        targets = list(plan.targets)
        state = [0, exposed_start]
        ir = machine.int_regs
        fr = machine.float_regs

        def wrap(index: int) -> Handler:
            op = self.ops[index]
            spec = self.specs[index]
            compute = COMPUTE_MAKERS[op](spec, machine)
            # Exposed instructions never branch conditionally: the only
            # control-flow opcode that writes a register is JAL, whose next
            # pc is its (pre-resolved) static target.
            nxt = spec[5] if op is Opcode.JAL else spec[6]
            is_float = op in FLOAT_RESULT_OPS
            opname = self.opnames[index]
            corrupt = model.make_corruptor(op, spec, machine, is_float, plan)
            return _wrap_exposed(
                compute, corrupt, model.consumes_result, is_float, spec[1],
                nxt, index, opname, plan, targets, state, ir, fr)

        return flags, state, wrap


def _decode(program: Program) -> DecodedProgram:
    specs: List[Spec] = []
    ops: List[Opcode] = []
    opnames: List[str] = []
    classes = ClassVectors()
    instructions = program.instructions
    for index, instruction in enumerate(instructions):
        op = instruction.op
        rd = instruction.rd.index if instruction.rd is not None else -1
        rs1 = instruction.rs1.index if instruction.rs1 is not None else -1
        rs2 = instruction.rs2.index if instruction.rs2 is not None else -1
        imm = instruction.imm
        target = 0
        if instruction.label is not None:
            if op is Opcode.LA:
                target = program.data_address(instruction.label)
            elif instruction.is_control:
                target = program.resolve_label(instruction.label)
        if op is Opcode.LI:
            imm = wrap_int(int(imm))
        elif op in (Opcode.OUT, Opcode.FOUT):
            imm = int(imm)
        specs.append((index, rd, rs1, rs2, imm, target, index + 1))
        ops.append(op)
        opnames.append(op.name)
        # Classification mirrors the seed interpreter's priority order.
        if instruction.is_arithmetic:
            classes.arithmetic.append(index)
        elif instruction.is_memory:
            classes.memory.append(index)
        elif instruction.is_branch:
            classes.branch.append(index)
        elif instruction.info.is_call:
            classes.call.append(index)
        else:
            classes.other.append(index)
        if instruction.low_reliability:
            classes.tagged.append(index)
    exposed_protected = exposure_flags(instructions, ProtectionMode.PROTECTED)
    exposed_unprotected = exposure_flags(instructions, ProtectionMode.UNPROTECTED)
    classes.exposed_protected = [i for i, f in enumerate(exposed_protected) if f]
    classes.exposed_unprotected = [i for i, f in enumerate(exposed_unprotected) if f]
    return DecodedProgram(
        program=program,
        specs=specs,
        ops=ops,
        opnames=opnames,
        exposed_protected=exposed_protected,
        exposed_unprotected=exposed_unprotected,
        classes=classes,
        tag_signature=tuple(ins.low_reliability for ins in instructions),
        text_len=len(instructions),
        entry_index=program.entry_index,
        **_basic_blocks(ops, specs, program.entry_index),
    )


#: Most rows a unit takes on by extending past its first basic block.
#: Longer units save dispatches only on straight-line paths that run
#: whole, and cost compile time per shape.
UNIT_ROWS = 128


def _basic_blocks(ops: List[Opcode], specs: List[Spec], entry: int) -> dict:
    """Cut the text into basic blocks and extend each into a unit.

    A leader is the entry, a branch or jump target, or the instruction
    after a control op; a basic block runs from its leader up to the next
    control op or leader.  A leader's *unit* is its block extended along
    static unconditional edges -- a ``J``'s target or the fall-through
    into the next leader -- until a conditional branch, ``JAL``, ``JR``
    or ``HALT`` ends it, the next block is already in the unit, or it
    would pass :data:`UNIT_ROWS` rows.  A fused ``J`` keeps its row.

    ``block_sizes`` holds each unit's row count at its leader and 0
    elsewhere; ``block_shapes`` its :data:`~repro.sim.semantics.Shape`;
    ``block_rows`` its rows' static indices; ``block_owner[index]`` is
    the leader of the basic block holding ``index``, whose unit starts
    with that block, so ``index`` is row ``index - owner`` of it.
    """
    text_len = len(ops)
    leaders = {entry}
    for index, op in enumerate(ops):
        row = SEMANTICS[op]
        if row.ends_block:
            leaders.add(index + 1)
            if row.cond is not None or row.next == "t":
                leaders.add(specs[index][5])
    owner = list(range(text_len))
    ends = {}  # leader -> one past its basic block
    for leader in sorted(leaders):
        if not 0 <= leader < text_len:
            continue
        end = leader + 1
        while (end < text_len and end not in leaders
               and not SEMANTICS[ops[end - 1]].ends_block):
            end += 1
        ends[leader] = end
        owner[leader:end] = [leader] * (end - leader)

    sizes = [0] * text_len
    shapes: List[Optional[Shape]] = [None] * text_len
    unit_rows: List[Optional[Tuple[int, ...]]] = [None] * text_len
    for leader, end in ends.items():
        rows = list(range(leader, end))
        members = {leader}
        while True:
            last = ops[rows[-1]]
            if last is Opcode.J:
                successor = specs[rows[-1]][5]
            elif SEMANTICS[last].ends_block:
                break
            else:
                successor = rows[-1] + 1
            if (successor in members or successor not in ends
                    or len(rows) + ends[successor] - successor > UNIT_ROWS):
                break
            members.add(successor)
            rows += range(successor, ends[successor])
        sizes[leader] = len(rows)
        unit_rows[leader] = tuple(rows)
        shapes[leader] = tuple(
            (ops[index].name, SEMANTICS[ops[index]].dest_absent(specs[index][1]))
            for index in rows)
    return {"block_sizes": sizes, "block_shapes": shapes,
            "block_rows": unit_rows, "block_owner": owner,
            "block_heat": [0] * text_len}


def decode_program(program: Program) -> DecodedProgram:
    """Return the cached decode of ``program``, rebuilding if stale.

    The cache lives on the program object (``program._decoded_cache``) and is
    validated against the current low-reliability tag vector, so re-running
    the control-tagging pass — or flipping tags by hand in a test —
    transparently triggers a re-decode.
    """
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None:
        signature = tuple(ins.low_reliability for ins in program.instructions)
        if cached.tag_signature == signature and cached.text_len == len(program.instructions):
            return cached
    decoded = _decode(program)
    program._decoded_cache = decoded
    return decoded
