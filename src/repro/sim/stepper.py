"""Basic-block dispatch: the one scalar loop every engine runs through.

:mod:`repro.sim.decode` cuts a program into basic blocks (a leader -- the
entry, a branch or jump target, or the instruction after a control op --
up to the next control op or leader), and :mod:`repro.sim.semantics`
compiles one function per block *shape* that executes all of the block's
rows and returns the next pc.  A :class:`Stepper` drives one run::

    while pc != text_len:
        size = block_sizes[pc]
        if size and executed + size <= limit:
            pc = blocks[pc]()           # a whole block
            block_counts[leader] += 1
            executed += size
        else:
            ...                         # one instruction, as before

A block runs whole only when it fits before ``limit`` (the caller's next
checkpoint boundary, state-model target or watchdog budget) and, while
a result plan has targets left, when none of them falls inside the
block's exposed occurrences.  Everything else -- a pc that is not a
leader (``JR`` into a block's middle), the tail before a limit, a block
holding the next target -- single-steps through the per-instruction
handlers.  So does a block until its leader is hot (:data:`HOT_VISITS`):
compiling a shape is worth it only for code that runs often.  Handlers,
wrappers and blocks are all bound on first use, so a short run pays only
for the code it reaches.

Execution counts stay exact: blocks are counted per leader and expanded
by :meth:`Stepper.flush`; a fault inside a block counts the block's rows
up to the faulting one, found from the fault's static index
(:class:`~repro.sim.errors.SimFault`) or from the generated code's line
table (``OverflowError``/``ValueError``), at no cost to the hot loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .decode import DecodedProgram, Handler
from .errors import SimFault
from .faults import InjectionPlan
from .semantics import FAST_MAKERS, block_maker, block_row

#: What a block may raise that the engines report as a crash.
_FAULTS = (SimFault, OverflowError, ValueError)

#: Visits a leader takes (per process and program) before its block is
#: compiled.  Compiling a block costs what a few hundred of its visits
#: save over single-stepping, so code that runs only a few times
#: single-steps, while a loop compiles within its first iterations.
HOT_VISITS = 64


class Stepper:
    """One run of ``decoded`` on ``machine``, from ``pc`` and ``executed``.

    ``exec_counts`` (a fresh zero vector by default) receives the counts
    of single-stepped instructions directly and of blocks at
    :meth:`flush`.  ``plan`` is a result-model plan with targets, whose
    exposed-dynamic counter starts at ``exposed_start``.
    """

    def __init__(self, decoded: DecodedProgram, machine, pc: int,
                 executed: int = 0, exec_counts: Optional[List[int]] = None,
                 plan: Optional[InjectionPlan] = None,
                 exposed_start: int = 0) -> None:
        text_len = decoded.text_len
        self.decoded = decoded
        self.machine = machine
        self.pc = pc
        self.executed = executed
        self.exec_counts = [0] * text_len if exec_counts is None else exec_counts
        self.handlers: List[Optional[Handler]] = [None] * text_len
        self.blocks: List[Optional[Callable[[], int]]] = [None] * text_len
        self.block_counts = [0] * text_len
        self.bound: List[int] = []  # leaders with a bound block
        self.state: Optional[List[int]] = None
        if plan is not None:
            self.flags, self.state, self.wrap = decoded.injection(
                machine, plan, exposed_start)
            self.targets = plan.targets
            self.injected: List[Optional[Handler]] = [None] * text_len
            self.exposed = [0] * text_len  # exposed rows per bound block

    @property
    def halted(self) -> bool:
        return self.pc == self.decoded.text_len

    @property
    def pending(self) -> bool:
        """Whether the plan still has targets to fire."""
        return self.state is not None and self.state[0] < len(self.targets)

    def run(self, limit: int) -> None:
        """Execute until the program halts or ``executed`` reaches ``limit``.

        A fault propagates with ``pc`` at the faulting instruction and
        ``executed``/counts including it, as per-instruction dispatch
        leaves them.
        """
        if self.pending:
            self._run_injected(limit)
        self._run_fast(limit)

    def flush(self) -> List[int]:
        """Expand the block counts into ``exec_counts`` and return it."""
        exec_counts = self.exec_counts
        counts = self.block_counts
        sizes = self.decoded.block_sizes
        for leader in self.bound:
            count = counts[leader]
            if count:
                for index in range(leader, leader + sizes[leader]):
                    exec_counts[index] += count
                counts[leader] = 0
        return exec_counts

    # ------------------------------------------------------------------
    # Lazy binding.
    # ------------------------------------------------------------------
    def _block(self, pc: int) -> Optional[Callable[[], int]]:
        """Bind the block at leader ``pc``, or ``None`` while it is cold."""
        decoded = self.decoded
        heat = decoded.block_heat
        if heat[pc] < HOT_VISITS:
            heat[pc] += 1
            return None
        size = decoded.block_sizes[pc]
        maker = block_maker(decoded.block_shapes[pc])
        block = self.blocks[pc] = maker(decoded.specs[pc:pc + size],
                                        self.machine)
        self.bound.append(pc)
        if self.state is not None:
            self.exposed[pc] = sum(self.flags[pc:pc + size])
        return block

    def _handler(self, pc: int) -> Handler:
        decoded = self.decoded
        handler = self.handlers[pc] = FAST_MAKERS[decoded.ops[pc]](
            decoded.specs[pc], self.machine)
        return handler

    def _injected(self, pc: int) -> Handler:
        handler = self.injected[pc] = (
            self.wrap(pc) if self.flags[pc]
            else self.handlers[pc] or self._handler(pc))
        return handler

    def _fault(self, pc: int, executed: int, exc: BaseException):
        """Count the rows of the block at ``pc`` up to the one that raised
        ``exc``; return that row's index and the new ``executed``."""
        if isinstance(exc, SimFault):
            index = exc.pc
        else:
            index = pc + block_row(self.decoded.block_shapes[pc], exc)
        exec_counts = self.exec_counts
        for row in range(pc, index + 1):
            exec_counts[row] += 1
        return index, executed + index - pc + 1

    # ------------------------------------------------------------------
    # The loops.
    # ------------------------------------------------------------------
    def _run_fast(self, limit: int) -> None:
        text_len = self.decoded.text_len
        sizes = self.decoded.block_sizes
        blocks = self.blocks
        counts = self.block_counts
        handlers = self.handlers
        exec_counts = self.exec_counts
        pc = self.pc
        executed = self.executed
        try:
            while pc != text_len:
                size = sizes[pc]
                if size and executed + size <= limit:
                    block = blocks[pc] or self._block(pc)
                    if block is not None:
                        try:
                            nxt = block()
                        except _FAULTS as exc:
                            pc, executed = self._fault(pc, executed, exc)
                            raise
                        counts[pc] += 1
                        executed += size
                        pc = nxt
                        continue
                if executed >= limit:
                    break
                handler = handlers[pc] or self._handler(pc)
                exec_counts[pc] += 1
                executed += 1
                pc = handler()
        finally:
            self.pc = pc
            self.executed = executed

    def _run_injected(self, limit: int) -> None:
        """:meth:`_run_fast` while targets are pending: a block runs whole
        only when the next target lies beyond its exposed occurrences."""
        text_len = self.decoded.text_len
        sizes = self.decoded.block_sizes
        blocks = self.blocks
        counts = self.block_counts
        handlers = self.injected
        exec_counts = self.exec_counts
        state = self.state
        targets = self.targets
        ntargets = len(targets)
        exposed = self.exposed
        pc = self.pc
        executed = self.executed
        try:
            while pc != text_len and state[0] < ntargets:
                size = sizes[pc]
                if size and executed + size <= limit:
                    block = blocks[pc] or self._block(pc)
                    after = state[1] + exposed[pc]
                    if block is not None and targets[state[0]] >= after:
                        try:
                            nxt = block()
                        except _FAULTS as exc:
                            pc, executed = self._fault(pc, executed, exc)
                            raise
                        counts[pc] += 1
                        executed += size
                        state[1] = after
                        pc = nxt
                        continue
                if executed >= limit:
                    break
                handler = handlers[pc] or self._injected(pc)
                exec_counts[pc] += 1
                executed += 1
                pc = handler()
        finally:
            self.pc = pc
            self.executed = executed
