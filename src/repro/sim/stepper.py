"""Unit dispatch: the one scalar loop every engine runs through.

:mod:`repro.sim.decode` cuts a program into basic blocks (a leader -- the
entry, a branch or jump target, or the instruction after a control op --
up to the next control op or leader) and extends each leader's block
into a *unit* along static unconditional edges (a ``J``'s target, a
fall-through into the next leader).  :mod:`repro.sim.semantics` compiles
one maker per unit *shape*, which binds two functions: ``run()``
executes every row of the unit and returns the next pc, and
``span(lo, hi)`` executes rows ``lo`` to ``hi - 1``.  A :class:`Stepper`
drives one run::

    while pc != text_len:
        size = block_sizes[pc]
        if size and executed + size <= limit:
            pc = blocks[pc]()           # a whole unit
            block_counts[leader] += 1
            executed += size
        elif the unit holding pc is compiled:
            pc = spans[owner](lo, hi)   # rows lo..hi-1 of it
            executed += hi - lo
        else:
            ...                         # one instruction

A unit runs whole only from its leader, when it fits before ``limit``
(the caller's next checkpoint, state-model target or watchdog budget)
and, while a result plan has targets left, when none of them falls
inside the unit's exposed occurrences.  Everywhere else -- a pc that is
not a leader (after a target fired, after a ``JR`` into a block's
middle), the tail before a limit, the rows before the next target -- a
span runs as many rows as it may.  The checkpoint capture instead stops
at the first leader at or past each grid point
(:meth:`Stepper.run_to_leader`), so checkpoints sit at leaders and a
golden run, or a forked run that rejoins it, splits no unit.  The
target row itself is found by bisecting the unit's prefix sums of the
plan's exposure flags and is the only row that single-steps, through its
injection wrapper.  Code also single-steps until its leader is hot
(:data:`HOT_VISITS`): compiling a shape is worth it only for code that
runs often.  Handlers, wrappers and units are all bound on first use, so
a short run pays only for the code it reaches.

Execution counts stay exact: whole units are counted per leader and
spans in a difference array over the unit's rows, both expanded by
:meth:`Stepper.flush`; a fault inside a unit counts its rows up to the
faulting one, found from the generated code's line table and the unit's
row list, at no cost to the hot loop.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, List, Optional

from .decode import DecodedProgram, Handler
from .errors import SimFault
from .faults import InjectionPlan
from .semantics import FAST_MAKERS, unit_maker, unit_row

#: What a unit may raise that the engines report as a crash.
_FAULTS = (SimFault, OverflowError, ValueError)

#: Visits to a leader (or entries into its block's middle) that
#: single-step, per process and program, before its unit is compiled.
#: Compiling a unit costs what a few hundred of its visits save over
#: single-stepping, so code that runs only a few times single-steps,
#: while a loop compiles within its first iterations.
HOT_VISITS = 64


class Stepper:
    """One run of ``decoded`` on ``machine``, from ``pc`` and ``executed``.

    ``exec_counts`` (a fresh zero vector by default) receives the counts
    of single-stepped instructions directly and of units and spans at
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
        self.spans: List[Optional[Callable[[int, int], int]]] = [None] * text_len
        self.block_counts = [0] * text_len
        #: Per bound leader: span starts minus span ends, per unit row.
        self.span_counts: List[Optional[List[int]]] = [None] * text_len
        self.bound: List[int] = []  # leaders with a bound unit
        self.state: Optional[List[int]] = None
        if plan is not None:
            self.flags, self.state, self.wrap = decoded.injection(
                machine, plan, exposed_start)
            self.targets = plan.targets
            self.injected: List[Optional[Handler]] = [None] * text_len
            #: Per bound leader: exposed rows before each unit row.
            self.exposed_before: List[Optional[List[int]]] = [None] * text_len
            self.exposed = [0] * text_len  # exposed rows per bound unit

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
        self._run_fast(limit, limit)

    def run_to_leader(self, stop: int, limit: int) -> None:
        """Execute until the program halts, or to the first unit leader
        reached with ``executed`` at or past ``stop``.

        A unit that starts before ``stop`` runs whole past it, so the run
        splits no unit; ``limit`` stays a hard stop (a unit that would
        pass it runs as a span up to it).  For a stepper without a plan.
        """
        self._run_fast(limit, stop)

    def flush(self) -> List[int]:
        """Expand the unit and span counts into ``exec_counts`` and
        return it."""
        exec_counts = self.exec_counts
        counts = self.block_counts
        span_counts = self.span_counts
        unit_rows = self.decoded.block_rows
        for leader in self.bound:
            count = counts[leader]
            steps = span_counts[leader]
            if count or any(steps):
                for row, step in zip(unit_rows[leader], steps):
                    count += step
                    exec_counts[row] += count
                counts[leader] = 0
                steps[:] = [0] * len(steps)
        return exec_counts

    # ------------------------------------------------------------------
    # Lazy binding.
    # ------------------------------------------------------------------
    def _block(self, pc: int) -> Optional[Callable[[], int]]:
        """Bind the unit at leader ``pc``, or ``None`` while it is cold."""
        heat = self.decoded.block_heat
        if heat[pc] <= HOT_VISITS:
            heat[pc] += 1
            if heat[pc] <= HOT_VISITS:
                return None
        return self._bind(pc)

    def _bind(self, leader: int) -> Callable[[], int]:
        decoded = self.decoded
        rows = decoded.block_rows[leader]
        specs = decoded.specs
        block = self.blocks[leader] = unit_maker(decoded.block_shapes[leader])(
            [specs[row] for row in rows], self.machine)
        self.span_counts[leader] = [0] * (len(rows) + 1)
        self.bound.append(leader)
        if self.state is not None:
            flags = self.flags
            before = self.exposed_before[leader] = list(
                accumulate((flags[row] for row in rows), initial=0))
            self.exposed[leader] = before[-1]
        return block

    def _span(self, pc: int, leader: int) -> Optional[Callable[[int, int], int]]:
        """Bind the span of the unit holding ``pc`` (of the basic block at
        ``leader``), or ``None`` while it is cold.

        An entry into the block's middle (a ``JR``'s target, a resumed
        run) heats the unit like a visit to its leader; a cold block
        single-steps from there to its end.
        """
        decoded = self.decoded
        if not decoded.block_sizes[leader]:
            return None
        heat = decoded.block_heat
        if pc != leader and heat[leader] <= HOT_VISITS:
            heat[leader] += 1
        if heat[leader] <= HOT_VISITS:
            return None
        if self.blocks[leader] is None:
            self._bind(leader)
        specs = decoded.specs
        span = self.spans[leader] = unit_maker(
            decoded.block_shapes[leader], span=True)(
            [specs[row] for row in decoded.block_rows[leader]], self.machine)
        return span

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

    def _fault(self, leader: int, lo: int, executed: int,
               exc: BaseException, span: bool = True):
        """Count rows ``lo`` up to the one that raised ``exc`` in the span
        (or the run) of the unit at ``leader``; return that row's index
        and the new ``executed``."""
        decoded = self.decoded
        slot = unit_row(decoded.block_shapes[leader], exc, span)
        rows = decoded.block_rows[leader]
        exec_counts = self.exec_counts
        for row in rows[lo:slot + 1]:
            exec_counts[row] += 1
        return rows[slot], executed + slot - lo + 1

    # ------------------------------------------------------------------
    # The loops.
    # ------------------------------------------------------------------
    def _run_fast(self, limit: int, stop: int) -> None:
        decoded = self.decoded
        text_len = decoded.text_len
        sizes = decoded.block_sizes
        owners = decoded.block_owner
        blocks = self.blocks
        spans = self.spans
        counts = self.block_counts
        span_counts = self.span_counts
        handlers = self.handlers
        exec_counts = self.exec_counts
        pc = self.pc
        executed = self.executed
        try:
            while pc != text_len:
                size = sizes[pc]
                if size and executed + size <= limit:
                    if executed >= stop:
                        break
                    block = blocks[pc] or self._block(pc)
                    if block is not None:
                        try:
                            nxt = block()
                        except _FAULTS as exc:
                            pc, executed = self._fault(pc, 0, executed, exc,
                                                       span=False)
                            raise
                        counts[pc] += 1
                        executed += size
                        pc = nxt
                        continue
                if executed >= limit:
                    break
                leader = owners[pc]
                span = spans[leader] or self._span(pc, leader)
                if span is not None:
                    lo = pc - leader
                    hi = sizes[leader]
                    if hi - lo > limit - executed:
                        hi = lo + limit - executed
                    try:
                        nxt = span(lo, hi)
                    except _FAULTS as exc:
                        pc, executed = self._fault(leader, lo, executed, exc)
                        raise
                    steps = span_counts[leader]
                    steps[lo] += 1
                    steps[hi] -= 1
                    executed += hi - lo
                    pc = nxt
                    continue
                # Cold: single-step to the end of pc's basic block.
                while True:
                    handler = handlers[pc] or self._handler(pc)
                    exec_counts[pc] += 1
                    executed += 1
                    nxt = handler()
                    if (nxt != pc + 1 or nxt == text_len or sizes[nxt]
                            or executed >= limit):
                        break
                    pc = nxt
                pc = nxt
        finally:
            self.pc = pc
            self.executed = executed

    def _run_injected(self, limit: int) -> None:
        """:meth:`_run_fast` while targets are pending: a unit runs whole
        only when the next target lies beyond its exposed occurrences, and
        a span stops at the target's row, which single-steps through its
        wrapper."""
        decoded = self.decoded
        text_len = decoded.text_len
        sizes = decoded.block_sizes
        owners = decoded.block_owner
        blocks = self.blocks
        spans = self.spans
        counts = self.block_counts
        span_counts = self.span_counts
        handlers = self.injected
        exec_counts = self.exec_counts
        state = self.state
        targets = self.targets
        ntargets = len(targets)
        exposed = self.exposed
        exposed_before = self.exposed_before
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
                            pc, executed = self._fault(pc, 0, executed, exc,
                                                       span=False)
                            raise
                        counts[pc] += 1
                        executed += size
                        state[1] = after
                        pc = nxt
                        continue
                if executed >= limit:
                    break
                leader = owners[pc]
                span = spans[leader] or self._span(pc, leader)
                if span is not None:
                    lo = pc - leader
                    hi = sizes[leader]
                    if hi - lo > limit - executed:
                        hi = lo + limit - executed
                    # The target's row: the one whose exposed occurrence
                    # is ``targets[state[0]]``.
                    before = exposed_before[leader]
                    row = bisect_right(
                        before, targets[state[0]] - state[1] + before[lo],
                        lo) - 1
                    if row < hi:
                        hi = row
                    if hi > lo:
                        try:
                            nxt = span(lo, hi)
                        except _FAULTS as exc:
                            pc, executed = self._fault(leader, lo, executed,
                                                       exc)
                            raise
                        steps = span_counts[leader]
                        steps[lo] += 1
                        steps[hi] -= 1
                        executed += hi - lo
                        state[1] += before[hi] - before[lo]
                        pc = nxt
                        continue
                # Single-step the target's row, or a cold block to its end.
                while True:
                    handler = handlers[pc] or self._injected(pc)
                    exec_counts[pc] += 1
                    executed += 1
                    nxt = handler()
                    if (span is not None or nxt != pc + 1 or nxt == text_len
                            or sizes[nxt] or executed >= limit):
                        break
                    pc = nxt
                pc = nxt
        finally:
            self.pc = pc
            self.executed = executed
