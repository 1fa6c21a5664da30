"""Functional simulator for the virtual ISA.

This is the SimpleScalar-equivalent substrate of the reproduction: a purely
functional (no timing) interpreter that executes a finalized
:class:`~repro.isa.Program`, collects dynamic instruction statistics, and
optionally applies a soft-error :class:`~repro.sim.faults.InjectionPlan`.

Execution follows a **decode-once / execute-many** design: the program is
lowered once by :mod:`repro.sim.decode` into flat operand tuples and
pre-resolved targets (cached on the ``Program``), then bound per run to
functions compiled per unit -- a basic block extended along unconditional
jumps -- and per span of a unit's rows (:mod:`repro.sim.stepper`), so the
dispatch loop pays one call per unit, with per-instruction threaded-code
closures for cold code and injection targets.  Golden runs bind no injection
bookkeeping at all; only runs carrying a non-empty :class:`InjectionPlan`
pay for the exposed-instruction wrappers.  The seed
``if/elif`` interpreter survives unchanged in :mod:`repro.sim.reference`
(``engine="reference"``) as the semantic oracle for differential tests and
the baseline for the interpreter perf benchmark.

Crash semantics follow real hardware behaviour as closely as a functional
model can: wild loads/stores and bad jump targets raise
:class:`~repro.sim.errors.MemoryFault` / :class:`ControlFault`
(segmentation fault analogue), integer division by zero raises
:class:`ArithmeticFault` (SIGFPE analogue), and an exhausted instruction
budget is reported as an infinite run (the paper's other catastrophic
failure mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..isa import Program
from ..isa.registers import NUM_FLOAT_REGS, NUM_INT_REGS, RA, RV, SP
from .decode import DecodedProgram, decode_program
from .errors import MemoryFault, SimFault, WatchdogExpired
from .faults import InjectionPlan
from .memory import Memory
from .stepper import Stepper


class Outcome:
    """Classification of a finished simulation run (paper Section 5.1)."""

    COMPLETED = "completed"
    CRASH = "crash"
    HANG = "hang"

    CATASTROPHIC = (CRASH, HANG)


@dataclass
class RunStatistics:
    """Dynamic statistics of a run, derived from per-static execution counts."""

    total: int = 0
    arithmetic: int = 0
    memory: int = 0
    branch: int = 0
    call: int = 0
    other: int = 0
    tagged: int = 0
    exposed_protected: int = 0
    exposed_unprotected: int = 0

    @property
    def tagged_fraction(self) -> float:
        """Fraction of dynamic instructions tagged low-reliability (Table 3)."""
        if self.total == 0:
            return 0.0
        return self.tagged / self.total


@dataclass
class RunResult:
    """Everything observable about one simulation run."""

    outcome: str
    executed: int
    exit_value: Optional[int]
    outputs: Dict[int, List[float]]
    fault: Optional[str]
    fault_kind: Optional[str]
    statistics: RunStatistics
    exec_counts: List[int]
    injection: Optional[InjectionPlan]
    memory: Memory
    program: Program

    def output(self, channel: int = 0) -> List[float]:
        """Values written with ``OUT``/``FOUT`` to the given channel."""
        return self.outputs.get(channel, [])


#: Default stack size (cells) reserved at the top of memory.
STACK_CELLS = 1 << 16
#: Absolute fallback instruction budget when no golden length is known.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


def executing_engine(engine: str, plan: Optional[InjectionPlan]) -> str:
    """The engine that actually executes ``plan`` when ``engine`` is asked for.

    The fork engine resumes from golden checkpoints, so it runs
    only plans that have targets and whose :mod:`fault model
    <repro.sim.models>` supports resuming (``memory-bit`` does not).
    Every other plan executes on the decoded engine instead — silently,
    because the fallback runs the whole program and is asserted
    bit-identical in the test suite.  Other engines are returned as given.
    """
    if engine == "fork" and not (
            plan is not None and plan.targets and plan.fork_compatible):
        return "decoded"
    return engine


def summarise_counts(decoded: DecodedProgram, exec_counts: List[int]) -> RunStatistics:
    """Reduce execution counts with the decode cache's static class vectors.

    One ``sum(map(...))`` pass per class over precomputed index vectors
    replaces the seed interpreter's per-instruction attribute chasing and
    ``instruction_is_exposed`` re-evaluation.
    """
    classes = decoded.classes
    count_at = exec_counts.__getitem__
    return RunStatistics(
        total=sum(exec_counts),
        arithmetic=sum(map(count_at, classes.arithmetic)),
        memory=sum(map(count_at, classes.memory)),
        branch=sum(map(count_at, classes.branch)),
        call=sum(map(count_at, classes.call)),
        other=sum(map(count_at, classes.other)),
        tagged=sum(map(count_at, classes.tagged)),
        exposed_protected=sum(map(count_at, classes.exposed_protected)),
        exposed_unprotected=sum(map(count_at, classes.exposed_unprotected)),
    )


class Machine:
    """Functional simulator instance.

    A machine is single-use: construct, call :meth:`run`, inspect the
    returned :class:`RunResult`.  The memory object survives in the result
    so application drivers can read output buffers after the run.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.memory = Memory(program.memory_cells)
        self.int_regs: List[int] = [0] * NUM_INT_REGS
        self.float_regs: List[float] = [0.0] * NUM_FLOAT_REGS
        self.outputs: Dict[int, List[float]] = {}
        self._load_data_segment()
        # Stack grows downward from the top of memory.
        self.int_regs[SP] = program.memory_cells - 8
        self.int_regs[RA] = len(program.instructions)  # sentinel: "return" halts

    # ------------------------------------------------------------------
    # Setup helpers.
    # ------------------------------------------------------------------
    def _load_data_segment(self) -> None:
        for obj in self.program.data_objects.values():
            if obj.address is None:
                raise SimFault(
                    f"program not finalized: data object {obj.name!r} has no address"
                )
            if obj.initial:
                self.memory.write_block(obj.address, list(obj.initial))

    def data_address(self, name: str) -> int:
        """Address of a named global, for use by application drivers."""
        return self.program.data_address(name)

    def write_global(self, name: str, values: Sequence[float], offset: int = 0) -> None:
        """Write values into a named global array before the run starts."""
        obj = self.program.data_objects[name]
        if offset + len(values) > obj.size:
            raise MemoryFault(
                f"write of {len(values)} values at offset {offset} overflows "
                f"global {name!r} of size {obj.size}"
            )
        self.memory.write_block(self.program.data_address(name) + offset, list(values))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        injection: Optional[InjectionPlan] = None,
        engine: str = "decoded",
        checkpoints=None,
        record_only: bool = False,
    ) -> RunResult:
        """Execute the program and return the run's :class:`RunResult`.

        ``engine`` selects the execution engine: ``"decoded"`` (default) is
        the pre-decoded threaded-code engine; ``"reference"`` is the seed
        interpreter kept as a semantic oracle; ``"fork"`` resumes an
        injected run from the nearest golden checkpoint in ``checkpoints``
        (a :class:`~repro.sim.fork.CheckpointStore`) and splices the golden
        suffix back in on re-convergence.  All engines produce
        bit-identical results under the same seeds.  Fork requests degrade
        to the decoded engine by :func:`executing_engine`.  The reference
        engine predates the model subsystem and only implements the default
        ``control-bit`` model.  ``record_only`` lets the fork engine end a
        run on a hang proof, whose result then holds only what a run
        record reads (see :func:`~repro.sim.fork.run_forked`); every other
        engine ignores it.
        """
        has_targets = injection is not None and bool(injection.targets)
        if engine == "reference":
            if has_targets and injection.model != "control-bit":
                raise ValueError(
                    f"the reference engine only implements the 'control-bit' "
                    f"fault model, not {injection.model!r}"
                )
            from .reference import execute_reference
            return execute_reference(self, max_instructions, injection)
        engine = executing_engine(engine, injection)
        if engine == "fork":
            if checkpoints is None:
                raise ValueError("engine='fork' requires a checkpoint store")
            from .fork import run_forked
            return run_forked(self, injection, checkpoints, max_instructions,
                              record_only)
        if engine != "decoded":
            raise ValueError(f"unknown engine {engine!r}")

        decoded = decode_program(self.program)
        # Golden runs (no injection, or an empty plan) never bind injection
        # wrappers.  Result-model plans wrap the exposed instructions they
        # reach; state-model plans run plain code and corrupt machine state
        # between instructions.
        state_model = None
        plan = None
        if has_targets:
            if injection.model_impl.kind == "state":
                state_model = injection.model_impl
            else:
                plan = injection
        stepper = Stepper(decoded, self, decoded.entry_index, plan=plan)
        fault: Optional[SimFault] = None
        outcome = Outcome.COMPLETED

        # Unit dispatch (:mod:`repro.sim.stepper`): every unit, span or
        # handler executes against the bound register files / memory and
        # returns the next pc.  All control-flow targets were validated at decode
        # time (JR validates dynamically), so the only way out of the text
        # segment is the ``text_len`` halt sentinel.
        try:
            if state_model is None:
                stepper.run(max_instructions)
            else:
                # State-corruption loop: pause at each target index of the
                # dynamic stream and let the model mutate machine state.
                # Targets beyond the run's natural end never fire, like
                # unreached targets of a result plan.
                for target in injection.targets:
                    stepper.run(min(target, max_instructions))
                    if stepper.halted or stepper.executed >= max_instructions:
                        break
                    state_model.corrupt_state(self, injection, target)
                stepper.run(max_instructions)
            if not stepper.halted:
                raise WatchdogExpired(stepper.executed, max_instructions)
        except SimFault as exc:
            outcome = Outcome.CRASH
            fault = exc
        except WatchdogExpired:
            outcome = Outcome.HANG
        except (OverflowError, ValueError) as exc:
            # Extremely corrupted float values can overflow conversions; the
            # closest hardware analogue is a crash.
            outcome = Outcome.CRASH
            fault = SimFault(f"numeric fault: {exc}", stepper.pc)

        executed = stepper.executed
        exec_counts = stepper.flush()
        statistics = summarise_counts(decoded, exec_counts)
        return RunResult(
            outcome=outcome,
            executed=executed,
            exit_value=self.int_regs[RV] if outcome == Outcome.COMPLETED else None,
            outputs=self.outputs,
            fault=str(fault) if fault is not None else None,
            fault_kind=fault.kind if fault is not None else None,
            statistics=statistics,
            exec_counts=exec_counts,
            injection=injection,
            memory=self.memory,
            program=self.program,
        )
