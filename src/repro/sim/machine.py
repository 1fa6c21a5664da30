"""Functional simulator for the virtual ISA.

This is the SimpleScalar-equivalent substrate of the reproduction: a purely
functional (no timing) interpreter that executes a finalized
:class:`~repro.isa.Program`, collects dynamic instruction statistics, and
optionally applies a soft-error :class:`~repro.sim.faults.InjectionPlan`.

Execution follows a **decode-once / execute-many** design: the program is
lowered once by :mod:`repro.sim.decode` into flat operand tuples and
pre-resolved targets (cached on the ``Program``), then bound per run to a
table of specialized zero-argument closures — threaded code — so the
dispatch loop is three statements long.  Golden runs bind the fast handler
table with no injection bookkeeping at all; only runs carrying a non-empty
:class:`InjectionPlan` pay for the exposed-instruction wrappers.  The seed
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

    @property
    def is_catastrophic(self) -> bool:
        return self.outcome in Outcome.CATASTROPHIC

    @property
    def injected_errors(self) -> int:
        return 0 if self.injection is None else self.injection.injected_errors

    def output(self, channel: int = 0) -> List[float]:
        """Values written with ``OUT``/``FOUT`` to the given channel."""
        return self.outputs.get(channel, [])

    def read_memory(self, address: int, count: int) -> List[float]:
        return self.memory.read_block(address, count)


#: Default stack size (cells) reserved at the top of memory.
STACK_CELLS = 1 << 16
#: Default multiplier applied to a golden run's length to derive the hang
#: watchdog budget for injected runs.
DEFAULT_WATCHDOG_FACTOR = 8
#: Absolute fallback instruction budget when no golden length is known.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000
#: Engines that start injected runs from golden checkpoints.
CHECKPOINT_ENGINES = ("fork", "batch")


def executing_engine(engine: str, plan: Optional[InjectionPlan]) -> str:
    """The engine that actually executes ``plan`` when ``engine`` is asked for.

    The fork and batch engines resume from golden checkpoints, so they run
    only plans that have targets and whose :mod:`fault model
    <repro.sim.models>` supports resuming (``memory-bit`` does not).
    Every other plan executes on the decoded engine instead — silently,
    because the fallback runs the whole program and is asserted
    bit-identical in the test suite.  Other engines are returned as given.
    """
    if engine in CHECKPOINT_ENGINES and not (
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

    def read_global(self, name: str, count: Optional[int] = None, offset: int = 0):
        """Read values from a named global array (defaults to the whole array)."""
        obj = self.program.data_objects[name]
        if count is None:
            count = obj.size - offset
        return self.memory.read_block(self.program.data_address(name) + offset, count)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        injection: Optional[InjectionPlan] = None,
        engine: str = "decoded",
        checkpoints=None,
    ) -> RunResult:
        """Execute the program and return the run's :class:`RunResult`.

        ``engine`` selects the execution engine: ``"decoded"`` (default) is
        the pre-decoded threaded-code engine; ``"reference"`` is the seed
        interpreter kept as a semantic oracle; ``"fork"`` resumes an
        injected run from the nearest golden checkpoint in ``checkpoints``
        (a :class:`~repro.sim.fork.CheckpointStore`) and splices the golden
        suffix back in on re-convergence; ``"batch"`` runs the plan as a
        single lane of the vectorized lockstep engine
        (:mod:`repro.sim.batch`), which campaigns use to execute whole
        cells at once.  All engines produce bit-identical results under
        the same seeds.  Fork and batch requests degrade to the decoded
        engine by :func:`executing_engine`.  The reference engine predates
        the model subsystem and only implements the default ``control-bit``
        model.
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
        if engine in CHECKPOINT_ENGINES and checkpoints is None:
            raise ValueError(f"engine={engine!r} requires a checkpoint store")
        if engine == "fork":
            from .fork import run_forked
            return run_forked(self, injection, checkpoints, max_instructions)
        if engine == "batch":
            # A one-lane batch: campaigns batch whole cells through
            # :func:`repro.sim.batch.run_batched`; this path keeps the
            # per-run Machine API uniform across engines.
            from .batch import run_batched
            return run_batched(self, [injection], checkpoints,
                               max_instructions)[0]
        if engine != "decoded":
            raise ValueError(f"unknown engine {engine!r}")

        decoded = decode_program(self.program)
        text_len = decoded.text_len
        exec_counts = [0] * text_len

        # Golden runs (no injection, or an empty plan) bind the fast handler
        # table and skip the exposure bookkeeping entirely.  Result-model
        # plans wrap the exposed instructions; state-model plans keep the
        # fast table and corrupt machine state between instructions.
        state_model = None
        if has_targets:
            model = injection.model_impl
            if model.kind == "state":
                state_model = model
                handlers = decoded.bind(self)
            else:
                handlers = decoded.bind_injected(self, injection)
        else:
            handlers = decoded.bind(self)

        pc = decoded.entry_index
        executed = 0
        fault: Optional[SimFault] = None
        outcome = Outcome.COMPLETED

        # Threaded dispatch: every handler executes one instruction against
        # the bound register files / memory and returns the next pc.  All
        # control-flow targets were validated at decode time (JR validates
        # dynamically), so the only way out of the text segment is the
        # ``text_len`` halt sentinel.
        try:
            if state_model is not None:
                # State-corruption loop: pause at each target index of the
                # dynamic stream and let the model mutate machine state.
                # Targets beyond the run's natural end never fire, like
                # unreached targets of a result plan.
                targets = injection.targets
                ntargets = len(targets)
                tp = 0
                while pc != text_len:
                    if executed >= max_instructions:
                        raise WatchdogExpired(executed, max_instructions)
                    if tp < ntargets and targets[tp] == executed:
                        state_model.corrupt_state(self, injection, executed)
                        tp += 1
                    exec_counts[pc] += 1
                    executed += 1
                    pc = handlers[pc]()
            else:
                while pc != text_len:
                    if executed >= max_instructions:
                        raise WatchdogExpired(executed, max_instructions)
                    exec_counts[pc] += 1
                    executed += 1
                    pc = handlers[pc]()
        except SimFault as exc:
            outcome = Outcome.CRASH
            fault = exc
        except WatchdogExpired:
            outcome = Outcome.HANG
        except (OverflowError, ValueError) as exc:
            # Extremely corrupted float values can overflow conversions; the
            # closest hardware analogue is a crash.
            outcome = Outcome.CRASH
            fault = SimFault(f"numeric fault: {exc}", pc)

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


def run_program(
    program: Program,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    injection: Optional[InjectionPlan] = None,
    setup=None,
    engine: str = "decoded",
) -> RunResult:
    """Convenience wrapper: build a machine, optionally set up memory, run.

    ``setup`` is an optional callable receiving the machine before execution
    (used by application drivers to write workload data into global arrays).
    """
    machine = Machine(program)
    if setup is not None:
        setup(machine)
    return machine.run(max_instructions=max_instructions, injection=injection,
                       engine=engine)
