"""Checkpoint-and-fork execution engine for injected runs.

A fault-injection campaign re-executes the *same* program on the *same*
workload hundreds to thousands of times; the runs differ only in where the
soft errors land.  Everything before a run's first injection site is
bit-identical to the memoized golden run, and a fully-masked fault makes the
*suffix* bit-identical too.  This module makes injected runs cost
O(divergence) instead of O(program length):

* :func:`build_checkpoint_store` re-executes the golden run once per
  workload seed and snapshots machine state (registers, memory cells
  touched since the previous snapshot, program counter, execution-count
  vector, per-mode exposed-dynamic counters) at periodic instruction-count
  checkpoints.
* :func:`run_forked` restores the nearest checkpoint at or before the
  run's first injection target, replays only the short gap with the
  resumable injection wrappers (:meth:`DecodedProgram.injection` with
  ``exposed_start``) under the unit stepper (:mod:`repro.sim.stepper`),
  and simulates forward from there.
* **Convergence early-exit**: once every planned injection has fired, the
  engine compares machine state against the golden trace at each
  checkpoint-grid boundary (registers and pc directly, memory against an
  incrementally maintained golden shadow image).  On re-convergence the
  golden suffix is spliced in — outputs, remaining execution counts, final
  memory image, exit value — and the run terminates immediately, so
  fully-masked faults cost little more than the replay gap.
* **Dead-divergence fast-forward**: when everything but some memory cells
  matches at a boundary, and the golden run never reads those cells
  again before overwriting them (the capture run records each cell's
  last read-before-write interval), the rest of the run *is* the golden
  run apart from those cells.  It is not executed: the result is the
  golden suffix with the cells patched in, at the boundary where a full
  replay would have spliced or at the golden completion, and the store's
  counters advance exactly as a full replay would advance them.

The comparison is *exact*, not probabilistic: a splice happens only when
registers, pc, per-channel output lengths and the full memory image equal
the golden state at the same dynamic instruction index, which (execution
being deterministic) guarantees the spliced :class:`RunResult` is
bit-identical to what a full run would have produced.  Runs that never
re-converge — crashes, hangs, persistently corrupted state — simply run to
their natural end under the exact semantics of the decoded engine,
including watchdog and fault behaviour.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..isa.registers import RV
from .decode import DecodedProgram, decode_program
from .errors import SimFault, WatchdogExpired
from .faults import InjectionPlan, ProtectionMode
from .stepper import Stepper

#: Default number of checkpoints captured over a golden run.  The grid
#: interval is ``golden_executed // count``: finer grids shorten both the
#: replay gap and the convergence-detection latency, at the cost of capture
#: time and snapshot memory.
DEFAULT_CHECKPOINT_COUNT = 128


class _TrackingCells(dict):
    """Dict subclass that logs the capture run's memory accesses.

    The capture run swaps this in for ``Memory.cells`` *before* binding
    code, so every store — all of which go through plain item assignment —
    lands in ``touched`` (the cells written since the last checkpoint), and
    every load — all of which go through ``get`` — that reads a cell not
    yet written in the current checkpoint interval records that interval
    in ``read_first``.
    """

    __slots__ = ("touched", "read_first", "interval")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.touched = set()
        self.read_first: Dict[int, int] = {}
        self.interval = 0

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self.touched.add(key)

    def get(self, key, default=None):
        if key not in self.touched:
            self.read_first[key] = self.interval
        return dict.get(self, key, default)


@dataclass
class Checkpoint:
    """Machine state at one instruction-count grid point of the golden run.

    ``memory_delta`` holds only the cells written since the previous
    checkpoint; the full image at this point is the run's base image plus
    all deltas up to and including this one, applied in order (cells are
    never deleted during a run).  ``output_lens`` exploits that outputs are
    append-only: the golden outputs at this point are a prefix of the final
    golden outputs, so only the per-channel lengths are stored.
    """

    executed: int
    pc: int
    int_regs: List[int]
    float_regs: List[float]
    memory_delta: Dict[int, float]
    output_lens: Dict[int, int]
    exec_counts: List[int]
    exposed_protected: int
    exposed_unprotected: int

    def exposed_count(self, mode: ProtectionMode) -> int:
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return 0


@dataclass
class CheckpointStore:
    """Golden-run checkpoint trace plus final artefacts for suffix splicing.

    Built once per (program, workload) by :func:`build_checkpoint_store`;
    consumed by every injected run of the campaign cell.  Checkpoint ``j``
    sits at dynamic index ``j * interval`` (checkpoint 0 is the run start),
    so the fork loop can align its own instruction counter with the golden
    grid.  The store is deliberately **not** shipped to campaign worker
    processes (see ``GoldenRun.__getstate__``); workers rebuild it from the
    decode cache on first use.
    """

    program: object
    interval: int
    checkpoints: List[Checkpoint]
    base_cells: Dict[int, float]
    final_cells: Dict[int, float]
    final_outputs: Dict[int, List[float]]
    final_exec_counts: List[int]
    final_executed: int
    exit_value: Optional[int]
    #: Address -> the last checkpoint interval in which the golden run read
    #: the cell before writing it; a cell absent from here, or with an
    #: entry below ``k``, is never read again from checkpoint ``k`` on
    #: without first being overwritten.
    last_read: Dict[int, int]
    #: Cells the golden run writes after its last checkpoint.
    final_writes: FrozenSet[int]

    # Telemetry for benchmarks: how much work forked runs actually did.
    forked_runs: int = 0
    spliced_runs: int = 0
    replayed_instructions: int = 0
    #: Always 0: kept only because the end-to-end benchmark's tracer reads
    #: it; goes away with the benchmark change that stops reading it.
    batch_retired_runs: int = 0

    _exposed_grid: Dict[ProtectionMode, List[int]] = field(default_factory=dict)

    def exposed_grid(self, mode: ProtectionMode) -> List[int]:
        grid = self._exposed_grid.get(mode)
        if grid is None:
            grid = [ckpt.exposed_count(mode) for ckpt in self.checkpoints]
            self._exposed_grid[mode] = grid
        return grid

    def select(self, first_target: int, mode: ProtectionMode,
               max_instructions: int) -> int:
        """Index of the nearest checkpoint at or before the first target.

        A target is an index into the exposed dynamic stream; the chosen
        checkpoint is the last one whose exposed-dynamic counter has not yet
        passed it.  The checkpoint must also lie strictly inside the
        instruction budget so a tiny budget hangs at exactly the same
        dynamic index as a from-scratch run would.
        """
        index = bisect_right(self.exposed_grid(mode), first_target) - 1
        while index > 0 and self.checkpoints[index].executed >= max_instructions:
            index -= 1
        return index


def _snapshot(machine, decoded: DecodedProgram, executed: int, pc: int,
              exec_counts: List[int], delta: Dict[int, float]) -> Checkpoint:
    classes = decoded.classes
    count_at = exec_counts.__getitem__
    return Checkpoint(
        executed=executed,
        pc=pc,
        int_regs=list(machine.int_regs),
        float_regs=list(machine.float_regs),
        memory_delta=delta,
        output_lens={ch: len(values) for ch, values in machine.outputs.items()},
        exec_counts=list(exec_counts),
        exposed_protected=sum(map(count_at, classes.exposed_protected)),
        exposed_unprotected=sum(map(count_at, classes.exposed_unprotected)),
    )


def build_checkpoint_store(machine, expected,
                           count: int = DEFAULT_CHECKPOINT_COUNT) -> CheckpointStore:
    """Re-execute the golden run on ``machine``, capturing checkpoints.

    ``machine`` must be freshly constructed with the workload applied but
    not yet run; ``expected`` is the memoized golden :class:`RunResult` for
    the same workload, used to size the checkpoint grid and to verify that
    the capture run reproduced it exactly (a cheap one-time guard against
    the capture loop ever drifting from the engine it mirrors).
    """
    decoded = decode_program(machine.program)
    interval = max(1, expected.executed // max(1, count))

    tracked = _TrackingCells(machine.memory.cells)
    machine.memory.cells = tracked
    base_cells = dict(tracked)

    # Code must bind *after* the swap so stores hit the tracking dict; the
    # stepper binds lazily, so every binding happens after it.
    stepper = Stepper(decoded, machine, decoded.entry_index)
    guard = expected.executed  # golden runs complete in exactly this many

    checkpoints = [_snapshot(machine, decoded, 0, stepper.pc,
                             stepper.exec_counts, {})]
    next_boundary = interval
    while True:
        stepper.run(next_boundary)
        if stepper.halted or stepper.executed > guard:
            break
        delta = {address: tracked[address] for address in tracked.touched}
        tracked.touched.clear()
        tracked.interval += 1
        checkpoints.append(_snapshot(machine, decoded, stepper.executed,
                                     stepper.pc, stepper.flush(), delta))
        next_boundary += interval
    executed = stepper.executed
    exec_counts = stepper.flush()

    final_cells = dict(tracked)
    machine.memory.cells = final_cells
    if (executed != expected.executed
            or exec_counts != expected.exec_counts
            or machine.outputs != expected.outputs
            or final_cells != expected.memory.cells):
        raise RuntimeError(
            "checkpoint capture diverged from the memoized golden run; "
            "refusing to build a fork store from inconsistent state"
        )

    return CheckpointStore(
        program=machine.program,
        interval=interval,
        checkpoints=checkpoints,
        base_cells=base_cells,
        final_cells=final_cells,
        final_outputs={ch: list(values) for ch, values in machine.outputs.items()},
        final_exec_counts=exec_counts,
        final_executed=executed,
        exit_value=machine.int_regs[RV],
        last_read=tracked.read_first,
        final_writes=frozenset(tracked.touched),
    )


#: Marks a cell the run never wrote, in a fast-forward's memory patch.
_ABSENT = object()
_DOUBLE = struct.Struct("<d")


def _same_value(a, b) -> bool:
    """Whether two register or cell values behave the same in every later
    instruction: the same type and, for floats, the same IEEE-754 bits."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return _DOUBLE.pack(a) == _DOUBLE.pack(b)
    return a == b


def _all_dead(addresses, last_read: Dict[int, int], interval: int) -> bool:
    """Whether the golden run never reads any of ``addresses`` from
    checkpoint interval ``interval`` on before overwriting it."""
    return all(last_read.get(address, -1) < interval for address in addresses)


def run_forked(machine, plan: InjectionPlan, store: CheckpointStore,
               max_instructions: int):
    """Execute an injected run by forking off the golden checkpoint trace.

    ``machine`` must be freshly constructed for the store's program; its
    memory, registers and outputs are overwritten wholesale from the store,
    so the workload does not need to be applied (and any applied state is
    discarded).  Returns a :class:`RunResult` bit-identical to
    ``machine.run(engine="decoded")`` on an identically prepared machine.
    """
    # Deferred import: machine.py imports this module lazily for the same
    # reason (RunResult/Outcome live there and fork is an engine of Machine).
    from .machine import Outcome, RunResult, summarise_counts

    if machine.program is not store.program:
        raise ValueError("checkpoint store was built for a different program")
    if not plan.targets:
        raise ValueError("fork engine requires a non-empty injection plan")
    # The plan's fault model names the checkpoint counter grid that tracks
    # its site stream (for the default model: the run mode's exposed
    # stream; for data-bit: always the protected stream).  Models with no
    # tracked stream (memory-bit) never reach this engine — Machine.run
    # falls back to full-run decoded execution for them.
    grid_mode = plan.model_impl.fork_grid_mode(plan.mode)
    if grid_mode is None:
        raise ValueError(
            f"fault model {plan.model!r} cannot resume from checkpoints"
        )

    decoded = decode_program(machine.program)
    checkpoints = store.checkpoints
    start_index = store.select(plan.targets[0], grid_mode, max_instructions)
    start = checkpoints[start_index]

    # ------------------------------------------------------------------
    # Restore: registers / memory / outputs / counters, all in place so the
    # bound handler closures observe the restored state.
    # ------------------------------------------------------------------
    cells = machine.memory.cells
    cells.clear()
    cells.update(store.base_cells)
    for ckpt in checkpoints[1:start_index + 1]:
        cells.update(ckpt.memory_delta)
    machine.int_regs[:] = start.int_regs
    machine.float_regs[:] = start.float_regs
    outputs = machine.outputs
    outputs.clear()
    for channel, length in start.output_lens.items():
        outputs[channel] = store.final_outputs[channel][:length]
    stepper = Stepper(decoded, machine, start.pc, start.executed,
                      list(start.exec_counts), plan=plan,
                      exposed_start=start.exposed_count(grid_mode))

    # Golden shadow image: the golden memory at the grid boundary the run
    # is currently crossing, maintained incrementally from the deltas.
    shadow = dict(cells)
    epoch = start_index + 1
    n_checkpoints = len(checkpoints)

    interval = store.interval
    next_boundary = start.executed + interval
    int_regs = machine.int_regs
    float_regs = machine.float_regs

    store.forked_runs += 1
    fault: Optional[SimFault] = None
    outcome = Outcome.COMPLETED
    converged: Optional[Checkpoint] = None
    # Cells that differ from the golden image but that the golden run never
    # reads again before overwriting them (see the fast-forward below).
    dead: Optional[set] = None
    last_read = store.last_read
    # Splicing adopts the golden completion, so it is only legal when the
    # golden run fits the instruction budget; otherwise a converged run
    # must still grind forward to hit the watchdog at the same dynamic
    # index a full run would.
    can_splice = store.final_executed <= max_instructions

    try:
        while True:
            stepper.run(min(next_boundary, max_instructions))
            if stepper.halted:
                break
            executed = stepper.executed
            if executed >= max_instructions:
                raise WatchdogExpired(executed, max_instructions)
            # Crossing a golden grid boundary: advance the shadow image
            # and, once every injection has fired, test re-convergence
            # against the golden state.
            if epoch < n_checkpoints and checkpoints[epoch].executed == executed:
                golden = checkpoints[epoch]
                epoch += 1
                shadow.update(golden.memory_delta)
                if (can_splice
                        and not stepper.pending
                        and stepper.pc == golden.pc
                        and int_regs == golden.int_regs
                        and float_regs == golden.float_regs
                        and {ch: len(v) for ch, v in outputs.items()}
                        == golden.output_lens):
                    if cells == shadow:
                        converged = golden
                        break
                    diverged = {address for address, _ in
                                cells.items() ^ shadow.items()}
                    if _all_dead(diverged, last_read, epoch - 1):
                        # ``==`` forgives -0.0 against 0.0 and 5 against
                        # 5.0; the rest of the run is the golden run only
                        # if nothing but dead cells differs bit for bit.
                        exact = {address for address in cells.keys() | shadow.keys()
                                 if not _same_value(cells.get(address, _ABSENT),
                                                    shadow.get(address, _ABSENT))}
                        if (_all_dead(exact, last_read, epoch - 1)
                                and all(map(_same_value, int_regs, golden.int_regs))
                                and all(map(_same_value, float_regs,
                                            golden.float_regs))):
                            dead = diverged
                            break
            next_boundary += interval
    except SimFault as exc:
        outcome = Outcome.CRASH
        fault = exc
    except WatchdogExpired:
        outcome = Outcome.HANG
    except (OverflowError, ValueError) as exc:
        # Mirrors Machine.run: grossly corrupted floats can overflow a
        # conversion; the closest hardware analogue is a crash.
        outcome = Outcome.CRASH
        fault = SimFault(f"numeric fault: {exc}", stepper.pc)

    executed = stepper.executed
    exec_counts = stepper.flush()
    adopted = converged  # the grid point whose golden suffix the run takes
    patch: Dict[int, object] = {}  # cells that end up off the golden image
    if dead is not None:
        # ------------------------------------------------------------------
        # Dead-divergence fast-forward.  State equals the golden state at
        # this grid point except for cells the golden run overwrites before
        # it reads them again, so the rest of the run is the golden run:
        # the same instructions over the same register values.  Step over
        # it without executing: to the grid point where the golden run has
        # overwritten every such cell -- where a full replay would splice
        # -- or to the golden completion, keeping the cells it never
        # rewrites.  Records, splices and replay counts are what the full
        # replay gives.
        # ------------------------------------------------------------------
        adopted = checkpoints[epoch - 1]
        remaining = dead
        rewritten = set(store.final_writes)
        for golden in checkpoints[epoch:]:
            remaining = remaining - golden.memory_delta.keys()
            rewritten.update(golden.memory_delta)
            if not remaining:
                converged = golden
                break
        else:
            patch = {address: cells.get(address, _ABSENT)
                     for address in exact - rewritten}
        executed = (converged.executed if converged is not None
                    else store.final_executed)
    store.replayed_instructions += executed - start.executed

    if adopted is not None:
        # ------------------------------------------------------------------
        # Golden-suffix splice.  State equals the golden state at this grid
        # point, so the rest of the run is deterministic and already known:
        # append the golden output suffixes, add the golden remaining
        # execution counts, and adopt the golden final memory image (with
        # a fast-forward's dead cells patched back in).
        # ------------------------------------------------------------------
        if converged is not None:
            store.spliced_runs += 1
        golden_counts = adopted.exec_counts
        final_counts = store.final_exec_counts
        exec_counts = [
            here + total - prefix
            for here, total, prefix in zip(exec_counts, final_counts, golden_counts)
        ]
        for channel, values in store.final_outputs.items():
            prefix = adopted.output_lens.get(channel, 0)
            if channel in outputs:
                outputs[channel].extend(values[prefix:])
            else:
                outputs[channel] = list(values)
        cells.clear()
        cells.update(store.final_cells)
        for address, value in patch.items():
            if value is _ABSENT:
                cells.pop(address, None)
            else:
                cells[address] = value
        return RunResult(
            outcome=Outcome.COMPLETED,
            executed=store.final_executed,
            exit_value=store.exit_value,
            outputs=outputs,
            fault=None,
            fault_kind=None,
            statistics=summarise_counts(decoded, exec_counts),
            exec_counts=exec_counts,
            injection=plan,
            memory=machine.memory,
            program=machine.program,
        )

    return RunResult(
        outcome=outcome,
        executed=executed,
        exit_value=machine.int_regs[RV] if outcome == Outcome.COMPLETED else None,
        outputs=outputs,
        fault=str(fault) if fault is not None else None,
        fault_kind=fault.kind if fault is not None else None,
        statistics=summarise_counts(decoded, exec_counts),
        exec_counts=exec_counts,
        injection=plan,
        memory=machine.memory,
        program=machine.program,
    )
