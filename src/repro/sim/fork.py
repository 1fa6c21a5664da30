"""Checkpoint-and-fork execution engine for injected runs.

A fault-injection campaign re-executes the *same* program on the *same*
workload hundreds to thousands of times; the runs differ only in where the
soft errors land.  Everything before a run's first injection site is
bit-identical to the memoized golden run, and a fully-masked fault makes the
*suffix* bit-identical too.  This module makes injected runs cost
O(divergence) instead of O(program length):

* :func:`build_checkpoint_store` executes the golden run once per
  workload seed and snapshots machine state (registers, memory cells
  touched since the previous snapshot, program counter, execution-count
  vector) at the first unit leader past each point of an
  instruction-count grid, so the capture runs every unit whole.  Each
  checkpoint records its own dynamic index.  That execution is the
  golden run itself (:func:`golden_result`), so warming an application
  for the fork engine costs one golden execution, not two.
* :func:`run_forked` restores the nearest checkpoint at or before the
  run's first injection target, replays only the short gap with the
  resumable injection wrappers (:meth:`DecodedProgram.injection` with
  ``exposed_start``) under the unit stepper (:mod:`repro.sim.stepper`),
  and simulates forward from there.
* **Convergence early-exit**: once every planned injection has fired, the
  engine compares machine state against the golden trace at each
  checkpoint's dynamic index (registers and pc directly, memory against an
  incrementally maintained golden shadow image).  On re-convergence the
  golden suffix is spliced in — outputs, remaining execution counts, final
  memory image, exit value — and the run terminates immediately, so
  fully-masked faults cost little more than the replay gap.
* **Dead-divergence fast-forward**: when everything but some memory cells
  matches at a checkpoint, and the golden run never reads those cells
  again before overwriting them (the capture run records each cell's
  last read-before-write interval), the rest of the run *is* the golden
  run apart from those cells.  It is not executed: the result is the
  golden suffix with the cells patched in, at the checkpoint where a full
  replay would have spliced or at the golden completion, and the store's
  counters advance exactly as a full replay would advance them.
* **Proven hangs**: a caller that reads only the run's record (outcome,
  executed count, fault kind, injected errors) passes ``record_only``.
  Once the run is past the golden length, :func:`repro.sim.hang.run_out`
  tries to prove, at a few points, that the run neither halts, faults
  nor fires another injection before its budget; when a proof holds the
  run ends at once as a hang at its budget, the record a full run would
  give.  Its counts, outputs and memory stop where the proof was made,
  so no other caller asks for it.

The comparison is *exact*, not probabilistic: a splice happens only when
registers, pc, per-channel output lengths and the full memory image are
bit-identical to the golden state at the same dynamic instruction index
(``-0.0`` is not ``0.0``, nor ``5.0`` ``5``), which (execution
being deterministic) guarantees the spliced :class:`RunResult` is
bit-identical to what a full run would have produced.  Runs that never
re-converge — crashes, hangs, persistently corrupted state — simply run to
their natural end under the exact semantics of the decoded engine,
including watchdog and fault behaviour, unless a record-only run's hang is
proven.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from itertools import compress
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..isa.registers import RV
from .decode import decode_program
from .errors import SimFault, WatchdogExpired
from .faults import InjectionPlan, ProtectionMode
from .hang import run_out
from .stepper import Stepper

#: Default number of checkpoints captured over a golden run: at most
#: ``count``, at least ``count / 2`` (see :func:`build_checkpoint_store`).
#: Finer grids shorten both the replay gap and the convergence-detection
#: latency, at the cost of capture time and snapshot memory.
DEFAULT_CHECKPOINT_COUNT = 128
#: Grid interval a capture starts from.  Each doubling of it costs
#: ``count / 2`` snapshots, so far below the final interval is waste.
FIRST_INTERVAL = 256


class _TrackingCells(dict):
    """Dict subclass that logs the capture run's memory accesses.

    The capture run swaps this in for ``Memory.cells`` *before* binding
    code, so every store — all of which go through plain item assignment —
    lands in ``touched`` (the cells written since the last checkpoint), and
    every load — all of which go through ``get`` — that reads a cell not
    yet written in the current checkpoint interval records the interval's
    first dynamic index, ``since``, in ``read_first``.
    """

    __slots__ = ("touched", "read_first", "since")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.touched = set()
        self.read_first: Dict[int, int] = {}
        self.since = 0

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self.touched.add(key)

    def get(self, key, default=None):
        if key not in self.touched:
            self.read_first[key] = self.since
        return dict.get(self, key, default)


@dataclass
class Checkpoint:
    """Machine state of the golden run at dynamic index ``executed``, a
    unit leader.

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


@dataclass
class CheckpointStore:
    """Golden-run checkpoint trace plus final artefacts for suffix splicing.

    Built once per (program, workload) by :func:`build_checkpoint_store`;
    consumed by every injected run of the campaign cell.  Checkpoint 0 is
    the run start; every later one sits at the first unit leader at or
    past a multiple of ``interval``, at the dynamic index it records, and
    the fork loop stops its own run at each of those indices.  A pickled
    golden run drops its store (``GoldenRun.__getstate__``), so a worker
    that receives its applications pickled -- a pool started by spawn or
    forkserver -- rebuilds the store on first use; a pool started by fork
    inherits the parent's warm applications, stores included.
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
    #: Address -> the index of the last checkpoint whose interval (up to
    #: the next checkpoint) holds a read of the cell before a write; a
    #: cell absent from here, or with an entry below ``k``, is never read
    #: again from checkpoint ``k`` on without first being overwritten.
    last_read: Dict[int, int]
    #: Cells the golden run writes after its last checkpoint.
    final_writes: FrozenSet[int]

    # Telemetry for benchmarks: how much work forked runs actually did.
    # None of it reaches a record.
    forked_runs: int = 0
    spliced_runs: int = 0
    #: Instructions forked runs executed; a proven hang counts only the
    #: ones it ran before its proof, not its budget.
    replayed_instructions: int = 0
    #: Record-only runs ended early by a hang proof (:mod:`repro.sim.hang`).
    proven_hangs: int = 0
    #: Always 0: kept only because the end-to-end benchmark's tracer reads
    #: it; goes away with the benchmark change that stops reading it.
    batch_retired_runs: int = 0

    _exposed_grid: Dict[ProtectionMode, List[int]] = field(default_factory=dict)

    def exposed_grid(self, mode: ProtectionMode) -> List[int]:
        """Per checkpoint, the dynamic instructions so far that ``mode``
        exposes."""
        grid = self._exposed_grid.get(mode)
        if grid is None:
            flags = decode_program(self.program).exposure(mode)
            grid = self._exposed_grid[mode] = [
                sum(compress(ckpt.exec_counts, flags))
                for ckpt in self.checkpoints]
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


def _snapshot(machine, executed: int, pc: int, exec_counts: List[int],
              delta: Dict[int, float]) -> Checkpoint:
    return Checkpoint(
        executed=executed,
        pc=pc,
        int_regs=list(machine.int_regs),
        float_regs=list(machine.float_regs),
        memory_delta=delta,
        output_lens={ch: len(values) for ch, values in machine.outputs.items()},
        exec_counts=list(exec_counts),
    )


def _coarsen(checkpoints: List[Checkpoint], interval: int,
             touched: set) -> List[Checkpoint]:
    """The checkpoints of a grid of ``interval``, from those of the grid of
    half of it.

    A checkpoint sits at the first leader stop at or past a grid point,
    so it serves every grid point after the checkpoint before it, up to
    its own position.  It stays if one of those is on the coarser grid;
    a dropped checkpoint's memory delta merges into the next one kept,
    or, after the last one kept, back into ``touched``.
    """
    kept = checkpoints[:1]
    merged: Dict[int, float] = {}
    for previous, ckpt in zip(checkpoints, checkpoints[1:]):
        if ckpt.executed // interval == previous.executed // interval:
            merged.update(ckpt.memory_delta)
            continue
        if merged:
            merged.update(ckpt.memory_delta)
            ckpt.memory_delta, merged = merged, {}
        kept.append(ckpt)
    touched.update(merged)
    return kept


def build_checkpoint_store(machine, expected=None,
                           count: int = DEFAULT_CHECKPOINT_COUNT) -> CheckpointStore:
    """Execute the golden run on ``machine``, capturing checkpoints.

    ``machine`` must be freshly constructed with the workload applied but
    not yet run.  The capture *is* the golden run (:func:`golden_result`);
    one that does not complete raises its fault, or
    :class:`WatchdogExpired`.  ``expected``, a golden result run apart from
    this capture, makes the capture check that it reproduced it exactly.

    Checkpoint 0 is the run start.  Each later one sits at the first
    unit leader the run reaches at or past a grid point, a multiple of
    the interval (:meth:`Stepper.run_to_leader`), so the capture runs
    every unit whole; a stop past several grid points serves them all.
    The golden length is not known up front, so the grid starts at
    :data:`FIRST_INTERVAL`.  Whenever more than ``count`` checkpoints
    are held, the interval doubles and the checkpoints that serve no
    point of the coarser grid are dropped (:func:`_coarsen`), until at
    most ``count`` remain.  No two neighbours are dropped together, so
    more than ``count / 2`` remain once the grid has coarsened.
    """
    from .machine import DEFAULT_MAX_INSTRUCTIONS

    decoded = decode_program(machine.program)
    budget = (DEFAULT_MAX_INSTRUCTIONS if expected is None
              else expected.executed + 1)

    tracked = _TrackingCells(machine.memory.cells)
    machine.memory.cells = tracked
    base_cells = dict(tracked)

    # Code must bind *after* the swap so stores hit the tracking dict; the
    # stepper binds lazily, so every binding happens after it.
    stepper = Stepper(decoded, machine, decoded.entry_index)

    checkpoints = [_snapshot(machine, 0, stepper.pc, stepper.exec_counts, {})]
    interval = FIRST_INTERVAL
    while True:
        stepper.run_to_leader(
            (checkpoints[-1].executed // interval + 1) * interval, budget)
        executed = stepper.executed
        if stepper.halted or executed >= budget:
            break
        delta = {address: tracked[address] for address in tracked.touched}
        tracked.touched.clear()
        tracked.since = executed
        checkpoints.append(_snapshot(machine, executed, stepper.pc,
                                     stepper.flush(), delta))
        while len(checkpoints) > count:
            interval *= 2
            checkpoints = _coarsen(checkpoints, interval, tracked.touched)
    exec_counts = stepper.flush()
    if expected is None and not stepper.halted:
        raise WatchdogExpired(executed, budget)

    final_cells = dict(tracked)
    machine.memory.cells = final_cells
    if expected is not None and (
            executed != expected.executed
            or exec_counts != expected.exec_counts
            or machine.outputs != expected.outputs
            or final_cells != expected.memory.cells):
        raise RuntimeError(
            "checkpoint capture diverged from the memoized golden run; "
            "refusing to build a fork store from inconsistent state"
        )

    positions = [ckpt.executed for ckpt in checkpoints]
    return CheckpointStore(
        program=machine.program,
        interval=interval,
        checkpoints=checkpoints,
        base_cells=base_cells,
        final_cells=final_cells,
        final_outputs=machine.outputs,
        final_exec_counts=exec_counts,
        final_executed=executed,
        exit_value=machine.int_regs[RV],
        # A read recorded at a dropped checkpoint belongs to the interval
        # of the last one kept before it; a read before a write in an
        # interval merged into a coarser one may not be one there, but
        # over-approximating only forgoes fast-forwards.
        last_read={address: bisect_right(positions, start) - 1
                   for address, start in tracked.read_first.items()},
        final_writes=frozenset(tracked.touched),
    )


def golden_result(machine, store: CheckpointStore):
    """The golden :class:`RunResult` of the capture that built ``store``
    on ``machine``, sharing the store's final state rather than copying
    it."""
    from .machine import Outcome, RunResult, summarise_counts

    counts = store.final_exec_counts
    return RunResult(
        outcome=Outcome.COMPLETED, executed=store.final_executed,
        exit_value=store.exit_value, outputs=store.final_outputs,
        fault=None, fault_kind=None,
        statistics=summarise_counts(decode_program(machine.program), counts),
        exec_counts=counts, injection=None, memory=machine.memory,
        program=machine.program)


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
               max_instructions: int, record_only: bool = False):
    """Execute an injected run by forking off the golden checkpoint trace.

    ``machine`` must be freshly constructed for the store's program; its
    memory, registers and outputs are overwritten wholesale from the store,
    so the workload does not need to be applied (and any applied state is
    discarded).  Returns a :class:`RunResult` bit-identical to
    ``machine.run(engine="decoded")`` on an identically prepared machine.

    With ``record_only`` the caller reads only what a run record holds
    (outcome, executed count, fault kind, injected errors, and the
    fidelity of a completed run), and a run past the golden length may
    end on a hang proof (:func:`repro.sim.hang.run_out`): outcome
    ``hang`` at ``executed == max_instructions`` with the events the full
    run fires, but its counts, outputs and memory stop where the proof
    was made.
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
                      exposed_start=store.exposed_grid(grid_mode)[start_index])

    # Golden shadow image: the golden memory at the checkpoint the run is
    # currently crossing, maintained incrementally from the deltas.
    shadow = dict(cells)
    epoch = start_index + 1
    n_checkpoints = len(checkpoints)

    int_regs = machine.int_regs
    float_regs = machine.float_regs

    store.forked_runs += 1
    proven = False
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
            # Stop at the next checkpoint; after the last one, run to the
            # end, or to a hang proof.
            if epoch < n_checkpoints:
                stepper.run(min(checkpoints[epoch].executed, max_instructions))
            elif record_only:
                proven = run_out(stepper, store.final_executed,
                                 max_instructions)
                if proven:
                    break
            else:
                stepper.run(max_instructions)
            if stepper.halted:
                break
            executed = stepper.executed
            if executed >= max_instructions:
                raise WatchdogExpired(executed, max_instructions)
            # At a golden checkpoint: advance the shadow image and, once
            # every injection has fired, test re-convergence against the
            # golden state.
            golden = checkpoints[epoch]
            epoch += 1
            shadow.update(golden.memory_delta)
            if (can_splice
                    and not stepper.pending
                    and stepper.pc == golden.pc
                    and int_regs == golden.int_regs
                    and float_regs == golden.float_regs
                    and {ch: len(v) for ch, v in outputs.items()}
                    == golden.output_lens
                    # ``==`` forgives -0.0 against 0.0 and 5 against
                    # 5.0: the registers must match bit for bit.
                    and all(map(_same_value, int_regs, golden.int_regs))
                    and all(map(_same_value, float_regs,
                                golden.float_regs))):
                if cells == shadow and all(
                        _same_value(value, shadow[address])
                        for address, value in cells.items()):
                    converged = golden
                    break
                diverged = {address for address, _ in
                            cells.items() ^ shadow.items()}
                if _all_dead(diverged, last_read, epoch - 1):
                    # The rest of the run is the golden run only if
                    # nothing but dead cells differs bit for bit.
                    exact = {address for address in cells.keys() | shadow.keys()
                             if not _same_value(cells.get(address, _ABSENT),
                                                shadow.get(address, _ABSENT))}
                    if _all_dead(exact, last_read, epoch - 1):
                        dead = exact
                        break
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
    adopted = converged  # the checkpoint whose golden suffix the run takes
    patch: Dict[int, object] = {}  # cells that end up off the golden image
    if dead is not None:
        # ------------------------------------------------------------------
        # Dead-divergence fast-forward.  State equals the golden state at
        # this checkpoint except for cells the golden run overwrites before
        # it reads them again, so the rest of the run is the golden run:
        # the same instructions over the same register values.  Step over
        # it without executing: to the checkpoint where the golden run has
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
    if proven:
        store.proven_hangs += 1
        outcome = Outcome.HANG
        executed = max_instructions

    if adopted is not None:
        # ------------------------------------------------------------------
        # Golden-suffix splice.  State equals the golden state at this
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
