"""Vectorized lockstep batch engine: N injected runs of one cell at once.

The campaign grids run thousands of injections of the *same program* per
cell; the runs differ only in their injection plans.  This engine exploits
that: instead of simulating each run separately, it walks the golden
instruction trace **once** and carries every run in the batch as one lane
of numpy taint vectors layered over the shared golden state.

How it works
------------

* One scalar *golden* machine state (register files, memory dict, output
  lengths) is restored from the checkpoint nearest the batch's earliest
  injection site (reusing the fork engine's :class:`CheckpointStore`) and
  advanced along the golden path by per-instruction handlers.  Most are
  generated from the same :mod:`semantics table <repro.sim.semantics>`
  as the decoded engine's, so the golden step is that engine's scalar
  expression; memory access, ``JR`` and output stay hand-written here.

* Divergence from golden is tracked per architectural location as a
  *taint column*: ``None`` means "all lanes hold the golden value", an
  ``(n_lanes,)`` numpy array holds per-lane values otherwise.  Handlers
  propagate taint with each opcode's table-given numpy form, which is
  bit-exact against the scalar one, and with per-lane Python scalars in
  the hand-written memory handlers.

* Injections fire exactly like the decoded engine's exposed wrappers: a
  merged schedule of ``(exposed_dynamic_index, lane)`` pairs drives a
  generic fire path that computes the lane's original result through the
  model's own :data:`COMPUTE_MAKERS` closure against a per-lane shim
  machine, corrupts it with the model's corruptor, and overwrites that
  lane's column.  RNG draws come from a **private** per-lane generator
  seeded from the plan's state, and events are buffered privately, so a
  plan is only mutated when its lane survives the walk — a retired lane's
  plan is handed to the fork engine untouched.

* Loads and stores through a *diverged address register* stay in
  lockstep: the affected lanes are handled with per-lane scalar reads and
  writes against the taint overlay (a ``ghost`` presence mask tracks
  cells that exist for some lanes but not for the golden image, so the
  final memory image stays exact).  Only behaviour the walk genuinely
  cannot carry — a branch or indirect jump whose lane-local
  condition/target differs from golden, a division whose lane-local
  divisor is zero, an access through an invalid lane address, a load
  whose converted value cannot live in an int32 vector — *retires* the
  lane.  Retired lanes re-execute individually via
  :func:`repro.sim.fork.run_forked`, which is already proven
  bit-identical to the decoded engine.

* Lanes that survive to the golden ``HALT`` followed the golden control
  path exactly, so their dynamic counts, watchdog behaviour and output
  *positions* equal the golden run's; their results are synthesised from
  the checkpoint store's final artefacts overlaid with the lane's taint
  columns.

The contract is the same as the fork engine's: every
:class:`~repro.sim.machine.RunResult` — outcome, counts, outputs, memory
image, events, fault messages — is bit-identical to running the same plan
from scratch on the decoded engine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa import Opcode
from ..isa.registers import RV
from .decode import COMPUTE_MAKERS, FLOAT_RESULT_OPS, decode_program
from .errors import SimFault
from .faults import InjectionEvent, InjectionPlan
from .fork import CheckpointStore, run_forked
from .memory import Memory
from .semantics import lockstep_makers

_I64 = np.int64
_F64 = np.float64
_EMPTY_SKIP: frozenset = frozenset()


class _AllRetired(Exception):
    """Internal signal: every lane has retired, abandon the golden walk."""


class _LaneCells:
    """Lane view of memory: golden cells overlaid with the lane's taint."""

    __slots__ = ("_cells", "_taint", "_lane")

    def __init__(self, cells, taint, lane):
        self._cells = cells
        self._taint = taint
        self._lane = lane

    def get(self, address, default=0):
        column = self._taint.get(address)
        if column is not None:
            return column[self._lane].item()
        return self._cells.get(address, default)


class _ShimMemory:
    __slots__ = ("cells",)

    def __init__(self, cells):
        self.cells = cells


class _ShimMachine:
    """Lane-effective scalar state for model corruptors and compute closures."""

    __slots__ = ("int_regs", "float_regs", "memory", "program")

    def __init__(self, int_regs, float_regs, cells, program):
        self.int_regs = int_regs
        self.float_regs = float_regs
        self.memory = _ShimMemory(cells)
        self.program = program


class _PlanProxy:
    """Exposes the plan RNG surface backed by a lane's private generator."""

    __slots__ = ("rng",)

    def __init__(self, rng):
        self.rng = rng

    def choose_bit(self, width: int) -> int:
        return self.rng.randrange(width)


class _Lockstep:
    """Shared mutable state of one lockstep walk.

    Handlers are closures built by :data:`BATCH_MAKERS`; they alias the
    containers here as locals, so the instance mostly exists to pass one
    object around during construction and to host the rare-path methods
    (retirement, fires).
    """

    def __init__(self, program, plans, store, grid_mode, model):
        self.program = program
        self.plans = plans
        self.store = store
        self.model = model
        n = len(plans)
        self.n_lanes = n

        first = min(plan.targets[0] for plan in plans)
        index = store.select(first, grid_mode, store.final_executed + 1)
        start = store.checkpoints[index]
        cells = dict(store.base_cells)
        for ckpt in store.checkpoints[1:index + 1]:
            cells.update(ckpt.memory_delta)

        # Golden scalar state.
        self.ir: List[int] = list(start.int_regs)
        self.fr: List[float] = list(start.float_regs)
        self.cells: Dict[int, float] = cells
        self.out_lens: Dict[int, int] = dict(start.output_lens)
        self.start_pc = start.pc

        # Taint columns: None = column holds golden everywhere.
        nints = len(self.ir)
        nflts = len(self.fr)
        self.int_taint: List[Optional[np.ndarray]] = [None] * nints
        self.flt_taint: List[Optional[np.ndarray]] = [None] * nflts
        self.mem_taint: Dict[int, np.ndarray] = {}
        self.out_taint: Dict[Tuple[int, int], np.ndarray] = {}
        # Presence masks for addresses whose *existence* differs per lane: a
        # diverged-address store can create a cell the golden run never
        # touches.  ``ghost[address][lane]`` is True when the cell exists in
        # that lane's memory image; addresses absent from the dict exist
        # uniformly (wherever ``cells``/``mem_taint`` say).  Loads need no
        # special casing — a missing cell reads as 0 in the decoded engine,
        # and the value columns hold 0 for absent lanes — but the final
        # image synthesis must drop cells a surviving lane never had.
        self.ghost: Dict[int, np.ndarray] = {}

        # Lane bookkeeping.
        self.live = np.ones(n, dtype=bool)
        self.live_idx_box = [np.arange(n)]
        self.retired: List[int] = []
        self.fire_skip: frozenset = _EMPTY_SKIP
        self.lane_events: List[List[InjectionEvent]] = [[] for _ in range(n)]
        self.lane_rngs: List[random.Random] = []
        for plan in plans:
            rng = random.Random()
            rng.setstate(plan.rng.getstate())
            self.lane_rngs.append(rng)

        # Merged fire schedule over exposed-dynamic indices.
        pairs = sorted(
            (target, lane)
            for lane, plan in enumerate(plans)
            for target in plan.targets
        )
        self.sched_t = [pair[0] for pair in pairs]
        self.sched_l = [pair[1] for pair in pairs]
        self.sched_pos = 0
        self.ec_box = [start.exposed_count(grid_mode)]
        self.next_fire_box = [self.sched_t[0] if self.sched_t else -1]

    # ------------------------------------------------------------------
    # Retirement.
    # ------------------------------------------------------------------
    def retire_lane(self, lane: int) -> None:
        """Unconditionally drop one lane to the scalar fork path."""
        if not self.live[lane]:
            return
        self.live[lane] = False
        self.retired.append(lane)
        live_idx = np.nonzero(self.live)[0]
        self.live_idx_box[0] = live_idx
        if live_idx.size == 0:
            raise _AllRetired

    def retire_lanes(self, lanes) -> None:
        """Retire live lanes, honouring the current fire-skip set."""
        skip = self.fire_skip
        live = self.live
        dropped = False
        for lane in lanes:
            if live[lane] and lane not in skip:
                live[lane] = False
                self.retired.append(lane)
                dropped = True
        if dropped:
            live_idx = np.nonzero(live)[0]
            self.live_idx_box[0] = live_idx
            if live_idx.size == 0:
                raise _AllRetired

    def retire_mask(self, mask) -> None:
        bad = np.nonzero(mask & self.live)[0]
        if bad.size:
            self.retire_lanes(bad.tolist())

    # ------------------------------------------------------------------
    # Taint writeback with opportunistic healing.
    # ------------------------------------------------------------------
    def set_int_taint(self, d: int, column, golden: int) -> None:
        if bool((column[self.live_idx_box[0]] == golden).all()):
            self.int_taint[d] = None
        else:
            self.int_taint[d] = column

    def set_flt_taint(self, d: int, column, golden: float) -> None:
        if bool((column[self.live_idx_box[0]] == golden).all()):
            self.flt_taint[d] = None
        else:
            self.flt_taint[d] = column

    # ------------------------------------------------------------------
    # Diverged-address stores.
    # ------------------------------------------------------------------
    def mixed_store(self, address: int, value, tb, pairs) -> None:
        """Store through an address register that differs across lanes.

        ``address``/``value`` are the golden effective address and stored
        value, ``tb`` the stored-value taint column (or None), ``pairs``
        the live diverged lanes as ``(lane, lane_address)`` — every other
        live lane stores to the golden address.  Diverged lanes keep their
        previous value (and previous presence) at the golden address and
        write their own value to their own address; an invalid lane
        address retires the lane (the decoded engine crashes there).

        Columns are copied before mutation — mem/register taint columns
        may alias each other and are immutable by convention.
        """
        cells = self.cells
        mem_taint = self.mem_taint
        ghost = self.ghost
        n = self.n_lanes

        # 1. Golden-address column: pin the diverged lanes' previous view.
        old_col = mem_taint.get(address)
        old_ghost = ghost.get(address)
        golden_absent = address not in cells
        old_value = cells.get(address, 0)
        pins = [
            (lane, old_col[lane].item() if old_col is not None else old_value)
            for lane, _ in pairs
        ]
        need_float = isinstance(value, float) or any(
            isinstance(prev, float) for _, prev in pins)
        if tb is None:
            newcol = np.full(n, value, _F64 if need_float else _I64)
        elif need_float and tb.dtype != _F64:
            newcol = tb.astype(_F64)
        else:
            newcol = tb.copy()
        for lane, prev in pins:
            newcol[lane] = prev
        mem_taint[address] = newcol
        if golden_absent or old_ghost is not None:
            newghost = np.ones(n, dtype=bool)
            for lane, _ in pairs:
                newghost[lane] = (bool(old_ghost[lane])
                                  if old_ghost is not None
                                  else not golden_absent)
            if bool(newghost.all()):
                ghost.pop(address, None)
            else:
                ghost[address] = newghost
        cells[address] = value

        # 2. Each diverged lane's own store.
        for lane, lane_address in pairs:
            if lane_address < -2147483648 or lane_address >= 2147483648:
                self.retire_lane(lane)
                continue
            stored = tb[lane].item() if tb is not None else value
            lcol = mem_taint.get(lane_address)
            lghost = ghost.get(lane_address)
            if lcol is None:
                base_val = cells.get(lane_address, 0)
                dtype = (_F64 if isinstance(base_val, float)
                         or isinstance(stored, float) else _I64)
                lcol = np.full(n, base_val, dtype)
                if lane_address not in cells:
                    lghost = np.zeros(n, dtype=bool)
            else:
                lcol = (lcol.astype(_F64)
                        if isinstance(stored, float) and lcol.dtype != _F64
                        else lcol.copy())
                if lghost is not None:
                    lghost = lghost.copy()
            lcol[lane] = stored
            mem_taint[lane_address] = lcol
            if lghost is not None:
                lghost[lane] = True
                if bool(lghost.all()):
                    ghost.pop(lane_address, None)
                else:
                    ghost[lane_address] = lghost

    # ------------------------------------------------------------------
    # The rare fire path.
    # ------------------------------------------------------------------
    def _shim(self, lane: int) -> _ShimMachine:
        it = self.int_taint
        ft = self.flt_taint
        ints = [
            it[r][lane].item() if it[r] is not None else value
            for r, value in enumerate(self.ir)
        ]
        flts = [
            ft[r][lane].item() if ft[r] is not None else value
            for r, value in enumerate(self.fr)
        ]
        return _ShimMachine(ints, flts,
                            _LaneCells(self.cells, self.mem_taint, lane),
                            self.program)

    def fire(self, base, op, spec, index, opname, is_float):
        """Handle every lane whose next target is this exposed occurrence.

        Mirrors the decoded engine's exposed wrappers: the lane's original
        result is computed from pre-instruction state through the same
        ``COMPUTE_MAKERS`` closure (faults there crash the decoded run, so
        they retire the lane here), the model corruptor draws from the
        lane's private RNG, and the corrupted value replaces the lane's
        result column after the golden handler ran.
        """
        my_ec = self.ec_box[0]
        self.ec_box[0] = my_ec + 1
        sched_t = self.sched_t
        sched_l = self.sched_l
        pos = self.sched_pos
        lanes = []
        while pos < len(sched_t) and sched_t[pos] == my_ec:
            if self.live[sched_l[pos]]:
                lanes.append(sched_l[pos])
            pos += 1
        self.sched_pos = pos
        self.next_fire_box[0] = sched_t[pos] if pos < len(sched_t) else -1

        d = spec[1]
        consumes = self.model.consumes_result
        prepared = []
        pending = []
        for lane in lanes:
            shim = self._shim(lane)
            proxy = _PlanProxy(self.lane_rngs[lane])
            try:
                original = (COMPUTE_MAKERS[op](spec, shim)()
                            if consumes else None)
                corruptor = self.model.make_corruptor(op, spec, shim,
                                                      is_float, proxy)
                corrupted, bit, detail = corruptor(original)
            except (SimFault, OverflowError, ValueError):
                # The decoded engine crashes at this occurrence; the forked
                # re-run reproduces the crash exactly.
                pending.append(lane)
                continue
            prepared.append((lane, corrupted))
            self.lane_events[lane].append(InjectionEvent(
                dynamic_index=my_ec, static_index=index, opcode=opname,
                bit=bit, original=original, corrupted=corrupted,
                detail=detail))
        for lane in pending:
            self.retire_lane(lane)

        if not prepared:
            return base()
        self.fire_skip = frozenset(lane for lane, _ in prepared)
        try:
            ret = base()
        finally:
            self.fire_skip = _EMPTY_SKIP
        n = self.n_lanes
        if is_float:
            if d >= 0:
                column = self.flt_taint[d]
                column = (np.full(n, self.fr[d], _F64)
                          if column is None else column.copy())
                for lane, corrupted in prepared:
                    column[lane] = corrupted
                self.flt_taint[d] = column
        elif d > 0:
            column = self.int_taint[d]
            column = (np.full(n, self.ir[d], _I64)
                      if column is None else column.copy())
            for lane, corrupted in prepared:
                column[lane] = corrupted
            self.int_taint[d] = column
        return ret


# ----------------------------------------------------------------------
# Hand-written handler makers: memory access, JR and output.  Spec
# layout: (index, rd, rs1, rs2, imm, target, next_pc).
# ----------------------------------------------------------------------

_INT32_MIN = -2147483648
_INT32_MAX = 2147483647


def _bm_lw(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    it = ls.int_taint
    cells = ls.cells
    mem_taint = ls.mem_taint
    set_taint = ls.set_int_taint
    nlanes = ls.n_lanes
    def h():
        ta = it[a]
        address = ir[a] + imm
        value = cells.get(address, 0)
        golden = value if isinstance(value, int) else int(value)
        column = mem_taint.get(address)
        if ta is None:
            if column is None:
                if d > 0:
                    ir[d] = golden
                    it[d] = None
                return n
            if column.dtype == _I64:
                # Stored ints are already wrapped to int32: alias directly.
                if d > 0:
                    ir[d] = golden
                    set_taint(d, column, golden)
                return n
        # Slow path: a diverged address register (per-lane addresses) and/or
        # a float column that needs the decoded engine's exact per-lane int
        # conversion.  NaN/inf conversions crash the decoded run (retire);
        # finite results outside the int32 vector range cannot ride in
        # lockstep either (retire, unless the lane is about to be
        # overwritten by a fire).
        div = None if ta is None else ta != ir[a]
        if column is not None and column.dtype == _I64:
            out = column.copy()
            float_column = None
        else:
            out = np.full(nlanes, golden, _I64)
            float_column = column
        if float_column is not None:
            scan = ls.live_idx_box[0].tolist()
        elif div is not None:
            scan = np.nonzero(div & ls.live)[0].tolist()
        else:
            scan = ()
        skip = ls.fire_skip
        bad = []
        for lane in scan:
            if lane in skip:
                continue
            if div is not None and div[lane]:
                lane_address = ta[lane].item() + imm
                if lane_address < -2147483648 or lane_address >= 2147483648:
                    bad.append(lane)
                    continue
                lcol = mem_taint.get(lane_address)
                cell = (lcol[lane].item() if lcol is not None
                        else cells.get(lane_address, 0))
            elif float_column is not None:
                cell = float_column[lane].item()
            else:
                continue  # golden address, int column: value already in out
            if isinstance(cell, int):
                converted = cell
            else:
                try:
                    converted = int(cell)
                except (ValueError, OverflowError):
                    bad.append(lane)
                    continue
            if converted < _INT32_MIN or converted > _INT32_MAX:
                if d > 0:
                    bad.append(lane)
                    continue
                converted = golden  # no destination: conversion checked only
            out[lane] = converted
        if bad:
            ls.retire_lanes(bad)
        if d > 0:
            ir[d] = golden
            set_taint(d, out, golden)
        return n
    return h


def _bm_flw(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    fr = ls.fr
    it = ls.int_taint
    ft = ls.flt_taint
    cells = ls.cells
    mem_taint = ls.mem_taint
    set_taint = ls.set_flt_taint
    def h():
        ta = it[a]
        address = ir[a] + imm
        golden = float(cells.get(address, 0))
        column = mem_taint.get(address)
        if ta is None:
            if d < 0:
                return n
            if column is None:
                fr[d] = golden
                ft[d] = None
                return n
            out = column if column.dtype == _F64 else column.astype(_F64)
            fr[d] = golden
            set_taint(d, out, golden)
            return n
        # Diverged address register: per-lane scalar loads for the diverged
        # lanes (float() of an int or float cell never faults; only an
        # invalid lane address retires — the decoded engine crashes there).
        if column is None:
            out = np.full(ls.n_lanes, golden, _F64)
        else:
            out = column.copy() if column.dtype == _F64 else column.astype(_F64)
        skip = ls.fire_skip
        bad = []
        for lane in np.nonzero((ta != ir[a]) & ls.live)[0].tolist():
            if lane in skip:
                continue
            lane_address = ta[lane].item() + imm
            if lane_address < -2147483648 or lane_address >= 2147483648:
                bad.append(lane)
                continue
            lcol = mem_taint.get(lane_address)
            cell = (lcol[lane].item() if lcol is not None
                    else cells.get(lane_address, 0))
            out[lane] = float(cell)
        if bad:
            ls.retire_lanes(bad)
        if d >= 0:
            fr[d] = golden
            set_taint(d, out, golden)
        return n
    return h


def _bm_sw(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    it = ls.int_taint
    cells = ls.cells
    mem_taint = ls.mem_taint
    ghost = ls.ghost
    live_idx_box = ls.live_idx_box
    def h():
        ta = it[a]
        address = ir[a] + imm
        value = ir[b]
        tb = it[b]
        if ta is not None:
            lanes = np.nonzero((ta != ir[a]) & ls.live)[0]
            if lanes.size:
                ls.mixed_store(address, value, tb,
                               [(lane, ta[lane].item() + imm)
                                for lane in lanes.tolist()])
                return n
        cells[address] = value
        if ghost:
            ghost.pop(address, None)
        if tb is None:
            mem_taint.pop(address, None)
        elif bool((tb[live_idx_box[0]] == value).all()):
            mem_taint.pop(address, None)
        else:
            mem_taint[address] = tb
        return n
    return h


def _bm_fsw(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    fr = ls.fr
    it = ls.int_taint
    ft = ls.flt_taint
    cells = ls.cells
    mem_taint = ls.mem_taint
    ghost = ls.ghost
    live_idx_box = ls.live_idx_box
    def h():
        ta = it[a]
        address = ir[a] + imm
        value = fr[b]
        tb = ft[b]
        if ta is not None:
            lanes = np.nonzero((ta != ir[a]) & ls.live)[0]
            if lanes.size:
                ls.mixed_store(address, value, tb,
                               [(lane, ta[lane].item() + imm)
                                for lane in lanes.tolist()])
                return n
        cells[address] = value
        if ghost:
            ghost.pop(address, None)
        if tb is None:
            mem_taint.pop(address, None)
        elif bool((tb[live_idx_box[0]] == value).all()):
            mem_taint.pop(address, None)
        else:
            mem_taint[address] = tb
        return n
    return h


def _bm_jr(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    it = ls.int_taint
    def h():
        ta = it[a]
        golden = ir[a]
        if ta is not None:
            diverged = ta != golden
            if diverged.any():
                ls.retire_mask(diverged)
        return golden
    return h


def _bm_out(spec, ls):
    i, d, a, b, imm, t, n = spec
    ir = ls.ir
    it = ls.int_taint
    out_lens = ls.out_lens
    out_taint = ls.out_taint
    live_idx_box = ls.live_idx_box
    def h():
        position = out_lens.get(imm, 0)
        out_lens[imm] = position + 1
        ta = it[a]
        if ta is not None:
            if not bool((ta[live_idx_box[0]] == ir[a]).all()):
                out_taint[(imm, position)] = ta
        return n
    return h


def _bm_fout(spec, ls):
    i, d, a, b, imm, t, n = spec
    fr = ls.fr
    ft = ls.flt_taint
    out_lens = ls.out_lens
    out_taint = ls.out_taint
    live_idx_box = ls.live_idx_box
    def h():
        position = out_lens.get(imm, 0)
        out_lens[imm] = position + 1
        ta = ft[a]
        if ta is not None:
            if not bool((ta[live_idx_box[0]] == fr[a]).all()):
                out_taint[(imm, position)] = ta
        return n
    return h


#: Handlers that need lane addresses, the ghost mask, output positions or
#: per-lane jump targets stay hand-written; every other opcode's lockstep
#: handler is generated from the semantics table.
_HAND_WRITTEN = {
    Opcode.LW: _bm_lw, Opcode.FLW: _bm_flw, Opcode.SW: _bm_sw,
    Opcode.FSW: _bm_fsw, Opcode.JR: _bm_jr, Opcode.OUT: _bm_out,
    Opcode.FOUT: _bm_fout,
}
BATCH_MAKERS = {**lockstep_makers(exclude=_HAND_WRITTEN), **_HAND_WRITTEN}



def _wrap_fire(base, op, spec, index, opname, is_float, ls):
    """Exposed-occurrence wrapper: count the stream, fire on schedule."""
    ec_box = ls.ec_box
    next_fire_box = ls.next_fire_box
    def h():
        if ec_box[0] != next_fire_box[0]:
            ec_box[0] += 1
            return base()
        return ls.fire(base, op, spec, index, opname, is_float)
    return h


def run_batched(machine, plans: List[InjectionPlan], store: CheckpointStore,
                max_instructions: int):
    """Execute every plan in ``plans`` against one shared golden walk.

    Returns one :class:`~repro.sim.machine.RunResult` per plan, in order,
    each bit-identical to running that plan alone on the decoded engine.
    ``machine`` only supplies the program (results build their own state);
    lanes the lockstep walk cannot carry re-execute individually through
    :func:`repro.sim.fork.run_forked`.
    """
    from .machine import Machine, Outcome, RunResult, summarise_counts

    program = machine.program
    if program is not store.program:
        raise ValueError("checkpoint store was built for a different program")
    if not plans:
        return []
    for plan in plans:
        if not plan.targets:
            raise ValueError("engine='batch' requires plans with targets")
        if not plan.fork_compatible:
            raise ValueError(
                f"fault model {plan.model!r} cannot run under engine='batch'")
    mode = plans[0].mode
    model = plans[0].model_impl
    if any(plan.mode is not mode or plan.model != plans[0].model
           for plan in plans):
        raise ValueError("a batch must share one protection mode and model")
    grid_mode = model.fork_grid_mode(mode)

    def all_forked():
        results = []
        for plan in plans:
            lane_machine = Machine(program)
            results.append(run_forked(lane_machine, plan, store,
                                      max_instructions))
        return results

    decoded = decode_program(program)
    if (grid_mode is None
            or store.final_executed > max_instructions
            or any(op not in BATCH_MAKERS for op in decoded.ops)):
        # The golden run itself overruns the budget (every lane hangs at
        # the same point), or the program uses an op the lockstep walk
        # does not carry: the scalar fork path handles each lane exactly.
        return all_forked()

    ls = _Lockstep(program, plans, store, grid_mode, model)
    flags = model.exposure(decoded, mode)
    specs = decoded.specs
    opnames = decoded.opnames
    handlers = []
    for index, op in enumerate(decoded.ops):
        handler = BATCH_MAKERS[op](specs[index], ls)
        if flags[index]:
            handler = _wrap_fire(handler, op, specs[index], index,
                                 opnames[index], op in FLOAT_RESULT_OPS, ls)
        handlers.append(handler)

    pc = ls.start_pc
    text_len = decoded.text_len
    try:
        with np.errstate(all="ignore"):
            while pc != text_len:
                pc = handlers[pc]()
    except _AllRetired:
        pass

    results: List[Optional[object]] = [None] * len(plans)

    # Retired lanes: their plans are untouched (events buffered privately,
    # RNG never advanced), so the fork engine replays them from scratch.
    store.batch_retired_runs += len(ls.retired)
    for lane in ls.retired:
        lane_machine = Machine(program)
        results[lane] = run_forked(lane_machine, plans[lane], store,
                                   max_instructions)

    survivors = np.nonzero(ls.live)[0].tolist()
    if survivors:
        final_counts = store.final_exec_counts
        int_taint = ls.int_taint
        for lane in survivors:
            plan = plans[lane]
            for event in ls.lane_events[lane]:
                plan.record(event)
            plan.rng.setstate(ls.lane_rngs[lane].getstate())

            outputs = {channel: list(values)
                       for channel, values in store.final_outputs.items()}
            for (channel, position), column in ls.out_taint.items():
                outputs[channel][position] = column[lane].item()

            memory = Memory(program.memory_cells)
            cells = dict(store.final_cells)
            for address, column in ls.mem_taint.items():
                cells[address] = column[lane].item()
            for address, present in ls.ghost.items():
                if not present[lane]:
                    cells.pop(address, None)
            memory.cells = cells

            rv_taint = int_taint[RV]
            exit_value = (rv_taint[lane].item() if rv_taint is not None
                          else store.exit_value)
            exec_counts = list(final_counts)
            results[lane] = RunResult(
                outcome=Outcome.COMPLETED,
                executed=store.final_executed,
                exit_value=exit_value,
                outputs=outputs,
                fault=None,
                fault_kind=None,
                statistics=summarise_counts(decoded, exec_counts),
                exec_counts=exec_counts,
                injection=plan,
                memory=memory,
                program=program,
            )
        store.forked_runs += len(survivors)
        store.spliced_runs += len(survivors)
    return results
