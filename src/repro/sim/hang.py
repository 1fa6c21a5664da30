"""Proving that a forked run hangs, instead of simulating it to its budget.

A run that does not finish within its watchdog budget (8 golden lengths,
:data:`repro.core.app.WATCHDOG_FACTOR`) is a hang, the paper's "infinite
execution".  Simulating a hang to its budget is most of its cost, and
most hangs spin in one loop whose exit test reads only registers that
change by a constant step per iteration: a counted loop whose induction
register a flip sent far past its bound, or a loop that repeats the same
state.  For a run whose caller needs only its record, :func:`run_out`
stops at a few points past the golden length and tries to prove that
the run neither halts nor faults before its budget; when the proof holds
the run is a hang, and nothing after the proof is simulated.

A try (:func:`_try`) steps the run leader by leader, at most
:data:`MAX_STOPS` stops, until the path of stops repeats one period
twice: the period is one iteration of the loop, of ``length`` dynamic
instructions, and the state at the current stop (the *header*) is
iteration 0.  An iteration is then run abstractly (:class:`_Proof`) over
every iteration ``k`` of the ``K = ceil((budget - executed) / length)``
the budget leaves, with these values:

* an int ``(base, step)``: exactly ``base + step * k`` at iteration
  ``k`` (a constant when ``step`` is 0).  A header register starts as
  its value now, stepping by its change over the observed iteration;
* :data:`TOP_B`, any int32 (a wrapping ALU result whose operands are
  not all known), and :data:`TOP_U`, any int (an ``LW`` result:
  ``int()`` of a stored float can be any size);
* a float constant, or :data:`TOP_F`, any float.

Stores at constant addresses are forwarded to later loads at the same
address within the iteration, so a call in the loop (``$31`` spilled,
read back, ``jr``) resolves.  The proof holds when, for every ``k < K``:

* every branch and ``JR`` goes where it goes at ``k = 0``, and the
  iteration returns to the header after ``length`` instructions;
* no row can raise a fault: the opcodes that can are read from
  :data:`~repro.sim.semantics.SEMANTICS` (a ``guard`` or ``strict``),
  and each has a rule here that rules the fault out (divisors bounded
  and never 0, addresses within the word-address space, a ``JR``
  target constant, no ``CVTIF`` or ``DIV`` of an unbounded int), plus the
  conversions of ``LW`` (no load of a non-finite float) and ``FLW`` (no
  load of an int too wide for a float);
* every affine value stays inside int32 where the ALU would wrap it;
* each header register ends the iteration at its own affine successor,
  or the header holds it as a top value that covers where it ends.  A
  register that does not is widened to a top value and the iteration
  is run again, so the header state is an inductive invariant.

A top value that reaches a branch, a ``JR`` target, an address or a
divisor refuses the proof, as does an opcode with no rule that can
fault.  So does a row where a target of the plan that is still pending
could fire: a pending target leaves the proof only loops that execute
no exposed row, such as a ``jr $31`` whose flipped ``$31`` points at
itself, where no target can fire again.  Everything not shown is
refused: a refused run simply runs on.
"""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace
from typing import Dict, List, Tuple

from ..isa import Opcode
from .semantics import (COMPUTE_MAKERS, FAST_MAKERS, FLOAT, INT, SEMANTICS,
                        WRAPPED_OPS)
from .stepper import _FAULTS

#: Golden lengths past which a record-only run tries a proof; a try at or
#: past the budget is not made.
TRY_AT = (1, 2, 4)
#: Most leader stops a try steps while looking for the loop's period.
MAX_STOPS = 256
#: Longest iteration, in dynamic instructions, a try runs abstractly.
MAX_LENGTH = 4096

#: Top values: any int32, any int, any float.
TOP_B = "top-int32"
TOP_U = "top-int"
TOP_F = "top-float"

_INT32_MIN = -(1 << 31)
_INT32_END = 1 << 31
_FLOAT_MAX = 1.7976931348623157e308
_DOUBLE = struct.Struct("<d")

_O = Opcode

#: Opcodes whose evaluation can raise, by the semantics table.
_MAY_FAULT = frozenset(op for op, row in SEMANTICS.items()
                       if row.guard is not None or row.strict)
#: Opcodes whose int result is a 0/1 comparison of int operands.
_INT_COMPARES = frozenset(op for op, row in SEMANTICS.items()
                          if row.result and row.result.startswith("1 if ")
                          and "fr[" not in row.code)
#: Register operands each opcode reads: ``(file, spec field)`` pairs.
_SOURCES = {op: [(INT if operand.startswith("ir") else FLOAT,
                  2 if operand[3] == "a" else 3)
                 for operand in row.sources]
            for op, row in SEMANTICS.items()}

Value = object  # (base, step) | TOP_B | TOP_U for ints; float | TOP_F


class _Refused(Exception):
    """The proof does not hold; the message says where it broke."""


class _Exits(_Refused):
    """The loop may leave its path within the budget: from any header on
    its cycle, not only from the one tried."""


def run_out(stepper, golden_length: int, budget: int) -> bool:
    """Run ``stepper`` to its end: until it halts, faults or reaches
    ``budget``, or until a try proves it would reach ``budget``.

    Returns whether a proof ended the run early.  Tries are made at the
    :data:`TRY_AT` multiples of ``golden_length`` that fall before the
    budget.
    """
    for factor in TRY_AT:
        point = golden_length * factor
        if point >= budget:
            break
        stepper.run(point)
        if stepper.halted or stepper.executed >= budget:
            return False
        if _try(stepper, budget):
            return True
    stepper.run(budget)
    return False


def _try(stepper, budget: int) -> bool:
    """Step the run leader by leader, and prove each loop whose leader
    path repeats one period twice, until a proof holds.

    Gives up after :data:`MAX_STOPS` stops, or when the run halts or
    reaches ``budget``.  The stepping is the run's own execution: a fault
    propagates.  While a target of the plan is pending, the run steps one
    instruction at a time through :meth:`Stepper.run`, which fires
    targets, and so it shows only loops of up to ``MAX_STOPS // 2``
    instructions.  A leader whose loop was refused is not a header again in
    this try, nor is any leader on the loop's path when the loop may
    exit: an inner loop that exits is refused once, and its outer loop
    is tried once its own period shows.  A later try starts afresh, from
    a state that may prove where this one did not.
    """
    machine = stepper.machine
    pcs: List[int] = []
    executed: List[int] = []
    int_regs: List[List[int]] = []
    float_regs: List[List[float]] = []
    seen: Dict[int, List[int]] = {}
    refused = set()
    for n in range(1, MAX_STOPS + 1):
        if stepper.pending:
            stepper.run(stepper.executed + 1)
        else:
            stepper.run_to_leader(stepper.executed + 1, budget)
        if stepper.halted or stepper.executed >= budget:
            return False
        pc = stepper.pc
        pcs.append(pc)
        executed.append(stepper.executed)
        int_regs.append(list(machine.int_regs))
        float_regs.append(list(machine.float_regs))
        if pc in refused:
            continue
        positions = seen.setdefault(pc, [])
        for position in reversed(positions):
            period = n - 1 - position
            if 2 * period >= n:
                break
            if pcs[n - 1 - 2 * period:n - period] == pcs[n - 1 - period:]:
                before = n - 1 - period
                steps = [now - then for now, then
                         in zip(int_regs[-1], int_regs[before])]
                try:
                    _Proof(stepper, budget, executed[-1] - executed[before]
                           ).holds(steps, float_regs[before])
                    return True
                except _Exits:
                    refused.update(pcs[before:])
                except _Refused:
                    refused.add(pc)
                break
        positions.append(n - 1)
    return False


def _same_float(a: float, b: float) -> bool:
    return _DOUBLE.pack(a) == _DOUBLE.pack(b)


def _is_int(value: Value) -> bool:
    return type(value) is tuple


class _Proof:
    """One abstract iteration of a loop, over every iteration the budget
    leaves (see the module docstring)."""

    def __init__(self, stepper, budget: int, length: int) -> None:
        if length > MAX_LENGTH:
            raise _Refused(f"an iteration of {length} instructions")
        #: With a target pending, the rows where it could fire.
        self.sites = stepper.flags if stepper.pending else None
        self.decoded = stepper.decoded
        self.machine = stepper.machine
        self.header = stepper.pc
        self.length = length
        #: The last iteration ``k`` the proof must cover.
        self.last = -(-(budget - stepper.executed) // length) - 1
        self.scratch = SimpleNamespace(
            program=self.machine.program,
            int_regs=list(self.machine.int_regs),
            float_regs=list(self.machine.float_regs),
            memory=SimpleNamespace(cells={}), outputs={})
        self._made: Dict[Tuple[int, bool], object] = {}

    # ------------------------------------------------------------------
    # The invariant.
    # ------------------------------------------------------------------
    def holds(self, steps: List[int], floats_before: List[float]) -> None:
        """Raise :class:`_Refused` unless the loop runs to the budget."""
        ints: List[Value] = [(value, step) for value, step
                             in zip(self.machine.int_regs, steps)]
        floats: List[Value] = [
            now if _same_float(now, then) else TOP_F
            for now, then in zip(self.machine.float_regs, floats_before)]
        # Each round widens a register, so the rounds end.
        while True:
            end_ints, end_floats = self._iterate(ints, floats)
            if not self._widen(ints, floats, end_ints, end_floats):
                break
        if self.sites is not None and any(map(self.sites.__getitem__,
                                              self.path)):
            # A row where a pending target can fire makes the injection
            # state part of the loop's state.
            raise _Refused("a pending target may fire in the loop")
        if self.reads_int and self.stores_nonfinite:
            raise _Refused("LW may read a non-finite float the loop stores")
        if self.reads_float and self.stores_wide:
            raise _Refused("FLW may read a wide int the loop stores")
        if self.reads_int or self.reads_float:
            # Every cell must convert: a finite float, or an int no wider
            # than a float.  ``max`` skips a NaN after the first cell, and
            # ``isnan`` sees only ints that convert once ``max`` passed.
            values = self.machine.memory.cells.values()
            if (max(map(abs, values), default=0) > _FLOAT_MAX
                    or any(map(math.isnan, values))):
                raise _Refused("memory holds a value a load cannot convert")

    def _widen(self, ints, floats, end_ints, end_floats) -> bool:
        """Widen each header register that does not end the iteration as
        its header value describes; return whether the iteration must run
        again: whether it reads one of them before writing it."""
        live = self._live_in()
        widened = False
        for r in range(1, len(ints)):
            head, end = ints[r], end_ints[r]
            if head is TOP_U:
                continue
            if head is TOP_B:
                if self._bounded(end):
                    continue
                ints[r] = TOP_U
            else:
                if end == (head[0] + head[1], head[1]):
                    continue
                ints[r] = (TOP_B if _INT32_MIN <= head[0] < _INT32_END
                           and self._bounded(end) else TOP_U)
            widened |= (INT, r) in live
        for r, (head, end) in enumerate(zip(floats, end_floats)):
            if head is TOP_F or (end is not TOP_F and _same_float(head, end)):
                continue
            floats[r] = TOP_F
            widened |= (FLOAT, r) in live
        return widened

    def _live_in(self):
        """The registers the last iteration read before writing them."""
        specs = self.decoded.specs
        ops = self.decoded.ops
        written = set()
        live = set()
        for pc in self.path:
            spec = specs[pc]
            live.update((kind, spec[field]) for kind, field
                        in _SOURCES[ops[pc]]
                        if (kind, spec[field]) not in written)
            dest = SEMANTICS[ops[pc]].dest
            if dest is not None:
                written.add((dest, spec[1]))
        return live

    def _iterate(self, ints, floats):
        """Run one iteration from the header; return the end registers."""
        ints = list(ints)
        floats = list(floats)
        self.forwarded: Dict[int, Tuple[str, Value]] = {}
        self.reads_int = self.reads_float = False
        self.stores_nonfinite = self.stores_wide = False
        decoded = self.decoded
        text_len = decoded.text_len
        ops = decoded.ops
        specs = decoded.specs
        pc = self.header
        self.path = path = []
        for _ in range(self.length):
            if pc == text_len:
                raise _Exits("the loop halts")
            path.append(pc)
            op = ops[pc]
            rule = _RULES.get(op, _Proof._row)
            pc = rule(self, pc, op, specs[pc], ints, floats)
        if pc != self.header:
            raise _Refused("the iteration does not return to the header")
        return ints, floats

    # ------------------------------------------------------------------
    # Values.
    # ------------------------------------------------------------------
    def _range(self, value: Tuple[int, int]) -> Tuple[int, int]:
        base, step = value
        end = base + step * self.last
        return (base, end) if step >= 0 else (end, base)

    def _bounded(self, value: Value) -> bool:
        """Whether ``value`` is an int32 at every iteration."""
        if value is TOP_B:
            return True
        if not _is_int(value):
            return False
        low, high = self._range(value)
        return _INT32_MIN <= low and high < _INT32_END

    def _float_safe(self, value: Value) -> bool:
        """Whether ``float()`` of ``value`` cannot overflow."""
        if value is TOP_B:
            return True
        if not _is_int(value):
            return False
        low, high = self._range(value)
        return -_FLOAT_MAX <= low and high <= _FLOAT_MAX

    def _sources(self, op, spec, ints, floats) -> List[Value]:
        return [(ints if kind == INT else floats)[spec[field]]
                for kind, field in _SOURCES[op]]

    def _concrete(self, pc: int, op, spec, ints, floats, k: int = 0,
                  branch: bool = False):
        """Evaluate row ``pc`` on its sources' values at iteration ``k``
        with the engines' own code: its result, or with ``branch`` its
        next pc.  A fault refuses the proof."""
        scratch = self.scratch
        for kind, field in _SOURCES[op]:
            index = spec[field]
            if kind == INT:
                base, step = ints[index]
                scratch.int_regs[index] = base + step * k
            else:
                scratch.float_regs[index] = floats[index]
        key = (pc, branch)
        run = self._made.get(key)
        if run is None:
            makers = FAST_MAKERS if branch else COMPUTE_MAKERS
            run = self._made[key] = makers[op](spec, scratch)
        try:
            return run()
        except _FAULTS as exc:
            raise _Refused(f"row {pc} faults: {exc}")

    def _known(self, values: List[Value]) -> bool:
        """Whether every value is a constant (tops are strings)."""
        for value in values:
            if type(value) is str or (type(value) is tuple and value[1]):
                return False
        return True

    def _decide(self, pc: int, op, spec, ints, branch: bool):
        """A comparison of affine ints that comes out the same at every
        iteration: the branch's next pc, or the 0/1 result; ``None`` when
        it does not."""
        values = self._sources(op, spec, ints, [])
        if not all(map(_is_int, values)):
            return None
        first = self._concrete(pc, op, spec, ints, [], 0, branch)
        if self.last and self._concrete(pc, op, spec, ints, [], self.last,
                                        branch) != first:
            return None
        # A linear difference that is 0 strictly inside the window flips
        # ``==`` and ``!=`` there; the endpoints catch every other change.
        right = values[1] if len(values) > 1 else (
            (spec[4], 0) if "imm" in (SEMANTICS[op].cond
                                      or SEMANTICS[op].result) else (0, 0))
        base = values[0][0] - right[0]
        step = values[0][1] - right[1]
        if step and base % step == 0 and 0 < -base // step < self.last:
            return None
        return first

    def _address(self, pc: int, spec, ints) -> Value:
        """The address of memory row ``pc``: affine, or :data:`TOP_B`
        (any int32 base with no offset, which cannot leave the address
        space)."""
        base = ints[spec[2]]
        if base is TOP_B and not spec[4]:
            return TOP_B
        if not _is_int(base):
            raise _Refused(f"row {pc} addresses through {base}")
        address = (base[0] + spec[4], base[1])
        if not self._bounded(address):
            raise _Refused(f"row {pc} leaves the address space")
        return address

    # ------------------------------------------------------------------
    # Rows.  Each returns the next pc.
    # ------------------------------------------------------------------
    def _row(self, pc: int, op, spec, ints, floats) -> int:
        """A row with no rule of its own: a branch, or a result that is
        exact when its operands are constants and affine by
        :data:`_LINEAR`, a top value otherwise."""
        row = SEMANTICS[op]
        _, d, _, _, imm, t, n = spec
        if row.cond is not None:
            nxt = self._decide(pc, op, spec, ints, branch=True)
            if nxt is None:
                raise _Exits(f"branch {pc} goes both ways")
            return nxt
        if row.next not in ("n", "t"):
            raise _Exits(f"row {pc} ends the run")
        if row.dest is not None:
            values = self._sources(op, spec, ints, floats)
            if self._known(values):
                result = self._concrete(pc, op, spec, ints, floats)
                value = (result, 0) if row.dest == INT else result
            elif op in _MAY_FAULT:
                raise _Refused(f"row {pc} may fault")
            elif row.dest == FLOAT:
                value = TOP_F
            elif op in _INT_COMPARES:
                decided = self._decide(pc, op, spec, ints, branch=False)
                value = TOP_B if decided is None else (decided, 0)
            else:
                linear = _LINEAR.get(op)
                value = (linear(values, imm) if linear is not None
                         and all(map(_is_int, values)) else None)
                if value is None or not self._bounded(value):
                    # Int32 operands give an int32: only loads (a rule of
                    # their own) widen ints that are not wrapped.
                    value = (TOP_B if op in WRAPPED_OPS or all(
                        self._bounded(source) for source, (kind, _)
                        in zip(values, _SOURCES[op]) if kind == INT)
                        else TOP_U)
            if not row.dest_absent(d):
                (ints if row.dest == INT else floats)[d] = value
        elif op in _MAY_FAULT:
            raise _Refused(f"row {pc} may fault")
        return t if row.next == "t" else n

    def _divide(self, pc: int, op, spec, ints, floats) -> int:
        dividend, divisor = self._sources(op, spec, ints, floats)
        if self._known([dividend, divisor]):
            return self._row(pc, op, spec, ints, floats)
        if not (self._bounded(dividend) and self._bounded(divisor)):
            raise _Refused(f"row {pc} divides an unbounded int")
        if divisor is TOP_B:
            raise _Refused(f"row {pc} may divide by zero")
        low, high = self._range(divisor)
        if low <= 0 <= high:
            raise _Refused(f"row {pc} may divide by zero")
        if spec[1] > 0:
            ints[spec[1]] = TOP_B
        return spec[6]

    def _convert(self, pc: int, op, spec, ints, floats) -> int:
        value = ints[spec[2]]
        if self._known([value]):
            return self._row(pc, op, spec, ints, floats)
        if not self._float_safe(value):
            raise _Refused(f"row {pc} converts an unbounded int")
        if spec[1] >= 0:
            floats[spec[1]] = TOP_F
        return spec[6]

    def _jump(self, pc: int, op, spec, ints, floats) -> int:
        target = ints[spec[2]]
        if not _is_int(target) or target[1]:
            raise _Refused(f"JR {pc} jumps through {target}")
        nxt = self._concrete(pc, op, spec, ints, floats, branch=True)
        if nxt == self.decoded.text_len:
            raise _Exits(f"JR {pc} halts")
        return nxt

    def _load(self, pc: int, op, spec, ints, floats) -> int:
        _, d, _, _, _, _, n = spec
        address = self._address(pc, spec, ints)
        entry = (self.forwarded.get(address[0])
                 if _is_int(address) and not address[1] else None)
        if op is _O.LW:
            if entry is None:
                self.reads_int = True
                value = TOP_U
            elif entry[0] == INT:
                value = entry[1]
            elif entry[1] is not TOP_F and math.isfinite(entry[1]):
                value = (int(entry[1]), 0)
            else:
                raise _Refused(f"LW {pc} may read a non-finite float")
            if d > 0:
                ints[d] = value
            return n
        if entry is None:
            self.reads_float = True
            value = TOP_F
        elif entry[0] == FLOAT:
            value = entry[1]
        elif not self._float_safe(entry[1]):
            raise _Refused(f"FLW {pc} may read a wide int")
        elif self._known([entry[1]]):
            value = float(entry[1][0])
        else:
            value = TOP_F
        if d >= 0:
            floats[d] = value
        return n

    def _store(self, pc: int, op, spec, ints, floats) -> int:
        address = self._address(pc, spec, ints)
        if op is _O.SW:
            entry = (INT, ints[spec[3]])
            self.stores_wide |= not self._float_safe(entry[1])
        else:
            entry = (FLOAT, floats[spec[3]])
            self.stores_nonfinite |= (entry[1] is TOP_F
                                      or not math.isfinite(entry[1]))
        forwarded = self.forwarded
        if address is TOP_B:
            forwarded.clear()
        elif not address[1]:
            forwarded[address[0]] = entry
        else:
            # An affine store may hit a forwarded cell at some iteration.
            base, step = address
            for cell in [cell for cell in forwarded
                         if (cell - base) % step == 0
                         and 0 <= (cell - base) // step <= self.last]:
                del forwarded[cell]
        return spec[6]


def _scaled(values, imm):
    """MUL with one constant factor."""
    (a, s), (b, t) = values
    if s and t:
        return None
    return (a * b, s * b + t * a)


def _shifted(value, amount):
    return (value[0] << amount, value[1] << amount)


#: Affine results of int rows over affine operands, before the int32
#: check (a result that leaves int32 wraps, and becomes :data:`TOP_B`);
#: ``None`` when the result is not affine.
_LINEAR = {
    _O.ADD: lambda v, imm: (v[0][0] + v[1][0], v[0][1] + v[1][1]),
    _O.SUB: lambda v, imm: (v[0][0] - v[1][0], v[0][1] - v[1][1]),
    _O.ADDI: lambda v, imm: (v[0][0] + imm, v[0][1]),
    _O.MUL: _scaled,
    _O.SLLI: lambda v, imm: _shifted(v[0], imm & 31),
    _O.SLL: lambda v, imm: (None if v[1][1]
                            else _shifted(v[0], v[1][0] & 31)),
}

#: Rows with a rule of their own; every opcode that can fault has one.
_RULES = {
    _O.DIV: _Proof._divide,
    _O.REM: _Proof._divide,
    _O.CVTIF: _Proof._convert,
    _O.JR: _Proof._jump,
    _O.LW: _Proof._load,
    _O.FLW: _Proof._load,
    _O.SW: _Proof._store,
    _O.FSW: _Proof._store,
}
