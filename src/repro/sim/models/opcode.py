"""Opcode-corruption model: the instruction computes the wrong function.

A particle strike in the instruction register or the decoder's control
signals does not perturb a result word — it makes the datapath execute a
*different operation* on the same operands.  This model keeps the
control-bit site set (dynamic occurrences of mode-exposed instructions)
but replaces the fired instruction outright: the victim operation is not
executed at the fired occurrence (``consumes_result = False`` — it was
never decoded, so neither its result nor its faults exist), and a
**substituted same-format operation** computes the written-back result
from the same source values:

* integer register-register ALU ops substitute within the side-effect-free
  integer ALU pool (``DIV``/``REM`` victims are substituted too, but are
  never chosen *as* substitutes, so opcode corruption itself cannot raise
  a division fault);
* integer register-immediate ops substitute within the immediate ALU pool;
* float arithmetic substitutes within the float binary/unary pools, and
  float comparisons within the comparison pool;
* operations with no same-format sibling (loads, ``LI``/``FLI``/``LA``,
  conversions, call linkage) take the *random word* fallback: the result's
  whole bit pattern is replaced by a uniform random word, modelling an
  operation whose output bears no relation to the intended one.

Pool membership and the substitute functions come from the pool column of
the :mod:`semantics table <repro.sim.semantics>`, so a substitute computes
exactly what the opcode computes when it executes normally.

Corruption draws one value from the plan's generator per fired event: the
substitute index (uniform over the pool minus the victim) or the random
replacement word.

Fork compatibility: same site stream as the control-bit model, so forked
runs resume from the run mode's exposed counter grid.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ...isa import Opcode
from ...isa.encoding import FLOAT_BITS, INT_BITS, bits_to_float, bits_to_int
from ..semantics import (
    FLOAT_CMP, FLOAT_RR, FLOAT_UN, INT_RI, INT_RR, SEMANTICS,
    SUBSTITUTION_POOLS,
)
from .base import Corruptor
from .control import ControlBitModel

#: The substitution pools, generated from the semantics table in table
#: order.  Deterministic order matters: the substitute draw indexes these
#: lists.  Each function maps the victim's operand values to the
#: substitute's result: ``f(rs1, rs2)``, ``f(rs1, imm)``, ``f(fs1, fs2)``
#: or ``f(fs1)``.
INT_RR_POOL = SUBSTITUTION_POOLS[INT_RR]
INT_RI_POOL = SUBSTITUTION_POOLS[INT_RI]
FLOAT_RR_POOL = SUBSTITUTION_POOLS[FLOAT_RR]
FLOAT_UN_POOL = SUBSTITUTION_POOLS[FLOAT_UN]
FLOAT_CMP_POOL = SUBSTITUTION_POOLS[FLOAT_CMP]

#: Victims routed to each pool.  A victim may sit outside its pool: ``DIV``
#: and ``REM`` substitute from the side-effect-free integer pool and
#: ``FDIV`` from the float binary pool, but are never drawn themselves.
_POOL_FOR_VICTIM: Dict[Opcode, List[Tuple[Opcode, Callable]]] = {
    op: SUBSTITUTION_POOLS[row.pool]
    for op, row in SEMANTICS.items() if row.pool is not None
}

#: Pools whose functions read two float sources.
_TWO_FLOAT_POOLS = (FLOAT_RR_POOL, FLOAT_CMP_POOL)


class OpcodeModel(ControlBitModel):
    """Same-format operation substitution (corrupted decoder/instruction)."""

    name = "opcode"
    supports_fork = True
    #: The victim operation is replaced, not post-processed: it must not
    #: execute (or fault) at a fired occurrence.
    consumes_result = False
    summary = ("the fired instruction executes a substituted same-format "
               "operation on its operands (random word when no sibling "
               "operation exists)")

    def make_corruptor(self, op, spec, machine, is_float: bool,
                       plan) -> Corruptor:
        """Recompute the result under a drawn substitute operation."""
        rng = plan.rng
        pool = _POOL_FOR_VICTIM.get(op)
        if pool is None:
            # No same-format sibling: uniform random replacement word.
            if is_float:
                def corrupt(result):
                    corrupted = bits_to_float(rng.getrandbits(FLOAT_BITS))
                    return corrupted, -1, "random-word"
            else:
                def corrupt(result):
                    corrupted = bits_to_int(rng.getrandbits(INT_BITS))
                    return corrupted, -1, "random-word"
            return corrupt

        substitutes = [(name, fn) for name, fn in pool if name is not op]
        _, _, a, b, imm, _, _ = spec
        if pool is INT_RR_POOL:
            regs = machine.int_regs

            def corrupt(result):
                name, fn = substitutes[rng.randrange(len(substitutes))]
                return fn(regs[a], regs[b]), -1, f"op={name.name}"
        elif pool is INT_RI_POOL:
            regs = machine.int_regs

            def corrupt(result):
                name, fn = substitutes[rng.randrange(len(substitutes))]
                return fn(regs[a], imm), -1, f"op={name.name}"
        elif pool in _TWO_FLOAT_POOLS:
            fregs = machine.float_regs

            def corrupt(result):
                name, fn = substitutes[rng.randrange(len(substitutes))]
                return fn(fregs[a], fregs[b]), -1, f"op={name.name}"
        else:  # FLOAT_UN_POOL
            fregs = machine.float_regs

            def corrupt(result):
                name, fn = substitutes[rng.randrange(len(substitutes))]
                return fn(fregs[a]), -1, f"op={name.name}"
        return corrupt
