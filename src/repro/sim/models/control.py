"""The paper's fault model: a single bit flip in an exposed result.

Site set: dynamic occurrences of instructions exposed under the run's
protection mode — under ``PROTECTED`` only instructions the static
analysis tagged low-reliability (not influencing control), under
``UNPROTECTED`` every result-producing instruction.  Corruption: one
uniformly chosen bit of the result word (32-bit two's complement for
integer results, 64-bit IEEE-754 for float results) is flipped before
writeback.

This is the default model and the one all of the paper's tables and
figures use; its behaviour is bit-identical to the pre-model codebase
(its corruptor makes the same bit draws the original writeback did, and
the decode layer's one injection wrapper calls it).
"""

from __future__ import annotations

from typing import List, Optional

from ...isa.encoding import FLOAT_BITS, INT_BITS, flip_float_bit, flip_int_bit
from ..faults import ProtectionMode
from .base import Corruptor, FaultModel


class ControlBitModel(FaultModel):
    """Single-bit result flips in mode-exposed instructions (the paper)."""

    name = "control-bit"
    kind = "result"
    supports_fork = True
    summary = ("single bit flip in the result of a mode-exposed instruction "
               "(the paper's model; default)")

    def population(self, golden, mode: ProtectionMode) -> int:
        """Exposed dynamic instructions observed in the golden run."""
        return golden.exposed_count(mode)

    def exposure(self, decoded, mode: ProtectionMode) -> List[bool]:
        """The decode cache's per-mode exposure bit-vector."""
        return decoded.exposure(mode)

    def fork_grid_mode(self, mode: ProtectionMode) -> Optional[ProtectionMode]:
        """The site stream *is* the mode's exposed stream."""
        return mode

    def make_corruptor(self, op, spec, machine, is_float: bool,
                       plan) -> Corruptor:
        """Flip one uniformly drawn bit of the result."""
        choose_bit = plan.choose_bit
        if is_float:
            def corrupt(result):
                bit = choose_bit(FLOAT_BITS)
                return flip_float_bit(result, bit), bit, None
        else:
            def corrupt(result):
                bit = choose_bit(INT_BITS)
                return flip_int_bit(result, bit), bit, None
        return corrupt
