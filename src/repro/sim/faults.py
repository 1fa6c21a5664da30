"""Soft-error injection model.

The paper's model (Section 4, "Error Insertion"):

* a soft error becomes visible to the application as a single bit flip in
  the *result* of a dynamic instruction;
* errors are inserted uniformly at random over the dynamic instruction
  stream;
* under **protection ON** only instructions tagged by the static analysis as
  not influencing control ("low reliability") receive errors — all other
  instructions are assumed to be protected by redundancy or hardened
  hardware;
* under **protection OFF** any result-producing dynamic instruction can
  receive an error.

This module defines the injection *policy* (which static instructions are
eligible) and the injection *plan* (which dynamic occurrences receive a
flip).  The :class:`~repro.sim.machine.Machine` consumes a plan and performs
the flips while executing.

The paper's model is one of several: a plan carries the name of the
:mod:`fault model <repro.sim.models>` that defines its site population and
corruption semantics (``model="control-bit"`` — the paper's single result
bit flip — being the default and bit-identical to the pre-model code).
See ``docs/FAULT_MODELS.md``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..isa import Instruction


class ProtectionMode(enum.Enum):
    """Which dynamic instructions are exposed to soft errors."""

    #: Control data is protected: only instructions tagged low-reliability by
    #: the static analysis can receive bit flips.
    PROTECTED = "protected"
    #: No protection: any result-producing instruction can receive bit flips.
    UNPROTECTED = "unprotected"
    #: No errors at all (golden run).
    NONE = "none"


def instruction_is_exposed(instruction: Instruction, mode: ProtectionMode) -> bool:
    """Return True when ``instruction`` may receive injected errors."""
    if mode is ProtectionMode.NONE:
        return False
    if not instruction.writes_register:
        return False
    if mode is ProtectionMode.PROTECTED:
        return instruction.low_reliability
    # UNPROTECTED: every instruction that produces a register result is fair
    # game, including loads, address computations and call linkage.
    return True


def exposure_flags(instructions: Sequence[Instruction],
                   mode: ProtectionMode) -> List[bool]:
    """Per-instruction exposure bit-vector for ``mode``.

    Computed once per program by the decode cache
    (:mod:`repro.sim.decode`) rather than rebuilt on every run.
    """
    return [instruction_is_exposed(instruction, mode) for instruction in instructions]


@dataclass
class InjectionEvent:
    """Record of one performed corruption.

    ``bit`` is the flipped bit position for single-flip models, or the
    burst start for the multi-bit model, or ``-1`` when the corruption is
    not bit-indexed (opcode substitution, random-word replacement).
    ``address`` is set by memory-site models; ``detail`` carries a short
    model-specific note (substituted opcode, burst width, ...).
    """

    dynamic_index: int
    static_index: int
    opcode: str
    bit: int
    original: float
    corrupted: float
    address: Optional[int] = None
    detail: Optional[str] = None


@dataclass
class InjectionPlan:
    """A concrete set of dynamic injection points for a single run.

    ``targets`` are indices into the fault model's dynamic site stream
    (0-based, strictly increasing) — for the default ``control-bit`` model
    that is the stream of *exposed* dynamic instructions.  If control flow
    diverges after an early flip and some later targets are never reached,
    those errors are simply not inserted — the same thing happens on real
    hardware when a run crashes before its remaining soft errors strike.

    ``model`` names the :mod:`fault model <repro.sim.models>` that defines
    the site stream and the corruption applied when a target fires.
    """

    mode: ProtectionMode
    targets: Sequence[int]
    seed: int = 0
    events: List[InjectionEvent] = field(default_factory=list)
    model: str = "control-bit"

    def __post_init__(self) -> None:
        targets = list(self.targets)
        if any(t < 0 for t in targets):
            raise ValueError("injection targets must be non-negative")
        if sorted(set(targets)) != targets:
            raise ValueError("injection targets must be strictly increasing and unique")
        self.targets = targets
        self._rng = random.Random(self.seed ^ 0x5DEECE66D)

    @property
    def injected_errors(self) -> int:
        return len(self.events)

    @property
    def rng(self) -> random.Random:
        """The plan's seeded generator — the only randomness models may use.

        Draws happen in target-firing order, which is fixed by the
        strictly-increasing targets, so a run is a pure function of the
        plan regardless of engine or executor backend.
        """
        return self._rng

    @property
    def model_impl(self):
        """The registered :class:`~repro.sim.models.FaultModel` instance."""
        from .models import get_model  # deferred: models imports this module
        return get_model(self.model)

    @property
    def fork_compatible(self) -> bool:
        """Whether this plan's model can resume from golden checkpoints."""
        return self.model_impl.supports_fork

    def choose_bit(self, width: int) -> int:
        """Pick the bit position to flip for the next event."""
        return self._rng.randrange(width)

    def record(self, event: InjectionEvent) -> None:
        self.events.append(event)


def plan_injections(
    num_errors: int,
    exposed_dynamic_count: int,
    mode: ProtectionMode,
    seed: int,
    model: str = "control-bit",
) -> InjectionPlan:
    """Draw ``num_errors`` uniform injection points for a run.

    Parameters
    ----------
    num_errors:
        Number of faults to insert (the x-axis of the paper's figures).
    exposed_dynamic_count:
        Size of the fault model's dynamic site stream observed in a golden
        run of the same workload (``FaultModel.population``) — for the
        default model, the number of exposed dynamic instructions.
        Injection points are drawn uniformly from this range, matching the
        paper's uniform-over-the-run insertion.
    mode:
        Protection mode the plan applies to.
    seed:
        Seed controlling both the chosen points and the corruption draws.
    model:
        Name of the :mod:`fault model <repro.sim.models>` the plan is for.
    """
    if num_errors < 0:
        raise ValueError("num_errors must be non-negative")
    if mode is ProtectionMode.NONE or num_errors == 0:
        return InjectionPlan(mode=mode, targets=[], seed=seed, model=model)
    if exposed_dynamic_count <= 0:
        raise ValueError(
            "cannot plan injections: the golden run exposed no dynamic instructions"
        )
    rng = random.Random(seed)
    population = exposed_dynamic_count
    count = min(num_errors, population)
    targets = sorted(rng.sample(range(population), count))
    return InjectionPlan(mode=mode, targets=targets, seed=seed, model=model)
