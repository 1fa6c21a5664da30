"""Functional simulation substrate (the SimpleScalar stand-in)."""

from .errors import (
    ArithmeticFault,
    ControlFault,
    MemoryFault,
    SimFault,
    SyscallFault,
    WatchdogExpired,
)
from .decode import DecodedProgram, decode_program
from .fork import (
    DEFAULT_CHECKPOINT_COUNT,
    Checkpoint,
    CheckpointStore,
    build_checkpoint_store,
    run_forked,
)
from .faults import (
    InjectionEvent,
    InjectionPlan,
    ProtectionMode,
    exposed_static_indices,
    exposure_flags,
    instruction_is_exposed,
    plan_injections,
)
from .machine import (
    DEFAULT_MAX_INSTRUCTIONS,
    DEFAULT_WATCHDOG_FACTOR,
    Machine,
    Outcome,
    RunResult,
    RunStatistics,
    executing_engine,
    run_program,
    summarise_counts,
)
from .memory import Memory
from .models import CONTROL_BIT, FAULT_MODELS, FaultModel, MODEL_NAMES, get_model

__all__ = [
    "CONTROL_BIT",
    "FAULT_MODELS",
    "FaultModel",
    "MODEL_NAMES",
    "get_model",
    "ArithmeticFault",
    "Checkpoint",
    "CheckpointStore",
    "ControlFault",
    "DEFAULT_CHECKPOINT_COUNT",
    "DEFAULT_MAX_INSTRUCTIONS",
    "DEFAULT_WATCHDOG_FACTOR",
    "DecodedProgram",
    "InjectionEvent",
    "InjectionPlan",
    "Machine",
    "Memory",
    "MemoryFault",
    "Outcome",
    "ProtectionMode",
    "RunResult",
    "RunStatistics",
    "SimFault",
    "SyscallFault",
    "WatchdogExpired",
    "build_checkpoint_store",
    "decode_program",
    "executing_engine",
    "exposed_static_indices",
    "exposure_flags",
    "instruction_is_exposed",
    "plan_injections",
    "run_forked",
    "run_program",
    "summarise_counts",
]
