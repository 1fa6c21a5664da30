"""Whole-program container: text segment, labels, functions and data segment.

A :class:`Program` is the unit consumed by the simulator and by the compiler
passes.  It contains a flat list of instructions, a label table mapping
symbolic names to instruction indices, a function table describing the
half-open instruction range of each function, and a data segment describing
statically allocated global memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .encoding import wrap_int
from .instructions import Instruction
from .opcodes import Opcode

#: Opcodes whose immediate must be a signed 32-bit integer: the ALU
#: immediates and the load/store offsets.  ``LI`` is exempt because it
#: wraps its immediate to 32 bits by definition.
INT32_IMMEDIATE_OPS = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
    Opcode.SRLI, Opcode.SRAI, Opcode.SLTI,
    Opcode.LW, Opcode.SW, Opcode.FLW, Opcode.FSW,
})


class ProgramError(Exception):
    """Raised for malformed programs (duplicate labels, missing targets...)."""


@dataclass
class DataObject:
    """A statically allocated global array in the data segment.

    Attributes
    ----------
    name:
        Symbol name referenced by ``LA`` instructions.
    size:
        Number of memory cells.
    initial:
        Optional initial values (shorter than ``size`` is allowed; the rest
        is zero-filled).
    address:
        Assigned by :meth:`Program.layout_data`.
    """

    name: str
    size: int
    initial: Sequence[float] = ()
    address: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ProgramError(f"data object {self.name!r} must have positive size")
        if len(self.initial) > self.size:
            raise ProgramError(
                f"data object {self.name!r}: {len(self.initial)} initial values "
                f"exceed declared size {self.size}"
            )


@dataclass
class FunctionInfo:
    """Metadata about one function in the text segment."""

    name: str
    start: int
    end: int  # exclusive
    #: Whether the programmer marked the function as eligible for
    #: low-reliability tagging (Section 4: "Only functions that were
    #: user-identified as eligible were tagged").
    eligible: bool = True

    def instruction_indices(self) -> range:
        return range(self.start, self.end)


#: Base address of the data segment in the simulated address space.
DATA_BASE = 0x1000
#: Default number of memory cells available to a program (data + heap + stack).
#: The full 31-bit positive address range is addressable and lazily mapped,
#: mirroring SimpleScalar's flat functional memory: a corrupted (but still
#: positive) address silently reads zeros / writes garbage instead of
#: faulting, while negative addresses fault like an unmapped page.
DEFAULT_MEMORY_CELLS = 1 << 31


@dataclass
class Program:
    """A complete executable program for the virtual machine."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    data_objects: Dict[str, DataObject] = field(default_factory=dict)
    entry: str = "main"
    memory_cells: int = DEFAULT_MEMORY_CELLS

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def add_label(self, name: str, index: Optional[int] = None) -> None:
        if name in self.labels:
            raise ProgramError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions) if index is None else index

    def add_instruction(self, instruction: Instruction) -> int:
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def add_data(self, obj: DataObject) -> None:
        if obj.name in self.data_objects:
            raise ProgramError(f"duplicate data object {obj.name!r}")
        self.data_objects[obj.name] = obj

    def add_function(self, info: FunctionInfo) -> None:
        if info.name in self.functions:
            raise ProgramError(f"duplicate function {info.name!r}")
        self.functions[info.name] = info

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------
    def layout_data(self) -> None:
        """Assign addresses to all data objects starting at ``DATA_BASE``."""
        address = DATA_BASE
        for obj in self.data_objects.values():
            obj.address = address
            address += obj.size
        if address >= self.memory_cells:
            raise ProgramError(
                f"data segment ({address} cells) exceeds memory size "
                f"({self.memory_cells} cells)"
            )

    def validate(self) -> None:
        """Check immediates, label targets, data symbols and the entry point."""
        if self.entry not in self.labels and self.entry not in self.functions:
            raise ProgramError(f"entry point {self.entry!r} not defined")
        for index, instruction in enumerate(self.instructions):
            imm = instruction.imm
            if instruction.op in INT32_IMMEDIATE_OPS and not (
                    isinstance(imm, int) and wrap_int(imm) == imm):
                raise ProgramError(
                    f"instruction {index}: {instruction.info.name} immediate "
                    f"{imm!r} is not a signed 32-bit integer"
                )
            if instruction.label is None:
                continue
            if instruction.op is Opcode.LA:
                if instruction.label not in self.data_objects:
                    raise ProgramError(
                        f"instruction {index}: unknown data symbol {instruction.label!r}"
                    )
            elif instruction.is_control:
                if instruction.label not in self.labels:
                    raise ProgramError(
                        f"instruction {index}: unknown label {instruction.label!r}"
                    )

    def finalize(self) -> "Program":
        """Layout data, validate, and return ``self`` for chaining."""
        self.layout_data()
        self.validate()
        return self

    # ------------------------------------------------------------------
    # Decode cache.
    # ------------------------------------------------------------------
    def invalidate_decode_cache(self) -> None:
        """Drop the cached pre-decoded form (see :mod:`repro.sim.decode`).

        The simulator lowers a finalized program once into flat operand
        arrays with resolved targets and caches the result on this object.
        Passes that change execution-relevant instruction state (e.g. the
        control-tagging pass flipping ``low_reliability`` bits) call this so
        the next run re-decodes; the cache also self-validates against the
        tag vector as a second line of defence.
        """
        self._decoded_cache = None

    def __getstate__(self):
        """Pickle without the decode cache.

        Campaign worker processes receive programs inside the warm
        application payload; the decoded form (operand tuples, exposure
        vectors, class indices) roughly doubles that payload while being
        cheap to rebuild, so workers re-decode locally on first use instead.
        """
        state = dict(self.__dict__)
        state.pop("_decoded_cache", None)
        return state

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def entry_index(self) -> int:
        if self.entry in self.labels:
            return self.labels[self.entry]
        return self.functions[self.entry].start

    def resolve_label(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError as exc:
            raise ProgramError(f"unknown label {name!r}") from exc

    def data_address(self, name: str) -> int:
        obj = self.data_objects.get(name)
        if obj is None:
            raise ProgramError(f"unknown data symbol {name!r}")
        if obj.address is None:
            raise ProgramError("data segment has not been laid out; call finalize()")
        return obj.address

    def function_of_index(self, index: int) -> Optional[str]:
        for info in self.functions.values():
            if info.start <= index < info.end:
                return info.name
        return None

    def eligible_instruction_indices(self) -> List[int]:
        """Indices belonging to functions marked as eligible for tagging."""
        indices: List[int] = []
        for info in self.functions.values():
            if info.eligible:
                indices.extend(info.instruction_indices())
        return sorted(indices)

    def tagged_indices(self) -> List[int]:
        """Indices of instructions tagged low-reliability by the analysis."""
        return [
            index
            for index, instruction in enumerate(self.instructions)
            if instruction.low_reliability
        ]

    def set_eligible_functions(self, names: Optional[Iterable[str]]) -> None:
        """Restrict tagging eligibility to the given function names.

        ``None`` marks every function as eligible.
        """
        if names is None:
            for info in self.functions.values():
                info.eligible = True
            self.invalidate_decode_cache()
            return
        allowed = set(names)
        unknown = allowed - set(self.functions)
        if unknown:
            raise ProgramError(f"unknown functions marked eligible: {sorted(unknown)}")
        for info in self.functions.values():
            info.eligible = info.name in allowed
        self.invalidate_decode_cache()

    # ------------------------------------------------------------------
    # Listings.
    # ------------------------------------------------------------------
    def listing(self) -> str:
        """Render an annotated assembly listing of the whole program."""
        index_to_labels: Dict[int, List[str]] = {}
        for name, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(name)
        lines: List[str] = []
        for obj in self.data_objects.values():
            address = obj.address if obj.address is not None else "?"
            lines.append(f".data {obj.name} size={obj.size} addr={address}")
        for index, instruction in enumerate(self.instructions):
            for label in index_to_labels.get(index, ()):
                lines.append(f"{label}:")
            lines.append(f"    {index:6d}: {instruction.render()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)
