"""Word-addressable memory model.

Each address names one memory *cell* holding either a Python int or float.
This corresponds to treating every scalar as one machine word; byte-level
packing is not modelled because the paper's fault model flips bits in
instruction results (register values), not in the memory encoding.

The memory is sparse: unwritten cells read as integer zero, mirroring a
zero-initialised address space.  Bounds are enforced so that a corrupted
address register produces a :class:`~repro.sim.errors.MemoryFault` the same
way a wild pointer produces a segmentation fault on real hardware.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .errors import MemoryFault


class Memory:
    """Sparse word-addressable memory with bounds checking."""

    __slots__ = ("cells", "size")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.cells: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Core accessors used by the simulator hot loop.
    # ------------------------------------------------------------------
    #: Any signed 32-bit word address is considered mapped: the model mirrors
    #: SimpleScalar's lazily allocated flat memory, where wild (corrupted)
    #: addresses silently hit unrelated cells instead of faulting.
    ADDRESS_LO = -(1 << 31)
    ADDRESS_HI = 1 << 31

    def load(self, address: int) -> float:
        if not isinstance(address, int) or not self.ADDRESS_LO <= address < self.ADDRESS_HI:
            raise MemoryFault(f"load from invalid address {address!r}")
        return self.cells.get(address, 0)

    def store(self, address: int, value: float) -> None:
        if not isinstance(address, int) or not self.ADDRESS_LO <= address < self.ADDRESS_HI:
            raise MemoryFault(f"store to invalid address {address!r}")
        self.cells[address] = value

    # ------------------------------------------------------------------
    # Bulk helpers for application drivers.
    # ------------------------------------------------------------------
    def write_block(self, address: int, values: Sequence[float]) -> None:
        """Write a contiguous block of values starting at ``address``."""
        if address < 0 or address + len(values) > self.size:
            raise MemoryFault(
                f"block write [{address}, {address + len(values)}) out of bounds"
            )
        for offset, value in enumerate(values):
            self.cells[address + offset] = value

    def read_block(self, address: int, count: int) -> List[float]:
        """Read ``count`` contiguous cells starting at ``address``."""
        if address < 0 or address + count > self.size:
            raise MemoryFault(
                f"block read [{address}, {address + count}) out of bounds"
            )
        get = self.cells.get
        return [get(address + offset, 0) for offset in range(count)]

    def clear(self) -> None:
        self.cells.clear()
