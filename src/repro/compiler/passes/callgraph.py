"""Call graph construction.

The control-data tagging pass is inter-procedural (Section 3: the ``CVar``
propagation "may ... cross ... even procedure boundaries"), so it needs to
know which functions call which.  The call graph is also used by drivers to
validate that user-identified eligible functions are actually reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ...isa import Opcode, Program


@dataclass
class CallGraph:
    """Callers/callees per function plus call-site instruction indices."""

    callees: Dict[str, Set[str]] = field(default_factory=dict)
    callers: Dict[str, Set[str]] = field(default_factory=dict)
    call_sites: Dict[str, List[int]] = field(default_factory=dict)


def build_call_graph(program: Program) -> CallGraph:
    """Build the static call graph of ``program``."""
    graph = CallGraph()
    for name in program.functions:
        graph.callees.setdefault(name, set())
        graph.callers.setdefault(name, set())
        graph.call_sites.setdefault(name, [])

    for index, instruction in enumerate(program.instructions):
        if instruction.op is not Opcode.JAL or instruction.label is None:
            continue
        caller = program.function_of_index(index)
        callee = instruction.label
        graph.callees.setdefault(caller or "<toplevel>", set()).add(callee)
        graph.callers.setdefault(callee, set()).add(caller or "<toplevel>")
        graph.call_sites.setdefault(callee, []).append(index)

    return graph
