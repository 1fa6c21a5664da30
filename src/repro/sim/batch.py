"""Former home of the retired batch engine; campaigns now run on fork.

This module exists only because the end-to-end benchmark's tracer patches
``decode_program``, ``run_forked`` and ``run_batched`` here.  It goes away
with the benchmark change that moves those patch targets.
"""

from .decode import decode_program  # noqa: F401 -- a tracer patch target
from .fork import run_forked
from .machine import DEFAULT_MAX_INSTRUCTIONS, Machine


def run_batched(machine, plans, store, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Run each plan through :func:`run_forked` on a fresh machine."""
    return [run_forked(Machine(machine.program), plan, store, max_instructions)
            for plan in plans]
