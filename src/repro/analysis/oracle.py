"""Build a :class:`StaticSusceptibilityReport` for a benchmark app.

This is the one entry point behind ``repro.api.analyze()`` and
``python -m repro analyze``: resolve the app, run the def-use and
loop-nesting passes, score every register-writing site, and wrap the
result in the deterministic report codec.
"""

from __future__ import annotations

from ..apps import SUITES, suite_apps
from ..compiler.passes import compute_def_use, compute_loop_nesting
from ..core.app import ErrorTolerantApp
from ..sim.models import get_model
from .report import StaticSusceptibilityReport
from .susceptibility import score_sites


def build_report(
    app: "str | ErrorTolerantApp",
    suite: str = "small",
    model: str = "control-bit",
    *,
    protect_addresses: bool = False,
    track_memory: bool = False,
    respect_eligibility: bool = True,
    protect_stack_registers: bool = True,
) -> StaticSusceptibilityReport:
    """Score all of ``app``'s register-writing sites under ``model``.

    ``app`` may be a registry name (resolved through ``suite``) or an
    already-constructed application.  The ``protect_*`` / ``track_*`` /
    ``respect_*`` keywords mirror :class:`ControlTaggingPass` options and
    change which sites the def-use facts consider control-reaching — the
    same ablation axes as ``benchmarks/test_ablation_tagging.py``.

    Only result-kind fault models are analyzable: the oracle's site
    population is "instructions that write a register", which is exactly
    the injection population of those models.  State-kind models
    (``memory-bit``) corrupt memory cells, not results, and raise
    ``ValueError``.
    """
    model_impl = get_model(model)
    if model_impl.kind != "result":
        raise ValueError(
            f"fault model {model!r} corrupts machine state; the static "
            f"oracle scores instruction result sites and only applies to "
            f"result-kind models")
    if isinstance(app, str):
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; "
                             f"expected one of {tuple(SUITES)}")
        if app not in SUITES[suite]:
            raise ValueError(f"unknown app {app!r}; expected one of "
                             f"{tuple(sorted(SUITES[suite]))}")
        app = suite_apps(suite)[app]
    program = app.program()
    defuse = compute_def_use(program, protect_addresses=protect_addresses,
                             track_memory=track_memory)
    nesting = compute_loop_nesting(program)
    tagged = defuse.tagged_sites(respect_eligibility=respect_eligibility,
                                 protect_stack_registers=protect_stack_registers)
    sites = score_sites(program, defuse, nesting, tagged)
    return StaticSusceptibilityReport(
        app=app.name,
        suite=suite,
        model=model,
        options={
            "protect_addresses": protect_addresses,
            "track_memory": track_memory,
            "respect_eligibility": respect_eligibility,
            "protect_stack_registers": protect_stack_registers,
        },
        static_total=len(program.instructions),
        sites=tuple(sites),
    )


__all__ = ["build_report"]
