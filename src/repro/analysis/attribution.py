"""Attribute campaign outcomes back to static injection sites.

The static oracle ranks *static* sites; the campaign measures *runs*.
The bridge is the injection plan: plans target indices into the fault
model's dynamic site stream, and for result-kind models that stream is
the sequence of exposed dynamic instructions of a golden replay — a pure
function of ``(app, workload seed, mode)``.  Replaying the golden run
once while recording which static instruction index each exposed dynamic
occurrence belongs to therefore maps any plan target to its static site.

Attribution here is deliberately restricted to single-error runs
(``errors_requested == 1``): the execution prefix before the first flip
is bit-identical to the golden run, so the first target's position in
the golden stream is *exactly* the static site that was corrupted — no
approximation, regardless of how wildly control flow diverges
afterwards.  Multi-error runs would need divergence modeling for every
target after the first, so they are skipped rather than guessed at.

Plans are re-derived from the same ``(base_seed, run_index, errors,
model)`` inputs, through the same
:func:`~repro.core.campaign.injection_seed`, that every executor backend
uses, so attribution works on any stored
campaign without touching the record schema — ``RunRecord`` bytes are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..core.app import ErrorTolerantApp
from ..core.campaign import injection_seed
from ..core.outcomes import RunRecord
from ..sim import ProtectionMode, plan_injections
from ..sim.decode import decode_program
from ..sim.machine import Machine
from ..sim.models import get_model


def exposed_site_stream(app: ErrorTolerantApp, mode: ProtectionMode,
                        seed: int = 0,
                        model: str = "control-bit") -> List[int]:
    """Static instruction index of each dynamic site-stream occurrence.

    Replays the golden run of ``app`` for workload ``seed`` with the fast
    (injection-free) handlers — the same decoded dispatch loop as
    :meth:`repro.sim.machine.Machine.run` — recording the static index of
    every instruction the model's ``mode`` exposure covers.  Entry ``k``
    of the result is the static site a plan target of ``k`` corrupts.

    Only result-kind fault models have an instruction-exposure site
    stream; state-kind models (e.g. ``memory-bit``) raise ``ValueError``.
    """
    model_impl = get_model(model)
    if model_impl.kind != "result":
        raise ValueError(
            f"fault model {model!r} corrupts machine state, not instruction "
            f"results; its sites are not instruction occurrences")
    golden = app.golden(seed)
    decoded = decode_program(app.program())
    flags = model_impl.exposure(decoded, mode)
    expected = model_impl.population(golden, mode)

    machine = Machine(app.program())
    app.apply_workload(machine, app.workload(seed))
    handlers = decoded.bind(machine)
    text_len = decoded.text_len
    budget = golden.watchdog_budget
    stream: List[int] = []
    executed = 0
    pc = decoded.entry_index
    while pc != text_len:
        if executed >= budget:
            raise RuntimeError(
                f"golden replay of {app.name!r} exceeded its watchdog budget "
                f"({budget}); golden cache and program state disagree")
        if flags[pc]:
            stream.append(pc)
        executed += 1
        pc = handlers[pc]()
    if executed != golden.executed or len(stream) != expected:
        raise RuntimeError(
            f"golden replay of {app.name!r} diverged from the cached golden "
            f"run: executed {executed}/{golden.executed}, "
            f"sites {len(stream)}/{expected}")
    return stream


@dataclass
class SiteTally:
    """Measured outcomes of all attributed first flips at one static site."""

    site: int
    hits: int = 0
    failures: int = 0
    degraded: int = 0

    @property
    def impacts(self) -> int:
        """Hits with any architecturally visible impact.

        Catastrophic outcomes plus completed-but-degraded ones — the
        dynamic counterpart of the oracle's "live-out into a visible
        use" estimate (a flip the oracle calls masked/dead should land
        in neither bucket)."""
        return self.failures + self.degraded

    @property
    def impact_rate(self) -> float:
        """Fraction of hits with any visible impact."""
        if self.hits == 0:
            return 0.0
        return self.impacts / self.hits


def attribute_first_flips(
    app: ErrorTolerantApp,
    records: Iterable[RunRecord],
    mode: ProtectionMode,
    base_seed: int,
    model: str = "control-bit",
) -> Tuple[Dict[int, SiteTally], int]:
    """Map single-error campaign records to their corrupted static sites.

    Re-derives each record's injection plan from ``(base_seed,
    record.run_index, record.errors_requested)`` — the executor contract —
    and charges the record's outcome to the static site of the plan's
    first (only) target.  Returns ``(tallies by static index, skipped)``
    where ``skipped`` counts records attribution cannot handle exactly:
    multi-error or error-free runs, other modes/models, or plans that
    drew no target.

    ``failures`` counts catastrophic outcomes (crash/hang — the paper's
    '% Failures'); ``degraded`` counts runs that completed outside the
    application's fidelity threshold.
    """
    streams: Dict[int, List[int]] = {}
    tallies: Dict[int, SiteTally] = {}
    skipped = 0
    for record in records:
        if (record.errors_requested != 1 or record.mode != mode
                or record.model != model):
            skipped += 1
            continue
        workload_seed = record.seed
        stream = streams.get(workload_seed)
        if stream is None:
            stream = exposed_site_stream(app, mode, seed=workload_seed,
                                         model=model)
            streams[workload_seed] = stream
        plan = plan_injections(record.errors_requested, len(stream), mode,
                               seed=injection_seed(base_seed, record.run_index,
                                                   record.errors_requested),
                               model=model)
        if not plan.targets:
            skipped += 1
            continue
        site = stream[plan.targets[0]]
        tally = tallies.get(site)
        if tally is None:
            tally = SiteTally(site=site)
            tallies[site] = tally
        tally.hits += 1
        if record.is_catastrophic:
            tally.failures += 1
        elif record.completed and not record.is_acceptable:
            tally.degraded += 1
    return tallies, skipped


__all__ = ["SiteTally", "attribute_first_flips", "exposed_site_stream"]
