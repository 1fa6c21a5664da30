"""Reproduction of the paper's tables.

* Table 1 — applications and their fidelity measures (descriptive).
* Table 2 — percentage of catastrophic failures (crashes or infinite runs)
  with and without control-data protection, at a low and a high error count
  per application.
* Table 3 — dynamic instruction counts and the percentage of dynamic
  instructions the static analysis tags as low reliability.

Beyond the paper:

* Table 4 — outcome breakdown of the same operating point under every
  registered fault model (:mod:`repro.sim.models`), the reproduction's
  generalisation of the injection axis.
* Table 5 — validation of the static susceptibility oracle
  (:mod:`repro.analysis`): Spearman rank correlation between static
  per-site score and per-site failure rates measured by attributing a
  stored campaign's single-error runs back to the sites they corrupted.

Every builder takes the campaign as ``config``, a
:class:`~repro.service.spec.CampaignSpec` (default ``CampaignSpec()``:
small suite, 8 runs per cell, seed 2006, control-bit).  Campaign tables
read their cells from a shard store: the one passed in, or a temporary
one the builder sweeps the cells it needs into (:func:`swept_store`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..analysis import attribute_first_flips, build_report
from ..apps import APP_ORDER, SUITES, TABLE1_FIDELITY
from ..core import ShardStore, TableData
from ..core.stats import spearman_rho
from ..service.spec import SPEC_MODES, CampaignSpec
from ..sim import MODEL_NAMES, ProtectionMode, get_model

#: Error counts used by Table 2, straight from the paper (low, high) —
#: applications with a single reported point repeat it.
TABLE2_ERROR_COUNTS: Dict[str, Tuple[int, ...]] = {
    "susan": (2200,),
    "mpeg": (20, 120),
    "mcf": (1, 340),
    "blowfish": (2, 20),
    "gsm": (10, 40),
    "art": (4,),
    "adpcm": (3, 56),
}


def artefact_spec(config: Optional[CampaignSpec]) -> CampaignSpec:
    """The fixed-size campaign an artefact aggregates over.

    ``None`` is ``CampaignSpec()``.  An adaptive spec expects its rule's
    floor as the runs per cell: every converged cell holds at least that
    many records, and a builder without a store sweeps that many.
    """
    spec = config if config is not None else CampaignSpec()
    if spec.stopping is None:
        return spec
    return dataclasses.replace(spec, stopping=None,
                               runs_per_cell=spec.stopping.floor)


@contextlib.contextmanager
def swept_store(store: Optional[ShardStore],
                specs: Sequence[CampaignSpec]) -> Iterator[ShardStore]:
    """``store`` itself, or without one a temporary store that holds the
    cells of ``specs`` (all of one fault model), one sweep per spec.

    An artefact then reads its cells the same way from either.  With
    no spec there is nothing to sweep, and ``store`` is yielded as is.
    """
    if store is not None or not specs:
        yield store
        return
    from .sweep import SweepOrchestrator  # sweep.py imports this module

    with tempfile.TemporaryDirectory(prefix="repro-artefact-") as root:
        swept = ShardStore(root, model=specs[0].model)
        for spec in specs:
            SweepOrchestrator(swept, spec).run()
        yield swept


def store_confidence(store: Optional[ShardStore]) -> float:
    """The CI level artefacts rendered from ``store`` use.

    An adaptive store pins the confidence level its stopping rule
    converged — rendered intervals must be those intervals, so tables,
    figures and ``status`` agree on the ``±`` of the same cell.
    Everything else (fixed stores, and no store: the temporary store a
    builder sweeps is fixed) reports the 95% default.
    """
    rule = store.stopping_rule() if store is not None else None
    return rule.confidence if rule is not None else 0.95


def table1_applications(config: Optional[CampaignSpec] = None) -> TableData:
    """Table 1: the applications and their fidelity measures."""
    suite = SUITES[artefact_spec(config).suite]()
    table = TableData(
        title="Table 1: applications and fidelity measures",
        headers=["Application", "Description", "Fidelity measure (paper)",
                 "Fidelity measure (this repro)", "Threshold"],
    )
    for name in APP_ORDER:
        app = suite[name]
        measure = app.fidelity_measure()
        table.add_row([
            name,
            app.description,
            TABLE1_FIDELITY[name],
            f"{measure.name} [{measure.unit}]",
            measure.threshold_description,
        ])
    return table


def table2_catastrophic_failures(
    config: Optional[CampaignSpec] = None,
    apps: Optional[Sequence[str]] = None,
    error_counts: Optional[Dict[str, Tuple[int, ...]]] = None,
    store: Optional[ShardStore] = None,
) -> TableData:
    """Table 2: % catastrophic failures with and without control protection.

    With ``store`` the cells are loaded from a sweep's shard store (see
    ``python -m repro sweep``); a missing cell raises ``KeyError`` naming
    the sweep command that produces it.  Without one, each application's
    Table 2 points are swept into one temporary store.
    """
    config = artefact_spec(config)
    suite = SUITES[config.suite]()
    error_counts = error_counts or TABLE2_ERROR_COUNTS
    names = list(apps) if apps is not None else list(APP_ORDER)

    source = "shard store" if store is not None else "live simulation"
    rule = store.stopping_rule() if store is not None else None
    confidence = store_confidence(store)
    level = f"{100.0 * confidence:g}%"
    if rule is not None:
        # Adaptive stores pin a stopping rule instead of an exact count;
        # the run note should say what the cells actually guarantee.
        runs_note = (f"adaptive runs per cell ({rule.floor}..{rule.cap}, "
                     f"target CI ±{rule.ci_width:g} pp)")
    else:
        runs_note = f"{config.runs_per_cell} injected runs per cell"
    table = TableData(
        title="Table 2: catastrophic failures (crashes or infinite runs)",
        headers=["Application", "Errors introduced", "Total instructions",
                 "% failures with protection", f"±{level} (prot.)",
                 "% failures without protection", f"±{level} (unprot.)"],
        notes=[f"{runs_note}, suite={config.suite!r}, source={source}",
               f"± columns are Wilson-score {level} CI half-widths on the "
               f"failure rates"],
    )
    points = {name: tuple(error_counts.get(name, (8,))) for name in names}
    specs = [dataclasses.replace(config, apps=(name,), modes=SPEC_MODES,
                                 errors=points[name]) for name in names]
    with swept_store(store, specs) as cells:
        for name in names:
            golden = suite[name].golden(0)
            for errors in points[name]:
                row = [name, errors, golden.executed]
                for mode in (ProtectionMode.PROTECTED,
                             ProtectionMode.UNPROTECTED):
                    cell = cells.load_campaign(
                        name, mode, errors, expect_runs=config.runs_per_cell)
                    interval = cell.failure_ci(confidence)
                    row += [cell.failure_percent, interval.half_width
                            if interval is not None else None]
                table.add_row(row)
    return table


def table4_fault_models(
    config: Optional[CampaignSpec] = None,
    apps: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    errors: int = 4,
) -> TableData:
    """Cross-model outcome breakdown (beyond the paper's single model).

    Runs the same ``(app, mode, errors)`` operating point under every
    requested :mod:`fault model <repro.sim.models>` and tabulates where
    the runs end up — completed / crashed / hung, and how many completed
    runs stayed within the application's fidelity threshold.  This is the
    generalisation axis of the reproduction: the paper's argument ("only
    control data needs protection") is re-testable under data-only flips,
    memory strikes, multi-bit bursts and opcode corruption from one
    table.

    A shard store holds one model (see ``python -m repro sweep
    --model``), so each model's cells are swept into a temporary store of
    their own.  The runs per cell and base seed come from ``config``, so
    rows are exactly reproducible.
    """
    config = artefact_spec(config)
    names = list(apps) if apps is not None else list(APP_ORDER)
    model_names = list(models) if models is not None else list(MODEL_NAMES)
    table = TableData(
        title=f"Table 4: outcome breakdown by fault model "
              f"({errors} errors per run)",
        headers=["Application", "Fault model", "Mode", "% completed",
                 "% crash", "% hang", "% acceptable"],
        notes=[f"{config.runs_per_cell} injected runs per cell, "
               f"suite={config.suite!r}, source=live simulation"],
    )
    rows: Dict[Tuple[str, str], list] = {}
    for model_name in model_names:
        # Mode-independent models (memory-bit) would produce two
        # identical rows by construction — sweep one cell and say so,
        # instead of paying for (and presenting) the duplicate.
        modes = (SPEC_MODES if get_model(model_name).mode_sensitive
                 else SPEC_MODES[:1])
        spec = dataclasses.replace(config, model=model_name, apps=tuple(names),
                                   modes=modes, errors=(errors,))
        with swept_store(None, [spec]) as cells:
            for name in names:
                rows[name, model_name] = []
                for mode in modes:
                    cell = cells.load_campaign(name, ProtectionMode(mode),
                                               errors)
                    rows[name, model_name].append([
                        name, model_name,
                        mode if len(modes) > 1 else "(mode-independent)",
                        cell.completed_percent, cell.crash_percent,
                        cell.hang_percent, cell.acceptable_percent])
    for name in names:
        for model_name in model_names:
            for row in rows[name, model_name]:
                table.add_row(row)
    return table


def table3_low_reliability_instructions(
    config: Optional[CampaignSpec] = None,
    apps: Optional[Sequence[str]] = None,
) -> TableData:
    """Table 3: dynamic instructions and % identified as low reliability."""
    suite = SUITES[artefact_spec(config).suite]()
    names = list(apps) if apps is not None else list(APP_ORDER)
    table = TableData(
        title="Table 3: dynamic instructions and % low-reliability instructions",
        headers=["Application", "Instructions", "% low reliability (dynamic)",
                 "% low reliability (static)"],
        notes=["dynamic % measured on the golden (error-free) run"],
    )
    for name in names:
        app = suite[name]
        golden = app.golden(0)
        report = app.tagging_report()
        table.add_row([
            name,
            golden.executed,
            100.0 * golden.result.statistics.tagged_fraction,
            100.0 * report.static_tagged_fraction,
        ])
    return table


def table5_static_vs_dynamic(
    config: Optional[CampaignSpec] = None,
    apps: Optional[Sequence[str]] = None,
    store: Optional[ShardStore] = None,
    errors: int = 1,
    mode: ProtectionMode = ProtectionMode.UNPROTECTED,
) -> TableData:
    """Table 5: does the static susceptibility oracle predict outcomes?

    Joins the static per-site scores (:func:`repro.analysis.build_report`)
    against *measured* per-site outcomes from a stored campaign cell:
    every single-error run's injection plan is re-derived from the
    store's pinned ``base_seed``, its first (and only) flip attributed to
    the exact static site it corrupted, and the sites' measured *impact*
    rates — catastrophic (crash/hang) plus completed-but-degraded runs,
    the dynamic counterpart of the oracle's "visible use" estimate —
    rank-correlated with their static scores
    (:func:`~repro.core.stats.spearman_rho`).  A positive rho means
    statically higher-ranked sites really do hurt more often — the
    falsifiable claim behind rank-budgeted protection.

    Only works from a shard store (attribution needs the exact seeds the
    records were produced with, which ``meta.json`` pins): run
    ``python -m repro sweep --errors 1`` first.  The store's pinned spec
    wins over ``config``, which only stands in for a store without a
    ``meta.json``.  ``errors`` selects which single-error cell to
    attribute and must be 1 — multi-error runs cannot be attributed
    exactly (see :mod:`repro.analysis.attribution`).
    """
    if store is None:
        raise ValueError(
            "table 5 attributes stored campaign records to static sites and "
            "cannot run from live simulation; build a store with "
            "`python -m repro sweep --errors 1` and pass --store")
    if errors != 1:
        raise ValueError(
            f"table 5 requires single-error cells (errors=1, got {errors}); "
            f"only the first flip of a run is exactly attributable")
    meta = store.read_meta()
    config = artefact_spec(CampaignSpec.from_store_meta(meta) if meta
                           else config)
    suite = SUITES[config.suite]()
    names = list(apps) if apps is not None else list(APP_ORDER)

    table = TableData(
        title="Table 5: static susceptibility rank vs measured failures "
              f"({mode.value}, {errors} error per run)",
        headers=["Application", "Runs", "Sites hit", "Failures", "Degraded",
                 "Spearman rho", "Top-quartile capture %"],
        notes=[f"store={store.root}, model={config.model!r}, "
               f"suite={config.suite!r}, base_seed={config.base_seed}",
               "each run's first flip is attributed to its exact static site "
               "by replaying the golden exposure stream",
               "rho rank-correlates static score with per-site impact rate "
               "(catastrophic + degraded) over the hit sites; '-' means "
               "undefined (constant ranks)",
               "capture % = share of impacted runs at sites the oracle ranks "
               "in its top quartile"],
    )
    for name in names:
        app = suite[name]
        campaign = store.load_campaign(name, mode, errors,
                                       expect_runs=config.runs_per_cell)
        tallies, skipped = attribute_first_flips(
            app, campaign.records, mode, config.base_seed, model=config.model)
        if skipped:
            table.notes.append(
                f"{name}: {skipped} record(s) not attributable "
                f"(multi-error/other-mode) and excluded")
        report = build_report(app, suite=config.suite, model=config.model)
        scores = report.site_scores()
        hit_sites = sorted(tallies)
        rho = spearman_rho([scores[site] for site in hit_sites],
                           [tallies[site].impact_rate for site in hit_sites])
        impacts = sum(tallies[site].impacts for site in hit_sites)
        quartile = {site.index for site
                    in report.top_sites(max(1, len(report.sites) // 4))}
        captured = sum(tallies[site].impacts for site in hit_sites
                       if site in quartile)
        capture_percent = (100.0 * captured / impacts if impacts else None)
        table.add_row([
            name,
            sum(tallies[site].hits for site in hit_sites),
            len(hit_sites),
            sum(tallies[site].failures for site in hit_sites),
            sum(tallies[site].degraded for site in hit_sites),
            rho,
            capture_percent,
        ])
    return table
