"""Tests for the static susceptibility oracle (:mod:`repro.analysis`).

The load-bearing assertion is the tentpole equivalence: the def-use
facts must reproduce the control-tagging pass's decisions *exactly* on
every benchmark app under every option combination.  On top of that:
fate classification on a hand-built program, report determinism and
round-tripping, golden-stream attribution against the engine's own
injection events, and the table-5 validation loop against a real store.
"""

import json

import pytest

from repro.analysis import (
    FATE_CONTROL,
    FATE_DATA,
    FATE_DEAD,
    FATE_MASKED,
    SiteTally,
    StaticSusceptibilityReport,
    attribute_first_flips,
    build_report,
    exposed_site_stream,
)
from repro.apps import APP_ORDER, small_suite
from repro.assembler import ProgramBuilder
from repro.compiler.passes import ControlTaggingPass, compute_def_use
from repro.core.campaign import CampaignConfig, injection_seed
from repro.exec.base import make_record
from repro.isa import R
from repro.sim import ProtectionMode, plan_injections

OPTION_COMBOS = (
    {},
    {"protect_addresses": True},
    {"protect_addresses": True, "track_memory": True},
    {"track_memory": True},
)


class TestTaggingEquivalence:
    """The acceptance criterion: def-use facts == tagging pass, exactly."""

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_all_apps_all_option_combos(self, name):
        program = small_suite()[name].program()
        try:
            for options in OPTION_COMBOS:
                report = ControlTaggingPass(**options).run(program)
                facts = compute_def_use(program, **options)
                assert facts.tagged_sites() == frozenset(
                    report.tagged_indices), options
        finally:
            # program() memoizes; later tests expect the canonical tags.
            ControlTaggingPass().run(program)


def _fate_program():
    """One site per fate class, by construction.

    $8/$9 feed the branch (control); $10 is stored, $11 addresses the
    store (both data under default options); $12 only feeds $13, which
    nothing ever reads (masked feeding dead).
    """
    builder = ProgramBuilder()
    with builder.function("main"):
        builder.data("sink", 8)
        builder.li(R(8), 5)
        builder.addi(R(9), R(8), 1)
        builder.li(R(10), 3)
        builder.la(R(11), "sink")
        builder.sw(R(10), R(11), 0)
        builder.li(R(12), 9)
        builder.add(R(13), R(12), R(12))
        builder.bnez(R(9), "end")
        builder.nop()
        builder.label("end")
        builder.halt()
    return builder.build()


class TestFateClassification:
    def test_hand_built_fates(self):
        program = _fate_program()
        report = build_report_for_program(program)
        fates = {site.dest: site.fate for site in report}
        assert fates["$8"] == FATE_CONTROL      # feeds $9 feeds branch
        assert fates["$9"] == FATE_CONTROL      # branch operand
        assert fates["$10"] == FATE_DATA        # stored value
        assert fates["$11"] == FATE_DATA        # store address
        assert fates["$12"] == FATE_MASKED      # only feeds dead $13
        assert fates["$13"] == FATE_DEAD        # never read

    def test_protect_addresses_reclassifies_address_chain(self):
        program = _fate_program()
        report = build_report_for_program(program, protect_addresses=True)
        fates = {site.dest: site.fate for site in report}
        assert fates["$11"] == FATE_CONTROL

    def test_risk_ordering_follows_fates(self):
        program = _fate_program()
        sites = {site.dest: site for site in build_report_for_program(program)}
        assert sites["$9"].risk > sites["$10"].risk > sites["$12"].risk
        assert sites["$13"].risk == 0.0


def build_report_for_program(program, **options):
    """Score a raw program (no app/registry) for the fate tests."""
    from repro.compiler.passes import compute_loop_nesting
    from repro.analysis import score_sites

    defuse = compute_def_use(program, **options)
    return score_sites(program, defuse, compute_loop_nesting(program))


class TestReportCodec:
    def test_byte_identical_across_builds(self):
        first = json.dumps(build_report("susan").to_json(), sort_keys=True)
        second = json.dumps(build_report("susan").to_json(), sort_keys=True)
        assert first == second

    def test_round_trip(self):
        report = build_report("adpcm")
        rebuilt = StaticSusceptibilityReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert rebuilt == report

    def test_version_mismatch_is_an_error(self):
        payload = build_report("adpcm").to_json()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            StaticSusceptibilityReport.from_json(payload)

    def test_rollups_are_consistent(self):
        report = build_report("susan")
        fates = report.fate_counts()
        assert sum(fates.values()) == len(report.sites)
        assert report.tagged_count() == sum(
            1 for site in report.sites if site.tagged)
        ranked = report.ranked()
        assert sorted(ranked, key=lambda site: site.index) == sorted(
            report.sites, key=lambda site: site.index)
        assert all(ranked[i].score >= ranked[i + 1].score
                   for i in range(len(ranked) - 1))

    def test_tagged_sites_match_the_app_tags(self):
        # The report's `tagged` flags are the pass's decisions (tentpole
        # equivalence), so they must agree with the app's canonical tags.
        report = build_report("susan")
        program = small_suite()["susan"].program()
        tagged = {site.index for site in report.sites if site.tagged}
        assert tagged == set(program.tagged_indices())

    def test_state_kind_model_is_rejected(self):
        with pytest.raises(ValueError, match="state"):
            build_report("susan", model="memory-bit")

    def test_unknown_app_and_suite_are_errors(self):
        with pytest.raises(ValueError, match="unknown app"):
            build_report("nonesuch")
        with pytest.raises(ValueError, match="unknown suite"):
            build_report("susan", suite="giant")


class TestAttribution:
    def test_stream_length_matches_exposed_counts(self):
        app = small_suite()["adpcm"]
        golden = app.golden(0)
        for mode in (ProtectionMode.PROTECTED, ProtectionMode.UNPROTECTED):
            stream = exposed_site_stream(app, mode)
            assert len(stream) == golden.exposed_count(mode)

    def test_stream_sites_are_mode_exposed(self):
        app = small_suite()["adpcm"]
        program = app.program()
        stream = exposed_site_stream(app, ProtectionMode.PROTECTED)
        assert set(stream) <= set(program.tagged_indices())

    def test_state_kind_model_is_rejected(self):
        with pytest.raises(ValueError, match="state"):
            exposed_site_stream(small_suite()["adpcm"],
                                ProtectionMode.UNPROTECTED,
                                model="memory-bit")

    def test_first_flip_attribution_matches_engine_events(self):
        """Attributed sites == the static_index the engine records when
        the plan actually fires."""
        app = small_suite()["adpcm"]
        config = CampaignConfig(base_seed=1234)
        mode = ProtectionMode.UNPROTECTED
        records = []
        engine_sites = []
        for run_index in range(8):
            seed = config.workload_seed_for(run_index)
            population = app.golden(seed).exposed_count(mode)
            plan = plan_injections(
                1, population, mode,
                seed=injection_seed(config.base_seed, run_index, 1))
            app.run_once(injection=plan, seed=seed)
            assert plan.events, "single-error plan must fire in-run"
            engine_sites.append(plan.events[0].static_index)
            records.append(make_record(app, config, run_index, 1, mode))

        tallies, skipped = attribute_first_flips(
            app, records, mode, config.base_seed)
        assert skipped == 0
        assert sum(tally.hits for tally in tallies.values()) == 8
        stream = exposed_site_stream(app, mode)
        attributed = []
        for record in records:
            plan = plan_injections(
                1, len(stream), mode,
                seed=config.base_seed + 7919 * record.run_index + 104729)
            attributed.append(stream[plan.targets[0]])
        assert attributed == engine_sites

    def test_unattributable_records_are_skipped(self):
        app = small_suite()["adpcm"]
        config = CampaignConfig(base_seed=1234)
        multi = make_record(app, config, 0, 2, ProtectionMode.UNPROTECTED)
        clean = make_record(app, config, 1, 0, ProtectionMode.UNPROTECTED)
        tallies, skipped = attribute_first_flips(
            app, [multi, clean], ProtectionMode.UNPROTECTED, config.base_seed)
        assert skipped == 2
        assert tallies == {}

    def test_tally_rates(self):
        tally = SiteTally(site=3, hits=4, failures=1, degraded=2)
        assert tally.impacts == 3
        assert tally.failures / tally.hits == 0.25
        assert tally.impact_rate == 0.75
        assert SiteTally(site=0).impact_rate == 0.0


class TestTable5:
    def test_table5_from_a_real_store(self, tmp_path):
        from repro.api import CampaignSpec, submit, tables

        spec = CampaignSpec(suite="small", runs_per_cell=6, apps=("adpcm",),
                            errors=(1,), include_table2=False, base_seed=77)
        job = submit(spec, store=str(tmp_path / "store"))
        assert job["state"] == "complete"
        table = tables(str(tmp_path / "store"), [5], apps=["adpcm"])[0]
        assert table.headers[0] == "Application"
        (row,) = table.rows
        name, runs, sites_hit, failures, degraded, rho, capture = row
        assert name == "adpcm"
        assert runs == 6
        assert 1 <= sites_hit <= 6
        assert failures + degraded <= runs
        # rho/capture may be None (degenerate sample); when defined they
        # are bounded.
        assert rho is None or -1.0 <= rho <= 1.0
        assert capture is None or 0.0 <= capture <= 100.0

    def test_table5_requires_a_store(self):
        from repro.experiments.tables import table5_static_vs_dynamic

        with pytest.raises(ValueError, match="store"):
            table5_static_vs_dynamic(store=None)

    def test_table5_requires_single_error_cells(self, tmp_path):
        from repro.core import ShardStore
        from repro.experiments.tables import table5_static_vs_dynamic

        with pytest.raises(ValueError, match="errors=1"):
            table5_static_vs_dynamic(store=ShardStore(tmp_path), errors=4)
