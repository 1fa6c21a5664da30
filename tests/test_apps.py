"""Integration tests: every benchmark application compiles, runs and is correct."""

import pytest

from repro.apps import APP_ORDER, create_app, small_suite
from repro.apps.blowfish.app import initial_box_constants
from repro.apps.blowfish.reference import BlowfishReference
from repro.apps.mcf.app import MAX_TRIPS
from repro.fidelity import schedule_cost, signal_to_noise_db
from repro.sim import Outcome


@pytest.fixture(scope="module")
def suite():
    return small_suite()


class TestSuiteBasics:
    def test_registry_contains_all_paper_apps(self, suite):
        assert set(suite) == set(APP_ORDER)
        assert set(APP_ORDER) == {"susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"}

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_golden_run_completes(self, suite, name):
        app = suite[name]
        golden = app.golden(0)
        assert golden.result.outcome == Outcome.COMPLETED
        assert golden.executed > 1000

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_static_analysis_tags_instructions(self, suite, name):
        app = suite[name]
        report = app.tagging_report()
        assert 0 < report.static_tagged < report.static_total
        golden = app.golden(0)
        assert 0.0 < golden.result.statistics.tagged_fraction < 1.0

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_golden_output_scores_perfect(self, suite, name):
        app = suite[name]
        golden = app.golden(0)
        fidelity = app.score_run(golden.result, seed=0)
        assert fidelity is not None and fidelity.acceptable

    def test_create_app_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            create_app("bzip2")


class TestAdpcm:
    def test_decoded_output_tracks_input(self, suite):
        app = suite["adpcm"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        decoded = app.read_output(golden.result, workload)
        snr = signal_to_noise_db(workload["pcm"], decoded)
        assert snr > 15.0, "ADPCM at 4:1 compression should stay reasonably faithful"


class TestBlowfish:
    def test_roundtrip_recovers_plaintext(self, suite):
        app = suite["blowfish"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        assert app.read_output(golden.result, workload) == workload["text_bytes"]

    def test_simulated_ciphertext_matches_reference(self, suite):
        app = suite["blowfish"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        cipher = BlowfishReference(initial_box_constants(18),
                                   initial_box_constants(1024, seed=0x85A308D3),
                                   workload["key"])
        expected = cipher.encrypt_words(workload["words"])
        observed = [int(v) for v in golden.result.memory.read_block(
            golden.result.program.data_address("data_enc"), len(workload["words"]))]
        assert observed == expected

    def test_reference_decrypt_inverts_encrypt(self):
        cipher = BlowfishReference(initial_box_constants(18),
                                   initial_box_constants(1024, seed=0x85A308D3),
                                   [1, 2, 3, 4, 5, 6, 7, 8])
        left, right = cipher.encrypt_block(0x01234567, 0x89ABCDEF)
        assert cipher.decrypt_block(left, right) == (0x01234567, 0x89ABCDEF)


def brute_force_optimum(instance):
    """Cheapest schedule cost by exhaustive search, independent of MCF.

    A depth-first walk over injective successor maps restricted to
    ``instance.feasible``; feasible links strictly advance in time, so
    every such map is a set of vehicle chains.  All costs are positive,
    so a partial cost at or above the best so far prunes the branch.
    """
    count = instance.trip_count
    used = [False] * count
    best = [float("inf")]

    def visit(trip, cost):
        if cost >= best[0]:
            return
        if trip == count:
            best[0] = cost
            return
        for successor in range(count):
            if instance.feasible[trip][successor] and not used[successor]:
                used[successor] = True
                visit(trip + 1, cost + instance.deadhead[trip][successor])
                used[successor] = False
        visit(trip + 1, cost + instance.pull_cost)

    visit(0, 0.0)
    return best[0]


#: Optimal schedule costs per trip count and seed, computed with an
#: independent linear-assignment solver (scipy's linear_sum_assignment).
PINNED_OPTIMA = {
    6: {0: 1039.0, 1: 1322.0, 2: 954.0, 3: 1702.0},
    10: {0: 1462.0, 1: 1785.0, 2: 1420.0, 3: 1850.0},
    MAX_TRIPS: {0: 2937.0, 1: 3251.0},
}


def golden_schedule_cost(app, seed):
    instance = app.generate_workload(seed)["instance"]
    return schedule_cost(app.golden(seed).reference_output,
                         instance.cost_matrix(), instance.pull_cost)


class TestMcf:
    def test_golden_schedule_is_optimal(self, suite):
        app = suite["mcf"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        fidelity = app.score(golden.reference_output,
                             app.read_output(golden.result, workload), workload)
        assert fidelity.detail["optimal"] == 1.0
        assert fidelity.detail["cost"] == PINNED_OPTIMA[app.trips][0]
        assert fidelity.detail["optimal_cost"] == PINNED_OPTIMA[app.trips][0]

    @pytest.mark.parametrize("trips", [6, 10])
    def test_multiple_seeds_remain_optimal(self, trips):
        app = create_app("mcf", trips=trips)
        for seed in range(4):
            optimum = brute_force_optimum(app.generate_workload(seed)["instance"])
            assert golden_schedule_cost(app, seed) == optimum

    @pytest.mark.parametrize("trips", sorted(PINNED_OPTIMA))
    def test_golden_cost_matches_pinned_optima(self, trips):
        app = create_app("mcf", trips=trips)
        assert {seed: golden_schedule_cost(app, seed)
                for seed in PINNED_OPTIMA[trips]} == PINNED_OPTIMA[trips]

    def test_non_optimal_schedule_is_scored_against_golden_cost(self, suite):
        app = suite["mcf"]
        workload = app.generate_workload(0)
        reference = app.golden(0).reference_output
        all_depot = [-1] * len(reference)
        fidelity = app.score(reference, all_depot, workload)
        optimum = PINNED_OPTIMA[app.trips][0]
        assert fidelity.detail["optimal"] == 0.0
        assert fidelity.detail["optimal_cost"] == optimum
        assert fidelity.score == pytest.approx(
            100.0 * (400.0 * len(reference) - optimum) / optimum)


class TestSusan:
    def test_edges_detected_in_structured_scene(self, suite):
        app = suite["susan"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        edges = app.read_output(golden.result, workload)
        assert any(value > 0 for value in edges), "the synthetic scene has edges"
        assert all(0 <= value <= 255 for value in edges)


class TestMpeg:
    def test_decoded_frames_resemble_input(self, suite):
        app = suite["mpeg"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        decoded = app.read_output(golden.result, workload)
        for frame, original in zip(decoded, workload["frames"]):
            snr = signal_to_noise_db(original.pixels, frame)
            assert snr > 20.0, "lossy codec should still track the input frame"


class TestGsm:
    def test_decoded_speech_tracks_input(self, suite):
        app = suite["gsm"]
        golden = app.golden(0)
        workload = app.generate_workload(0)
        decoded = app.read_output(golden.result, workload)
        snr = signal_to_noise_db(workload["pcm"], decoded)
        assert snr > 5.0, "LPC codec output should correlate with the input speech"


class TestArt:
    def test_golden_run_recognises_an_object(self, suite):
        app = suite["art"]
        golden = app.golden(0)
        recognition = golden.reference_output
        assert recognition.best_window >= 0
        assert recognition.best_class in (0, 1)
        assert recognition.confidence > 0.0
