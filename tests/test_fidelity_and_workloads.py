"""Tests for the fidelity measures and the synthetic workload generators."""

import math

import pytest

from repro.fidelity import (
    DEPOT,
    classify_frames,
    compare_recognition,
    compare_schedules,
    is_complete,
    mean_squared_error,
    percent_bad_frames,
    percent_matching,
    percent_within_tolerance,
    psnr,
    schedule_cost,
    signal_to_noise_db,
    snr_loss_db,
)
from repro.fidelity.confidence import RecognitionResult
from repro.workloads import (
    INFEASIBLE,
    ascii_text,
    bytes_to_words,
    key_bytes,
    moving_scene,
    speech_like_signal,
    synthetic_scene,
    text_to_bytes,
    thermal_image_with_objects,
    words_to_bytes,
)


class TestPsnrAndSnr:
    def test_identical_images_have_max_psnr(self):
        image = [10, 20, 30, 255]
        assert psnr(image, image) == 100.0

    def test_psnr_decreases_with_noise(self):
        reference = [100] * 64
        slightly_off = [101] * 64
        very_off = [200] * 64
        assert psnr(reference, slightly_off) > psnr(reference, very_off)

    def test_mse_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1])

    def test_snr_of_identical_signals(self):
        signal = [100, -50, 25, 3]
        assert signal_to_noise_db(signal, signal) == 100.0
        assert snr_loss_db(signal, signal) == 0.0

    def test_snr_known_value(self):
        reference = [10.0, 10.0, 10.0, 10.0]
        observed = [11.0, 9.0, 11.0, 9.0]
        expected = 10.0 * math.log10(400.0 / 4.0)
        assert abs(signal_to_noise_db(reference, observed) - expected) < 1e-9

    def test_psnr_of_all_zero_images(self):
        """Zero-error on an all-zero image is still a perfect reproduction."""
        zeros = [0, 0, 0, 0]
        assert psnr(zeros, zeros) == 100.0
        # Any deviation from an all-zero reference yields a finite PSNR.
        assert 0.0 < psnr(zeros, [0, 0, 0, 8]) < 100.0

    def test_psnr_of_empty_images_rejected(self):
        with pytest.raises(ValueError):
            psnr([], [])

    def test_snr_of_silent_reference_is_degenerate(self):
        """An all-zero reference has no signal energy: SNR pins to 0 dB,
        for the identical and the corrupted observation alike."""
        silence = [0.0, 0.0, 0.0]
        assert signal_to_noise_db(silence, silence) == 0.0
        assert signal_to_noise_db(silence, [1.0, 0.0, 0.0]) == 0.0
        assert snr_loss_db(silence, silence) == 100.0

    def test_snr_is_clamped_for_overwhelming_noise(self):
        reference = [1e-6, 1e-6]
        observed = [1e6, -1e6]
        assert signal_to_noise_db(reference, observed) == -100.0

    def test_snr_of_empty_signals_rejected(self):
        with pytest.raises(ValueError):
            signal_to_noise_db([], [])

    def test_snr_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signal_to_noise_db([1.0, 2.0], [1.0])


class TestByteAndFrameMeasures:
    def test_percent_matching(self):
        assert percent_matching([1, 2, 3, 4], [1, 2, 0, 4]) == 75.0
        assert percent_matching([], []) == 100.0
        assert percent_matching([1, 2], [1, 2, 3, 4]) == 50.0

    def test_percent_within_tolerance(self):
        assert percent_within_tolerance([10, 20], [11, 28], tolerance=2) == 50.0

    def test_percent_matching_length_mismatch(self):
        """A corrupted run can emit too little or too much output; the
        missing/extra positions count as mismatches against the longer
        length, so truncation is penalized rather than ignored."""
        # Truncated output: 2 of 4 positions match.
        assert percent_matching([1, 2, 3, 4], [1, 2]) == 50.0
        # Overlong output: extra positions dilute the score symmetrically.
        assert percent_matching([1, 2], [1, 2, 9, 9, 9, 9]) == pytest.approx(100.0 / 3.0)
        # Entirely missing output matches nothing.
        assert percent_matching([1, 2, 3], []) == 0.0
        assert percent_matching([], [7]) == 0.0

    def test_percent_within_tolerance_length_mismatch_and_empty(self):
        assert percent_within_tolerance([10, 20, 30], [10], tolerance=1) == pytest.approx(100.0 / 3.0)
        assert percent_within_tolerance([], [], tolerance=1) == 100.0

    def test_frame_classification_uses_type_budgets(self):
        reference = [[100] * 16, [100] * 16, [100] * 16]
        observed_clean = [list(frame) for frame in reference]
        qualities = classify_frames(reference, observed_clean, ["I", "P", "B"])
        assert percent_bad_frames(qualities) == 0.0

        observed_noisy = [[100] * 16, [100] * 16, [60] * 16]
        qualities = classify_frames(reference, observed_noisy, ["I", "P", "B"])
        assert qualities[2].bad and not qualities[0].bad
        assert percent_bad_frames(qualities) == pytest.approx(100.0 / 3.0)


class TestScheduleMeasure:
    COSTS = [
        [INFEASIBLE, 50.0, INFEASIBLE],
        [INFEASIBLE, INFEASIBLE, 30.0],
        [INFEASIBLE, INFEASIBLE, INFEASIBLE],
    ]

    def test_complete_schedule(self):
        assert is_complete([1, 2, DEPOT], 3)
        assert not is_complete([1, 1, DEPOT], 3)      # duplicated successor
        assert not is_complete([5, DEPOT, DEPOT], 3)  # out of range

    def test_schedule_cost_counts_vehicles_once(self):
        cost = schedule_cost([1, 2, DEPOT], self.COSTS, pull_cost=100.0)
        assert cost == 50.0 + 30.0 + 100.0

    def test_compare_schedules_optimal(self):
        optimal = schedule_cost([1, 2, DEPOT], self.COSTS, pull_cost=100.0)
        comparison = compare_schedules([1, 2, DEPOT], optimal, self.COSTS,
                                       pull_cost=100.0, infeasible_marker=INFEASIBLE)
        assert comparison.optimal and comparison.complete
        worse = compare_schedules([DEPOT, DEPOT, DEPOT], optimal, self.COSTS,
                                  pull_cost=100.0, infeasible_marker=INFEASIBLE)
        assert not worse.optimal and worse.extra_cost_percent > 0


class TestRecognitionMeasure:
    def test_recognised_within_tolerance(self):
        reference = RecognitionResult(best_window=4, best_class=1, confidence=0.8)
        observed = RecognitionResult(best_window=4, best_class=1, confidence=0.75)
        assert compare_recognition(reference, observed).recognized

    def test_wrong_location_is_not_recognised(self):
        reference = RecognitionResult(best_window=4, best_class=1, confidence=0.8)
        observed = RecognitionResult(best_window=5, best_class=1, confidence=0.8)
        comparison = compare_recognition(reference, observed)
        assert not comparison.recognized and not comparison.location_correct


class TestWorkloads:
    def test_synthetic_scene_is_deterministic(self):
        assert synthetic_scene(16, 16, seed=3).pixels == synthetic_scene(16, 16, seed=3).pixels
        assert synthetic_scene(16, 16, seed=3).pixels != synthetic_scene(16, 16, seed=4).pixels

    def test_scene_pixels_in_range(self):
        image = synthetic_scene(20, 12, seed=1)
        assert len(image.pixels) == 240
        assert all(0 <= value <= 255 for value in image.pixels)

    def test_moving_scene_frames_differ(self):
        frames = moving_scene(16, 16, 4, seed=0)
        assert len(frames) == 4
        assert frames[0].pixels != frames[1].pixels

    def test_speech_signal_is_16bit(self):
        signal = speech_like_signal(500, seed=7)
        assert len(signal) == 500
        assert all(-32768 <= sample <= 32767 for sample in signal)
        assert max(abs(sample) for sample in signal) > 1000

    def test_text_and_word_packing_roundtrip(self):
        text = ascii_text(100, seed=5)
        data = text_to_bytes(text)
        words = bytes_to_words(data)
        assert words_to_bytes(words, len(data)) == data
        assert all(-(2**31) <= word < 2**31 for word in words)

    def test_key_bytes_bounds(self):
        key = key_bytes(16, seed=1)
        assert len(key) == 16 and all(0 <= byte <= 255 for byte in key)
        with pytest.raises(ValueError):
            key_bytes(2)

    def test_thermal_image_places_objects(self):
        image, placements = thermal_image_with_objects(24, 24, 8, object_count=2, seed=2)
        assert len(placements) == 2
        classes = {placement[0] for placement in placements}
        assert classes == {0, 1}
        # Hot pixels exist where the objects were placed.
        _, x, y = placements[0]
        assert image.at(x + 1, y) > 150 or image.at(x, y) > 150
