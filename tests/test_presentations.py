"""Tests for the audio presentation ladder generator."""

import math

import pytest

from repro.core.presentations import (
    BYTES_PER_SECOND,
    METADATA_SIZE_BYTES,
    AudioPresentationSpec,
    build_audio_ladder,
    logarithmic_duration_utility,
    polynomial_duration_utility,
)


class TestDurationUtilityCurves:
    def test_logarithmic_matches_paper_constants(self):
        # Eq. 8: util(d) = -0.397 + 0.352 log(1 + d)
        assert logarithmic_duration_utility(10.0) == pytest.approx(
            -0.397 + 0.352 * math.log(11.0)
        )

    def test_logarithmic_clamped_at_zero_for_tiny_durations(self):
        assert logarithmic_duration_utility(0.0) == 0.0
        assert logarithmic_duration_utility(1.0) == 0.0  # raw fit is negative

    def test_logarithmic_monotone_over_survey_range(self):
        values = [logarithmic_duration_utility(d) for d in (5, 10, 20, 30, 40)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_logarithmic_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            logarithmic_duration_utility(-1.0)

    def test_polynomial_matches_paper_constants(self):
        # Eq. 9: util(d) = 0.253 (1 - d/40)^2.087
        assert polynomial_duration_utility(10.0) == pytest.approx(
            0.253 * (0.75) ** 2.087
        )

    def test_polynomial_zero_beyond_horizon(self):
        assert polynomial_duration_utility(40.0) == 0.0
        assert polynomial_duration_utility(50.0) == 0.0


class TestAudioLadder:
    def test_default_ladder_has_paper_levels(self):
        ladder = build_audio_ladder()
        # level 0 + metadata + five preview durations
        assert ladder.max_level == 6
        assert ladder.size(0) == 0
        assert ladder.size(1) == METADATA_SIZE_BYTES

    def test_preview_sizes_follow_160kbps(self):
        # d-second preview = d x 20 KB at 160 kbps (Section V-C)
        ladder = build_audio_ladder()
        for level, duration in zip(range(2, 7), (5, 10, 20, 30, 40)):
            expected = METADATA_SIZE_BYTES + duration * BYTES_PER_SECOND
            assert ladder.size(level) == expected
        assert BYTES_PER_SECOND == 20_000

    def test_richest_level_has_unit_utility(self):
        ladder = build_audio_ladder()
        assert ladder.utility(6) == pytest.approx(1.0)

    def test_metadata_utility_fraction(self):
        ladder = build_audio_ladder()
        assert ladder.utility(1) == pytest.approx(0.01)

    def test_utilities_strictly_increase(self):
        ladder = build_audio_ladder()
        utilities = [ladder.utility(level) for level in range(7)]
        assert all(b > a for a, b in zip(utilities, utilities[1:]))

    def test_preview_gradients_diminish(self):
        """Diminishing returns *per byte* across the preview levels.

        (The duration steps are uneven -- 5,10,20,30,40 s -- so per-level
        gains are not monotone, but the utility-size gradients are, which
        is the property the greedy MCKP's optimality argument rests on.)
        """
        ladder = build_audio_ladder()
        gradients = [
            (ladder.utility(level + 1) - ladder.utility(level))
            / (ladder.size(level + 1) - ladder.size(level))
            for level in range(2, 6)
        ]
        assert all(a >= b for a, b in zip(gradients, gradients[1:]))

    def test_custom_spec_durations(self):
        spec = AudioPresentationSpec(preview_durations=(10.0, 20.0))
        ladder = build_audio_ladder(spec)
        assert ladder.max_level == 3

    def test_spec_rejects_unsorted_durations(self):
        with pytest.raises(ValueError):
            AudioPresentationSpec(preview_durations=(10.0, 5.0))

    def test_spec_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            AudioPresentationSpec(preview_durations=(0.0, 5.0))
