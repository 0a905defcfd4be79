"""Tests for probability-calibration diagnostics."""

import numpy as np
import pytest

from repro.ml.calibration import (
    brier_score,
    calibration_curve,
    expected_calibration_error,
    render_reliability,
)


class TestBrierScore:
    def test_perfect_predictions(self):
        assert brier_score([0, 1, 1], [0.0, 1.0, 1.0]) == 0.0

    def test_constant_half(self):
        assert brier_score([0, 1, 0, 1], [0.5] * 4) == pytest.approx(0.25)

    def test_confidently_wrong_is_worst(self):
        assert brier_score([0, 1], [1.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            brier_score([0, 1], [0.5])
        with pytest.raises(ValueError):
            brier_score([0, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            brier_score([0, 1], [0.5, 1.5])
        with pytest.raises(ValueError):
            brier_score([], [])


class TestCalibrationCurve:
    def test_bins_cover_predictions(self):
        y = [0, 0, 1, 1]
        p = [0.05, 0.15, 0.85, 0.95]
        bins = calibration_curve(y, p, n_bins=10)
        assert sum(b.count for b in bins) == 4
        assert all(b.lower < b.upper for b in bins)

    def test_probability_one_lands_in_last_bin(self):
        bins = calibration_curve([1], [1.0], n_bins=10)
        assert len(bins) == 1
        assert bins[0].upper == 1.0

    def test_calibration_last_bin_closed_regardless_of_edge_rounding(self):
        # The closing bin is keyed on its index, not on `upper == 1.0`: p ==
        # 1.0 must always be binned, also for bin counts whose edge grid is
        # inexact.
        for n_bins in (3, 7, 10, 13):
            y = np.array([1, 0, 1, 1])
            p = np.array([1.0, 0.0, 0.5, 1.0])
            bins = calibration_curve(y, p, n_bins=n_bins)
            assert sum(b.count for b in bins) == len(p)
            assert bins[-1].count >= 2  # both p == 1.0 samples landed

    def test_observed_rate_correct(self):
        y = [1, 0, 1, 1]
        p = [0.72, 0.74, 0.76, 0.78]
        bins = calibration_curve(y, p, n_bins=10)
        assert len(bins) == 1
        assert bins[0].observed_rate == pytest.approx(0.75)
        assert bins[0].mean_predicted == pytest.approx(0.75)
        assert bins[0].gap == pytest.approx(0.0)

    def test_render(self):
        text = render_reliability(calibration_curve([1, 0], [0.9, 0.1]))
        assert "predicted" in text
        assert "[0.9,1.0)" in text or "[0.8,0.9)" in text


class TestEce:
    def test_well_calibrated_near_zero(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=20_000)
        y = (rng.uniform(size=20_000) < p).astype(int)
        assert expected_calibration_error(y, p) < 0.02

    def test_miscalibrated_detected(self):
        rng = np.random.default_rng(1)
        p = np.full(5000, 0.9)
        y = (rng.uniform(size=5000) < 0.5).astype(int)  # true rate 0.5
        assert expected_calibration_error(y, p) == pytest.approx(0.4, abs=0.03)

    def test_forest_probabilities_reasonably_calibrated(self):
        """The RF's averaged leaves should beat a constant predictor."""
        from repro.experiments.workloads import eval_workload
        from repro.ml.dataset import build_training_set
        from repro.ml.forest import RandomForestClassifier

        workload = eval_workload("small")
        x, y = build_training_set(workload.records)
        split = int(0.7 * len(x))
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=8, min_samples_leaf=5, random_state=0
        ).fit(x[:split], y[:split])
        p = forest.predict_proba(x[split:])[:, 1]
        held_out = y[split:]
        constant = np.full(len(held_out), y[:split].mean())
        assert brier_score(held_out, p) < brier_score(held_out, constant)
        assert expected_calibration_error(held_out, p) < 0.15
