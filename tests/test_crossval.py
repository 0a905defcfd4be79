"""Tests for k-fold cross validation."""

import numpy as np
import pytest

from repro.ml.crossval import cross_validate, stratified_kfold_indices


class TestStratified:
    def test_preserves_class_balance(self):
        labels = np.array([0] * 40 + [1] * 10)
        for _, test in stratified_kfold_indices(labels, n_folds=5, random_state=0):
            test_labels = labels[test]
            assert (test_labels == 1).sum() == 2
            assert (test_labels == 0).sum() == 8

    def test_folds_partition_the_data(self):
        labels = np.array([0, 1, 0] * 8 + [1])
        seen = []
        for train, test in stratified_kfold_indices(labels, n_folds=5, random_state=0):
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 25
            seen.extend(test)
        assert sorted(seen) == list(range(25))

    def test_shuffle_deterministic_by_seed(self):
        labels = np.array([0, 1] * 10)
        a = [tuple(t) for _, t in stratified_kfold_indices(labels, 4, random_state=1)]
        b = [tuple(t) for _, t in stratified_kfold_indices(labels, 4, random_state=1)]
        assert a == b

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(ValueError, match="at least 2 folds"):
            list(stratified_kfold_indices(np.array([0, 1] * 5), n_folds=1))

    def test_rare_class_smaller_than_folds_rejected(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValueError):
            list(stratified_kfold_indices(labels, n_folds=5))


class _MajorityModel:
    """Predicts the training majority class."""

    def fit(self, x, y):
        self._label = int(round(float(np.mean(y))))
        return self

    def predict(self, x):
        return np.full(len(x), self._label, dtype=int)


class _PerfectModel:
    """Cheats: predicts from the first feature (which equals the label)."""

    def fit(self, x, y):
        return self

    def predict(self, x):
        return (np.asarray(x)[:, 0] > 0.5).astype(int)


class TestCrossValidate:
    def test_perfect_model_scores_one(self):
        y = np.array([0, 1] * 20)
        x = y.reshape(-1, 1).astype(float)
        result = cross_validate(_PerfectModel, x, y, n_folds=5, random_state=0)
        assert result.accuracy == 1.0
        assert result.precision == 1.0
        assert result.recall == 1.0

    def test_majority_model_scores_base_rate(self):
        y = np.array([0] * 30 + [1] * 10)
        x = np.zeros((40, 1))
        result = cross_validate(_MajorityModel, x, y, n_folds=5, random_state=0)
        assert result.accuracy == pytest.approx(0.75)
        assert result.recall == 0.0

    def test_fold_count_respected(self):
        y = np.array([0, 1] * 15)
        x = y.reshape(-1, 1).astype(float)
        result = cross_validate(_PerfectModel, x, y, n_folds=3)
        assert len(result.fold_accuracy) == 3

    def test_summary_format(self):
        y = np.array([0, 1] * 15)
        x = y.reshape(-1, 1).astype(float)
        summary = cross_validate(_PerfectModel, x, y).summary()
        assert "accuracy=1.000" in summary

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            cross_validate(_PerfectModel, np.zeros((5, 1)), np.zeros(4))
