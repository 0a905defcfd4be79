"""Tests for the Random Forest classifier."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier


def noisy_data(n=400, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 5))
    logit = 4 * (x[:, 0] - 0.5) + 2 * (x[:, 1] - 0.5)
    p = 1 / (1 + np.exp(-logit))
    y = (rng.uniform(size=n) < p).astype(int)
    return x, y


class TestValidation:
    def test_needs_at_least_one_tree(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict([[1.0]])

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit([[1.0], [2.0]], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            RandomForestClassifier().fit(np.empty((0, 2)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features_naming_the_cell(self, bad):
        """An ``inf`` midpoint used to grow an empty child with a NaN leaf."""
        x, y = noisy_data(n=40)
        x[13, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" on the way
            with pytest.raises(ValueError, match=r"x\[13, 4\]"):
                RandomForestClassifier(n_estimators=2).fit(x, y)
        forest = RandomForestClassifier(n_estimators=2, random_state=0).fit(*noisy_data(n=40))
        with pytest.raises(ValueError, match=r"x\[13, 4\]"):
            forest.predict_proba(x)
        with pytest.raises(ValueError, match="5 features"):
            forest.predict_proba(x[:, :3])

    def test_rejects_non_integral_and_non_binary_labels(self):
        x, y = noisy_data(n=40)
        for bad in (0.5, 1.5, 2, -1, np.nan):
            labels = y.astype(float)
            labels[9] = bad
            with pytest.raises(ValueError, match=r"y\[9\]"):
                RandomForestClassifier(n_estimators=2).fit(x, labels)

    @pytest.mark.parametrize("max_features", ["log2", 0, 6, 2.5])
    def test_max_features_checked_before_any_tree(self, max_features):
        x, y = noisy_data(n=40)
        forest = RandomForestClassifier(n_estimators=2, max_features=max_features)
        with pytest.raises(ValueError, match="max_features"):
            forest.fit(x, y)
        with pytest.raises(RuntimeError):
            forest.predict(x)  # nothing was grown


class TestLearning:
    def test_beats_chance_on_noisy_data(self):
        x, y = noisy_data()
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=6, random_state=0
        ).fit(x, y)
        assert (forest.predict(x) == y).mean() > 0.7

    def test_probabilities_valid(self):
        x, y = noisy_data()
        proba = (
            RandomForestClassifier(n_estimators=10, max_depth=4, random_state=0)
            .fit(x, y)
            .predict_proba(x)
        )
        assert proba.shape == (len(x), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_deterministic_under_seed(self):
        x, y = noisy_data()
        p1 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        p2 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        assert np.array_equal(p1, p2)

    def test_different_seeds_differ(self):
        x, y = noisy_data()
        p1 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        p2 = (
            RandomForestClassifier(n_estimators=5, random_state=4)
            .fit(x, y)
            .predict_proba(x)
        )
        assert not np.array_equal(p1, p2)

    def test_ensemble_smoother_than_single_tree(self):
        """Forest probabilities take more distinct values than one tree's."""
        x, y = noisy_data()
        single = RandomForestClassifier(n_estimators=1, max_depth=3, random_state=0)
        many = RandomForestClassifier(n_estimators=30, max_depth=3, random_state=0)
        p_single = single.fit(x, y).predict_proba(x)[:, 1]
        p_many = many.fit(x, y).predict_proba(x)[:, 1]
        assert len(np.unique(p_many)) > len(np.unique(p_single))


class TestFeatureImportances:
    def test_informative_features_rank_highest(self):
        x, y = noisy_data(n=600)
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=5, random_state=0
        ).fit(x, y)
        importances = forest.feature_importances()
        assert importances.shape == (5,)
        assert importances.sum() == pytest.approx(1.0)
        # Feature 0 carries twice the signal of feature 1; 2-4 are noise.
        assert importances[0] == max(importances)
        assert importances[0] > importances[2]
        assert importances[0] > importances[3]


class TestPinnedBits:
    """SHA-256 of the scores, recorded on the recursive implementation.

    The runner's ``U_c`` annotations feed every golden in the repo, so the
    forest's output bits are an interface: these two hashes were taken at
    the commit before the forest became array code and must not move.
    """

    def test_small_workload_scores(self):
        from repro.experiments.runner import UtilityAnnotations
        from repro.experiments.workloads import eval_workload

        workload = eval_workload("small")
        scores = UtilityAnnotations.train(workload, seed=97).scores
        in_record_order = np.array(
            [scores[record.notification_id] for record in workload.records]
        )
        assert len(in_record_order) == 1230
        assert hashlib.sha256(in_record_order.tobytes()).hexdigest() == (
            "9ec021384c3a2ddc58dfb0435194dd846c606ed7ffa9670f90263026de89c563"
        )

    def test_forest_factory_on_seeded_matrix(self):
        from repro.experiments.runner import _forest_factory

        rng = np.random.default_rng(2024)
        x = rng.normal(size=(2000, 12))
        x[:, 3] = np.round(x[:, 3])  # heavy duplicates
        x[:, 7] = x[:, 7] > 0  # a one-hot-like column
        y = (x[:, 0] + 0.5 * x[:, 3] + rng.normal(scale=0.7, size=2000) > 0).astype(int)
        forest = _forest_factory(97).fit(x[:1000], y[:1000])
        proba = forest.predict_proba(x)  # 1000 seen rows, 1000 unseen
        assert hashlib.sha256(proba.tobytes()).hexdigest() == (
            "518b1006be2e7e0bf1c7254994d1b98f06c5c3963abf06cbb1aec559698b9c00"
        )
        assert hashlib.sha256(forest.feature_importances().tobytes()).hexdigest() == (
            "5f3b109e2f81ba0061b0a7fe2a417a56b70125ca8ac2cb75b89155d1ca4fc8c8"
        )
