"""Tests for the CART decision tree."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 3))
    y = (x[:, 0] > 0.5).astype(int)
    return x, y


class TestFitValidation:
    def test_rejects_1d_x(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([1, 2, 3], [0, 1, 0])

    def test_rejects_misaligned_y(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1], [2]], [0])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1], [2]], [0, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_predict_wrong_width_raises(self):
        tree = DecisionTreeClassifier().fit([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            tree.predict([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features_naming_the_cell(self, bad):
        x, y = separable_data(n=20)
        x[7, 2] = bad
        x[11, 0] = bad  # later in row-major order: not the one reported
        with pytest.raises(ValueError, match=r"x\[7, 2\]"):
            DecisionTreeClassifier().fit(x, y)
        tree = DecisionTreeClassifier().fit(*separable_data(n=20))
        with pytest.raises(ValueError, match=r"x\[7, 2\]"):
            tree.predict_proba(x)

    @pytest.mark.parametrize("labels", [[0, 0.5, 1, 1], [0, 1.5, 1, 0], [0, np.nan, 1, 1]])
    def test_rejects_non_integral_labels(self, labels):
        """0.5 / 1.5 used to be truncated to 0 / 1 by ``astype(int)``."""
        with pytest.raises(ValueError, match=r"y\[1\]"):
            DecisionTreeClassifier().fit([[1.0], [2.0], [3.0], [4.0]], labels)

    def test_accepts_bool_and_integral_float_labels(self):
        x = [[1.0], [2.0], [3.0], [4.0]]
        as_int = DecisionTreeClassifier().fit(x, [0, 0, 1, 1]).predict_proba(x)
        for labels in ([False, False, True, True], [0.0, 0.0, 1.0, 1.0]):
            got = DecisionTreeClassifier().fit(x, labels).predict_proba(x)
            assert np.array_equal(got, as_int)

    @pytest.mark.parametrize("max_features", ["log2", 0, 4, 1.5, -1])
    def test_max_features_checked_before_growing(self, max_features):
        x, y = separable_data(n=20)
        tree = DecisionTreeClassifier(max_depth=0, max_features=max_features)
        with pytest.raises(ValueError, match="max_features"):
            tree.fit(x, y)  # max_depth=0 never reaches a split: fit itself checks

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=-1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)


class TestLearning:
    def test_fits_separable_data_perfectly(self):
        x, y = separable_data()
        tree = DecisionTreeClassifier().fit(x, y)
        assert (tree.predict(x) == y).all()

    def test_pure_node_is_leaf(self):
        tree = DecisionTreeClassifier().fit([[1.0], [2.0], [3.0]], [1, 1, 1])
        assert tree.depth() == 0
        assert tree.predict_proba([[9.0]])[0, 1] == 1.0

    def test_max_depth_zero_predicts_prior(self):
        x, y = separable_data()
        tree = DecisionTreeClassifier(max_depth=0).fit(x, y)
        assert tree.depth() == 0
        assert tree.predict_proba(x[:1])[0, 1] == pytest.approx(y.mean())

    def test_max_depth_respected(self):
        x, y = separable_data(n=400)
        for depth in (1, 2, 3):
            tree = DecisionTreeClassifier(max_depth=depth).fit(x, y)
            assert tree.depth() <= depth

    def test_min_samples_leaf_respected(self):
        x, y = separable_data(n=100)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(x, y)
        nodes = tree._check_fitted()
        leaf_sizes = nodes.samples[nodes.feature < 0]
        assert len(leaf_sizes) >= 2 and leaf_sizes.min() >= 20
        assert leaf_sizes.sum() == len(y)

    def test_probabilities_sum_to_one(self):
        x, y = separable_data()
        proba = DecisionTreeClassifier(max_depth=3).fit(x, y).predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_constant_features_yield_stump(self):
        x = np.ones((50, 2))
        y = np.array([0, 1] * 25)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.depth() == 0
        assert tree.predict_proba(x[:1])[0, 1] == pytest.approx(0.5)

    def test_deterministic_given_seed_with_feature_subsample(self):
        x, y = separable_data(n=300, seed=3)
        p1 = (
            DecisionTreeClassifier(max_features=2, random_state=7)
            .fit(x, y)
            .predict_proba(x)
        )
        p2 = (
            DecisionTreeClassifier(max_features=2, random_state=7)
            .fit(x, y)
            .predict_proba(x)
        )
        assert np.array_equal(p1, p2)

    def test_max_features_out_of_range(self):
        x, y = separable_data()
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=10).fit(x, y)

    def test_xor_needs_depth_two(self):
        """Depth-1 stump cannot learn XOR; depth-2 tree can."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        stump = DecisionTreeClassifier(max_depth=1).fit(x, y)
        deep = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert (stump.predict(x) == y).mean() < 0.75
        assert (deep.predict(x) == y).mean() > 0.95

    def test_node_count_consistent_with_depth(self):
        x, y = separable_data()
        tree = DecisionTreeClassifier(max_depth=1).fit(x, y)
        assert tree.node_count() == 3  # root + two leaves
