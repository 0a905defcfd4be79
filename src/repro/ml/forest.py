"""Random Forest classifier (Breiman 2001), built on the CART trees.

The paper: "we train a binary classifier using the well-known Random Forest
(RF) classification method [7].  RF is an ensemble of many decision trees
that determines the class of a notification along with a confidence score in
the form of probability Pr(x_i) for the predicted class."

The forest bootstraps the training set per tree, subsamples ``sqrt(f)``
features per split, and averages leaf probabilities across trees --
``predict_proba`` is the mean of tree probabilities, which is what
:class:`repro.core.utility.LearnedContentUtility` converts into ``U_c``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, check_features, check_training_set


class RandomForestClassifier:
    """Bagged ensemble of probability-leaf CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_split / min_samples_leaf:
        Passed through to each tree.
    max_features:
        Per-split feature subsample; defaults to ``"sqrt"`` per Breiman.
    bootstrap:
        Draw a bootstrap sample per tree (True, standard RF) or train every
        tree on the full set (feature-subsampling-only ensemble).
    random_state:
        Master seed; per-tree seeds are derived deterministically.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("need at least one tree")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._trees: list[DecisionTreeClassifier] = []
        self._n_features = 0

    def fit(self, x, y) -> "RandomForestClassifier":
        x, y, n_candidates = check_training_set(x, y, self.max_features)
        self._n_features = x.shape[1]
        n = len(x)
        rng = np.random.default_rng(self.random_state)
        self._trees = []
        for tree_index in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            sample = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree._fit_checked(x[sample], y[sample], n_candidates)
            self._trees.append(tree)
        return self

    def _check_fitted(self) -> None:
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")

    def predict_proba(self, x) -> np.ndarray:
        """Mean of per-tree class probabilities, shape ``(n, 2)``."""
        self._check_fitted()
        x = check_features(x, self._n_features)
        total = np.zeros((len(x), 2))
        for tree in self._trees:
            total += tree._proba_checked(x)
        return total / len(self._trees)

    def predict(self, x) -> np.ndarray:
        """Majority-probability class at the 0.5 threshold."""
        return (self.predict_proba(x)[:, 1] >= 0.5).astype(int)

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances (normalized to sum to 1).

        A lightweight proxy for impurity-decrease importances: how often
        each feature is chosen for a split across the forest, weighted by
        the number of samples at the split node.
        """
        self._check_fitted()
        importances = np.zeros(self._n_features)
        for tree in self._trees:
            nodes = tree._check_fitted()
            internal = nodes.feature >= 0
            # Sums of integer counts are exact in float64, in any order.
            importances += np.bincount(
                nodes.feature[internal],
                weights=nodes.samples[internal],
                minlength=self._n_features,
            )
        total = importances.sum()
        return importances / total if total > 0 else importances
