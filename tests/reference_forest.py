"""Reference oracle: the recursive CART tree and forest fold.

This is the implementation ``repro.ml.tree`` / ``repro.ml.forest`` had
before the node table: a ``_Node`` object graph grown by recursion, one
Python pass per candidate feature in ``_best_split`` and one ``while``
per row in ``predict_proba``.  The functions are moved here verbatim so
the array code in ``src/`` has something to be bit-identical *to*
(``tests/test_forest_differential.py``).  It validates nothing -- it is
only ever fed inputs the production ``fit`` accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    """One tree node; leaves carry class-1 probability."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    probability: float = 0.0  # P(class == 1) at this node
    samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(positive: float, total: float) -> float:
    """Gini impurity of a node with ``positive`` of ``total`` class-1."""
    if total <= 0:
        return 0.0
    p = positive / total
    return 2.0 * p * (1.0 - p)


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, weighted-impurity) over candidate features.

    Returns ``None`` when no valid split exists (pure node or too few
    samples on one side for every threshold).
    """
    n = len(y)
    total_pos = float(y.sum())
    parent = _gini(total_pos, n)
    best: tuple[int, float, float] | None = None
    best_score = parent - 1e-12  # require strict improvement

    for feature in feature_indices:
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_y = y[order]
        # Candidate split positions: between distinct consecutive values.
        distinct = np.nonzero(np.diff(sorted_values) > 0)[0]
        if distinct.size == 0:
            continue
        left_counts = distinct + 1  # samples on the left of each candidate
        pos_prefix = np.cumsum(sorted_y)
        left_pos = pos_prefix[distinct].astype(float)
        right_counts = n - left_counts
        right_pos = total_pos - left_pos

        valid = (left_counts >= min_samples_leaf) & (
            right_counts >= min_samples_leaf
        )
        if not valid.any():
            continue
        lc = left_counts[valid].astype(float)
        rc = right_counts[valid].astype(float)
        lp = left_pos[valid]
        rp = right_pos[valid]
        left_gini = 2.0 * (lp / lc) * (1.0 - lp / lc)
        right_gini = 2.0 * (rp / rc) * (1.0 - rp / rc)
        weighted = (lc * left_gini + rc * right_gini) / n
        idx = int(np.argmin(weighted))
        score = float(weighted[idx])
        if score < best_score:
            positions = distinct[valid]
            split_at = int(positions[idx])
            threshold = 0.5 * (
                float(sorted_values[split_at]) + float(sorted_values[split_at + 1])
            )
            best_score = score
            best = (int(feature), threshold, score)
    return best


class ReferenceTree:
    """The recursive ``DecisionTreeClassifier`` (hyper-parameters unchecked)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self._n_features = 0

    def fit(self, x, y) -> "ReferenceTree":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        self._n_features = x.shape[1]
        rng = np.random.default_rng(self.random_state)
        self._root = self._grow(x, y, depth=0, rng=rng)
        return self

    def _candidate_features(self, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self._n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.ceil(np.sqrt(self._n_features))))
        else:
            k = int(self.max_features)
            if not 1 <= k <= self._n_features:
                raise ValueError(
                    f"max_features must be in [1, {self._n_features}], got {k}"
                )
        return rng.choice(self._n_features, size=k, replace=False)

    def _grow(
        self, x: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        node = _Node(probability=float(y.mean()), samples=len(y))
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(y) < self.min_samples_split
            or node.probability in (0.0, 1.0)
        ):
            return node
        split = _best_split(
            x, y, self._candidate_features(rng), self.min_samples_leaf
        )
        if split is None:
            return node
        feature, threshold, _ = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, rng)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, rng)
        return node

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities, shape ``(n, 2)``; column 1 = P(clicked)."""
        root = self._root
        x = np.asarray(x, dtype=float)
        p1 = np.empty(len(x))
        for row_index in range(len(x)):
            node = root
            row = x[row_index]
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            p1[row_index] = node.probability
        return np.column_stack([1.0 - p1, p1])

    def preorder(self) -> list[tuple[int, float, int, float]]:
        """``(feature, threshold, samples, probability)`` per node, pre-order."""
        rows: list[tuple[int, float, int, float]] = []

        def walk(node: _Node) -> None:
            rows.append((node.feature, node.threshold, node.samples, node.probability))
            if not node.is_leaf:
                walk(node.left)
                walk(node.right)

        walk(self._root)
        return rows

    def depth(self) -> int:
        """Realized depth of the fitted tree."""

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)


class ReferenceForest:
    """The forest fold over :class:`ReferenceTree` (same seeds, same bootstrap)."""

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
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._trees: list[ReferenceTree] = []
        self._oob_indices: list[np.ndarray] = []
        self._n_features = 0

    def fit(self, x, y) -> "ReferenceForest":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        self._n_features = x.shape[1]
        n = len(x)
        rng = np.random.default_rng(self.random_state)
        self._trees = []
        self._oob_indices = []
        for tree_index in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                oob = np.setdiff1d(np.arange(n), np.unique(sample))
            else:
                sample = np.arange(n)
                oob = np.array([], dtype=int)
            tree = ReferenceTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree.fit(x[sample], y[sample])
            self._trees.append(tree)
            self._oob_indices.append(oob)
        self._train_x = x
        self._train_y = y
        return self

    def predict_proba(self, x) -> np.ndarray:
        """Mean of per-tree class probabilities, shape ``(n, 2)``."""
        x = np.asarray(x, dtype=float)
        total = np.zeros((len(x), 2))
        for tree in self._trees:
            total += tree.predict_proba(x)
        return total / len(self._trees)

    def oob_score(self) -> float:
        """Out-of-bag accuracy; raises ``RuntimeError`` without OOB samples."""
        n = len(self._train_x)
        votes = np.zeros(n)
        counts = np.zeros(n)
        for tree, oob in zip(self._trees, self._oob_indices):
            if oob.size == 0:
                continue
            votes[oob] += tree.predict_proba(self._train_x[oob])[:, 1]
            counts[oob] += 1
        seen = counts > 0
        if not seen.any():
            raise RuntimeError("no out-of-bag samples; add trees or data")
        predictions = (votes[seen] / counts[seen]) >= 0.5
        return float((predictions.astype(int) == self._train_y[seen]).mean())

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances, sample-weighted, normalized."""
        importances = np.zeros(self._n_features)

        def walk(node) -> None:
            if node.is_leaf:
                return
            importances[node.feature] += node.samples
            walk(node.left)
            walk(node.right)

        for tree in self._trees:
            walk(tree._root)
        total = importances.sum()
        return importances / total if total > 0 else importances
