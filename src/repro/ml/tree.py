"""CART decision trees (binary splits, Gini impurity) as array code.

The paper trains a Random Forest [7] in Weka; this is the from-scratch
substrate it rests on.  Numeric features only (the feature extractor
one-hot-encodes categoricals), binary classification with class-probability
leaves so the forest can expose calibrated-ish ``predict_proba`` scores --
the quantity RichNote turns into content utility ``U_c``.

A fitted tree *is* a flat :class:`NodeTable` in depth-first pre-order
(node 0 is the root, an internal node's left child is the next row).
Split search evaluates every candidate feature of a node in one pass over
``(k, n)`` arrays; prediction moves the whole batch down one level per
numpy step.  Every tree and every score is bit-identical to the recursive
per-feature / per-row reference kept in ``tests/reference_forest.py``,
which rests on three things this module must keep:

1. **RNG draws.**  ``rng.choice`` is called exactly once per node that
   attempts a split, nodes are visited in depth-first pre-order, and the
   forest's bootstrap and per-tree seeds are untouched.  Growing the tree
   breadth-first or level by level would reorder those draws and is
   therefore not an option.
2. **Impurities are functions of integer counts.**  The ``2 p (1 - p)``
   and weighted-impurity float expressions are evaluated elementwise on
   the same (left count, left positives) pairs, so evaluating a threshold
   between equal values and masking it to ``inf`` afterwards, instead of
   filtering it out first, changes no value.
3. **Ties.**  The first threshold within a feature wins, then the first
   feature in candidate order: a row-major ``argmin`` over the
   ``(k, thresholds)`` block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NodeTable(NamedTuple):
    """A fitted tree: one row per node, depth-first pre-order.

    Leaves have ``feature == -1`` and ``left == right == -1``; every node
    carries its training ``samples`` and class-1 ``probability``.
    """

    feature: np.ndarray  # intp; -1 at leaves
    threshold: np.ndarray  # float; rows with x[feature] <= threshold go left
    left: np.ndarray  # intp row of the left child (always own row + 1)
    right: np.ndarray  # intp row of the right child
    probability: np.ndarray  # float; P(class == 1) at this node
    samples: np.ndarray  # intp

    def depth(self) -> int:
        """Levels below the root: one frontier step per level."""
        frontier = np.zeros(1, dtype=np.intp)
        depth = -1
        while frontier.size:
            depth += 1
            internal = frontier[self.feature[frontier] >= 0]
            frontier = np.concatenate([self.left[internal], self.right[internal]])
        return depth

    def leaf_of(self, x: np.ndarray) -> np.ndarray:
        """Row of the leaf each record of ``x`` lands in (level-wise descent)."""
        node = np.zeros(len(x), dtype=np.intp)
        flat = x.ravel()
        width = x.shape[1]
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = flat[active * width + self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            node[active] = at
            active = active[self.feature[at] >= 0]
        return node


def check_features(x, n_features: int | None = None) -> np.ndarray:
    """``x`` as a finite float matrix, or a ``ValueError`` naming the cell."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D matrix")
    if n_features is not None and x.shape[1] != n_features:
        raise ValueError(f"expected matrix with {n_features} features, got {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        row, column = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"x[{row}, {column}] is {x[row, column]}; features must be finite")
    return x


def check_training_set(x, y, max_features) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Validated ``(x, y, features per split)``, before any node is grown.

    Finite features, aligned exact 0/1 labels, ``max_features`` resolved
    against the feature count (``None`` = all, without an RNG draw).
    """
    x = check_features(x)
    labels = np.asarray(y, dtype=float)
    if labels.ndim != 1 or len(labels) != len(x):
        raise ValueError("y must be a vector aligned with x")
    bad = np.flatnonzero(~np.isin(labels, (0, 1)))  # 0.5, 2, nan: nothing is truncated
    if bad.size:
        raise ValueError(f"y[{bad[0]}] is {labels[bad[0]]}; labels must be binary 0/1")
    if x.size == 0:
        raise ValueError("cannot fit on an empty dataset")
    n_features = x.shape[1]
    if max_features == "sqrt":
        max_features = max(1, int(np.ceil(np.sqrt(n_features))))
    elif max_features is not None and not (
        isinstance(max_features, (int, np.integer)) and 1 <= max_features <= n_features
    ):
        raise ValueError(
            f"max_features must be None, 'sqrt' or an int in [1, {n_features}], "
            f"got {max_features!r}"
        )
    return x, labels.astype(int), max_features


def _best_split(
    xt: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_samples_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, weighted-impurity) over candidate features.

    ``xt`` is the node's samples feature-major, shape ``(f, n)``.  Returns
    ``None`` when no valid split exists (pure node or too few samples on
    one side for every threshold).
    """
    n = len(y)
    # Split i separates sorted positions i and i + 1; only lo <= i < hi
    # leaves min_samples_leaf samples on both sides.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if hi <= lo:
        return None
    values = xt.take(feature_indices, axis=0)  # (k, n): one candidate per row
    order = values.argsort(axis=1, kind="stable")
    left_pos = y.take(order).cumsum(axis=1, dtype=float)  # exact: integer counts
    order += np.arange(0, values.size, n)[:, None]
    sorted_values = values.take(order)

    total_pos = float(left_pos[0, -1])
    p = total_pos / n
    parent = 2.0 * p * (1.0 - p)
    lc = np.arange(lo + 1.0, hi + 1.0)
    rc = n - lc
    lp = left_pos[:, lo:hi]
    pl = lp / lc
    pr = (total_pos - lp) / rc
    weighted = (lc * (2.0 * pl * (1.0 - pl)) + rc * (2.0 * pr * (1.0 - pr))) / n
    distinct = sorted_values[:, lo + 1 : hi + 1] > sorted_values[:, lo:hi]
    weighted = np.where(distinct, weighted, np.inf)

    row, split_at = divmod(int(weighted.argmin()), hi - lo)
    score = float(weighted[row, split_at])
    if not score < parent - 1e-12:  # require strict improvement
        return None
    split_at += lo
    threshold = 0.5 * (
        float(sorted_values[row, split_at]) + float(sorted_values[row, split_at + 1])
    )
    return int(feature_indices[row]), threshold, score


class DecisionTreeClassifier:
    """Binary CART classifier with probability leaves.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0); ``None`` for unbounded.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples each child must receive.
    max_features:
        Number of features examined per split; ``None`` = all, ``"sqrt"`` =
        ``ceil(sqrt(f))`` (the Random Forest default).
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: NodeTable | None = None
        self._n_features = 0

    # -- fitting --------------------------------------------------------------

    def fit(self, x, y) -> "DecisionTreeClassifier":
        return self._fit_checked(*check_training_set(x, y, self.max_features))

    def _fit_checked(
        self, x: np.ndarray, y: np.ndarray, n_candidates: int | None
    ) -> "DecisionTreeClassifier":
        """Grow on inputs the caller validated (the forest checks once)."""
        self._n_features = x.shape[1]
        rng = np.random.default_rng(self.random_state)
        rows: list[list] = []
        self._grow(np.ascontiguousarray(x.T), y, 0, rng, n_candidates, rows)
        table = np.ascontiguousarray(np.array(rows, dtype=float).T)  # rows, counts: exact
        feature, left, right, samples = table[[0, 2, 3, 5]].astype(np.intp)
        self._nodes = NodeTable(feature, table[1], left, right, table[4], samples)
        return self

    def _grow(self, xt, y, depth, rng, n_candidates, rows) -> None:
        """Append this subtree's rows in pre-order (recursion fixes RNG order)."""
        probability = np.count_nonzero(y) / len(y)  # labels are exact 0/1
        row = [-1, 0.0, -1, -1, probability, len(y)]  # a leaf, in NodeTable order
        rows.append(row)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(y) < self.min_samples_split
            or probability in (0.0, 1.0)
        ):
            return
        if n_candidates is None:
            candidates = np.arange(self._n_features)
        else:
            candidates = rng.choice(self._n_features, size=n_candidates, replace=False)
        split = _best_split(xt, y, candidates, self.min_samples_leaf)
        if split is None:
            return
        feature, threshold, _ = split
        mask = xt[feature] <= threshold
        row[:3] = feature, threshold, len(rows)
        self._grow(xt.compress(mask, axis=1), y.compress(mask), depth + 1, rng, n_candidates, rows)
        row[3] = len(rows)
        np.logical_not(mask, out=mask)
        self._grow(xt.compress(mask, axis=1), y.compress(mask), depth + 1, rng, n_candidates, rows)

    # -- prediction -----------------------------------------------------------

    def _check_fitted(self) -> NodeTable:
        if self._nodes is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        return self._nodes

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities, shape ``(n, 2)``; column 1 = P(clicked)."""
        self._check_fitted()
        return self._proba_checked(check_features(x, self._n_features))

    def _proba_checked(self, x: np.ndarray) -> np.ndarray:
        """``predict_proba`` for rows the caller validated (the forest checks once)."""
        nodes = self._check_fitted()
        p1 = nodes.probability[nodes.leaf_of(x)]
        return np.column_stack([1.0 - p1, p1])

    def predict(self, x) -> np.ndarray:
        """Hard class predictions at the 0.5 threshold."""
        return (self.predict_proba(x)[:, 1] >= 0.5).astype(int)

    def depth(self) -> int:
        """Realized depth of the fitted tree."""
        return self._check_fitted().depth()

    def node_count(self) -> int:
        return len(self._check_fitted().feature)
