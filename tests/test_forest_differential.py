"""Differential property: the array tree / forest == the recursive reference.

``repro.ml.tree`` searches all candidate features of a node in one array
pass and predicts by level-wise descent over a node table;
``tests/reference_forest.py`` is the recursive per-feature / per-row code
it replaced.  Both must grow the same nodes in the same pre-order with the
same bits, on exactly the inputs where a vectorized rewrite goes wrong:
duplicate values, constant columns, impurity ties between features and
between thresholds, ``min_samples_leaf`` at and above n/2, ``max_depth``
0 and ``None``.

Each property counts what it generated and fails if the interesting
cases did not show up (a run whose trees are all single leaves proves
nothing); ``derandomize=True`` makes those counts reproducible.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as array_tree
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests import reference_forest as reference
from tests.reference_forest import ReferenceForest, ReferenceTree

#: Column recipes; "copy" / "scaled" / "mirror" re-use an earlier column so
#: two features offer the same partition (an exact impurity tie).
COLUMN_KINDS = ("grid", "float", "permutation", "constant", "copy", "scaled", "mirror")
LABEL_KINDS = ("random", "follow", "palindrome")


def make_dataset(rng, n, column_kinds, label_kind):
    columns: list[np.ndarray] = []
    for kind in column_kinds:
        if kind in ("copy", "scaled", "mirror") and not columns:
            kind = "grid"
        if kind == "constant":
            column = np.full(n, float(rng.integers(-2, 3)))
        elif kind == "float":
            column = rng.normal(size=n).round(1)  # a few duplicates
        elif kind == "permutation":
            column = rng.permutation(n).astype(float)
        elif kind == "grid":
            column = rng.integers(0, rng.integers(2, 6), size=n).astype(float)
        else:
            source = columns[rng.integers(len(columns))]
            column = {"copy": source.copy(), "scaled": 2.0 * source + 1.0, "mirror": -source}[kind]
        columns.append(column)
    x = np.column_stack(columns)
    if label_kind == "random":
        return x, rng.integers(0, 2, size=n)
    chosen = rng.integers(len(columns))
    if label_kind == "follow":
        # Deep trees with pure children, up to three flipped labels.
        y = (x[:, chosen] > np.median(x[:, chosen])).astype(int)
        flips = rng.integers(0, n, size=rng.integers(0, 4))
        y[flips] = 1 - y[flips]
        return x, y
    # Labels symmetric in a permutation column's order: every threshold's
    # weighted impurity equals its mirror image's, bit for bit.
    x[:, chosen] = rng.permutation(n)
    rank = x[:, chosen].astype(int)
    return x, rng.integers(0, 2, size=n // 2 + 1)[np.minimum(rank, n - 1 - rank)]


def make_hyperparameters(rng, n, n_features):
    # Weighted so that the settings which force a single leaf stay a minority.
    depths = [None, 4, 2, 1, 0]
    leaves = [1, 2, 3, max(1, n // 2), n // 2 + 1]
    return {
        "max_depth": depths[rng.choice(5, p=[0.46, 0.16, 0.16, 0.15, 0.07])],
        "min_samples_split": int(rng.choice([2, 2, 3, 6])),
        "min_samples_leaf": leaves[rng.choice(5, p=[0.42, 0.20, 0.16, 0.15, 0.07])],
        "max_features": [None, "sqrt", int(rng.integers(1, n_features + 1))][rng.integers(3)],
        "random_state": int(rng.integers(0, 2**31 - 1)),
    }


@st.composite
def cases(draw, min_rows=1, max_rows=48):
    """Hypothesis picks the structure, a drawn seed fills in the values.

    (Value lists straight from hypothesis are mostly zeros: pure nodes,
    single-leaf trees, nothing compared.)
    """
    # sampled_from, not integers(): the latter favours the tiny end, where
    # every min_samples_leaf is above n/2.
    n = draw(st.sampled_from(range(min_rows, max_rows + 1)))
    n_features = draw(st.integers(1, 5))
    kinds = draw(
        st.lists(st.sampled_from(COLUMN_KINDS), min_size=n_features, max_size=n_features)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = make_dataset(rng, n, kinds, draw(st.sampled_from(LABEL_KINDS)))
    candidates = rng.permutation(n_features)[: rng.integers(1, n_features + 1)]
    return x, y, make_hyperparameters(rng, n, n_features), candidates


def queries(x: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Training rows, rows sitting exactly on every threshold, and outliers."""
    on_thresholds = np.repeat(thresholds[:, None], x.shape[1], axis=1)
    return np.vstack([x, on_thresholds, x.min(axis=0) - 1.0, x.max(axis=0) + 1.0])


def assert_same_tree(fitted: DecisionTreeClassifier, expected: ReferenceTree) -> None:
    nodes = fitted._check_fitted()
    want = expected.preorder()
    assert nodes.feature.tolist() == [row[0] for row in want]
    assert nodes.samples.tolist() == [row[2] for row in want]
    assert nodes.threshold.tobytes() == np.array([row[1] for row in want]).tobytes()
    assert nodes.probability.tobytes() == np.array([row[3] for row in want]).tobytes()
    assert fitted.node_count() == len(want)
    assert fitted.depth() == expected.depth()
    # Pre-order layout: left child is the next row, leaves have no children.
    internal = nodes.feature >= 0
    assert (nodes.left[internal] == np.flatnonzero(internal) + 1).all()
    assert (nodes.right[internal] > nodes.left[internal]).all()
    assert (nodes.left[~internal] == -1).all() and (nodes.right[~internal] == -1).all()


def test_array_tree_equals_recursive_reference():
    seen: Counter[str] = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(cases())
    def prop(case):
        x, y, params, candidates = case
        n = len(y)
        leaf = params["min_samples_leaf"]

        # One node's search, candidate order given (in a tree only rng.choice
        # produces an unsorted order): same feature, threshold and score bits.
        got = array_tree._best_split(np.ascontiguousarray(x.T), y, candidates, leaf)
        want = reference._best_split(x, y, candidates, leaf)
        assert got == want
        if want is not None:
            scores = [
                split[2]
                for f in candidates
                if (split := reference._best_split(x, y, np.array([f]), leaf))
            ]
            seen["feature_tie_at_root"] += scores.count(min(scores)) > 1
            # Mirroring the winning column reverses its thresholds: the search
            # lands on another one exactly when several share the minimum.
            mirrored = reference._best_split(-x, y, np.array([want[0]]), leaf)
            seen["threshold_tie_at_root"] += mirrored[1] != -want[1]

        fitted = DecisionTreeClassifier(**params).fit(x, y)
        expected = ReferenceTree(**params).fit(x, y)
        assert_same_tree(fitted, expected)
        nodes = fitted._check_fitted()
        rows = queries(x, nodes.threshold[nodes.feature >= 0])
        assert fitted.predict_proba(rows).tobytes() == expected.predict_proba(rows).tobytes()

        seen["cases"] += 1
        seen["single_leaf"] += fitted.node_count() == 1
        seen["three_levels"] += fitted.depth() >= 3
        seen["leaf_bound_at_half"] += leaf >= n / 2
        seen["split_at_leaf_bound"] += bool(
            leaf > 1 and (nodes.samples[nodes.feature < 0] == leaf).any()
        )
        seen["unbounded_depth"] += params["max_depth"] is None
        seen["zero_depth"] += params["max_depth"] == 0
        seen["constant_column"] += bool((x == x[0]).all(axis=0).any())
        seen[f"max_features={type(params['max_features']).__name__}"] += 1

    prop()
    assert seen["cases"] >= 300
    # Single-leaf trees pass trivially: count them, cap them.
    assert seen["single_leaf"] <= 0.5 * seen["cases"], seen
    for needed, at_least in {
        "three_levels": 40,
        "feature_tie_at_root": 15,
        "threshold_tie_at_root": 15,
        "leaf_bound_at_half": 40,
        "split_at_leaf_bound": 30,
        "unbounded_depth": 100,
        "zero_depth": 10,
        "constant_column": 40,
        "max_features=NoneType": 60,
        "max_features=str": 60,
        "max_features=int": 60,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)


def test_array_forest_equals_recursive_reference():
    seen: Counter[str] = Counter()

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(cases(min_rows=12, max_rows=40), st.sampled_from([True, True, False]))
    def prop(case, bootstrap):
        x, y, params, _ = case
        params["bootstrap"] = bootstrap
        fitted = RandomForestClassifier(n_estimators=3, **params).fit(x, y)
        expected = ReferenceForest(n_estimators=3, **params).fit(x, y)

        for tree, reference_tree in zip(fitted._trees, expected._trees, strict=True):
            assert_same_tree(tree, reference_tree)
        thresholds = np.concatenate(
            [t._check_fitted().threshold[t._check_fitted().feature >= 0] for t in fitted._trees]
        )
        rows = queries(x, thresholds)
        assert fitted.predict_proba(rows).tobytes() == expected.predict_proba(rows).tobytes()
        assert (
            fitted.feature_importances().tobytes()
            == expected.feature_importances().tobytes()
        )

        seen["cases"] += 1
        seen["all_single_leaf"] += all(t.node_count() == 1 for t in fitted._trees)
        seen["some_importance"] += fitted.feature_importances().sum() > 0

    prop()
    assert seen["cases"] >= 200
    assert seen["all_single_leaf"] <= 0.5 * seen["cases"], seen
    assert seen["some_importance"] >= 100, seen
