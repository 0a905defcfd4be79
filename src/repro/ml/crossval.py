"""K-fold cross validation for the content-utility classifier.

"To evaluate the effectiveness of the learned classifier model and to
ensure that we are not over-fitting to the training data we performed a
five-fold cross validation.  In this process, we divide the input data into
five equal parts.  Then each part acts as test data while the rest of the
four parts are used for training."  (Section V-A)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.ml.metrics import confusion_matrix


def stratified_kfold_indices(
    labels,
    n_folds: int = 5,
    random_state: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_indices, test_indices)`` for each of ``n_folds`` folds,
    each fold keeping the class balance of ``labels``."""
    labels = np.asarray(labels, dtype=int)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(random_state)
    per_class_folds: list[list[np.ndarray]] = []
    for value in np.unique(labels):
        members = np.nonzero(labels == value)[0]
        if len(members) < n_folds:
            raise ValueError(
                f"class {value} has {len(members)} samples, fewer than "
                f"{n_folds} folds"
            )
        rng.shuffle(members)
        per_class_folds.append(np.array_split(members, n_folds))
    for fold_index in range(n_folds):
        test = np.concatenate([folds[fold_index] for folds in per_class_folds])
        train = np.concatenate(
            [
                folds[i]
                for folds in per_class_folds
                for i in range(n_folds)
                if i != fold_index
            ]
        )
        yield np.sort(train), np.sort(test)


@dataclass(frozen=True)
class CrossValResult:
    """Per-fold and pooled metrics of a cross-validation run."""

    fold_accuracy: tuple[float, ...]
    fold_precision: tuple[float, ...]
    fold_recall: tuple[float, ...]

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.fold_accuracy))

    @property
    def precision(self) -> float:
        return float(np.mean(self.fold_precision))

    @property
    def recall(self) -> float:
        return float(np.mean(self.fold_recall))

    def summary(self) -> str:
        return (
            f"accuracy={self.accuracy:.3f} precision={self.precision:.3f} "
            f"recall={self.recall:.3f} over {len(self.fold_accuracy)} folds"
        )


def cross_validate(
    model_factory: Callable[[], object],
    x,
    y,
    n_folds: int = 5,
    random_state: int | None = None,
) -> CrossValResult:
    """Fit a fresh model per fold and aggregate accuracy/precision/recall.

    ``model_factory`` must return an unfitted object with ``fit(x, y)`` and
    ``predict(x)`` -- a fresh instance per fold keeps folds independent.
    Folds are stratified (:func:`stratified_kfold_indices`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(x) != len(y):
        raise ValueError("x and y must align")
    accuracies: list[float] = []
    precisions: list[float] = []
    recalls: list[float] = []
    for train, test in stratified_kfold_indices(y, n_folds, random_state):
        model = model_factory()
        model.fit(x[train], y[train])
        predictions = model.predict(x[test])
        cm = confusion_matrix(y[test], predictions)
        accuracies.append(cm.accuracy())
        precisions.append(cm.precision())
        recalls.append(cm.recall())
    return CrossValResult(
        fold_accuracy=tuple(accuracies),
        fold_precision=tuple(precisions),
        fold_recall=tuple(recalls),
    )
