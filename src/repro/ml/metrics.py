"""Classification metrics for the content-utility model evaluation.

The paper reports classifier quality as precision and accuracy under
five-fold cross validation ("we got a precision of 0.700 and accuracy of
0.689").  :func:`confusion_matrix` counts the outcomes; the cross-validation
fold (:mod:`repro.ml.crossval`) reads accuracy, precision and recall off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; positive class = 1 ("clicked")."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("empty confusion matrix")
        return (self.true_positive + self.true_negative) / self.total

    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    """Build the binary confusion matrix from aligned label vectors."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must align")
    if y_true.size == 0:
        raise ValueError("cannot evaluate empty label vectors")
    bad = set(np.unique(np.concatenate([y_true, y_pred]))) - {0, 1}
    if bad:
        raise ValueError(f"labels must be binary 0/1, found {sorted(bad)}")
    return ConfusionMatrix(
        true_positive=int(((y_true == 1) & (y_pred == 1)).sum()),
        false_positive=int(((y_true == 0) & (y_pred == 1)).sum()),
        true_negative=int(((y_true == 0) & (y_pred == 0)).sum()),
        false_negative=int(((y_true == 1) & (y_pred == 0)).sum()),
    )

