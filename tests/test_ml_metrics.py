"""Tests for classification metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import confusion_matrix


class TestConfusionMatrix:
    def test_counts(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.true_positive, cm.false_negative) == (2, 1)
        assert (cm.true_negative, cm.false_positive) == (1, 1)
        assert cm.total == 5

    def test_perfect_prediction(self):
        cm = confusion_matrix([0, 1, 1, 0], [0, 1, 1, 0])
        assert cm.accuracy() == 1.0
        assert cm.precision() == 1.0
        assert cm.recall() == 1.0

    def test_all_wrong(self):
        assert confusion_matrix([0, 1], [1, 0]).accuracy() == 0.0

    def test_zero_division_conventions(self):
        # No positive predictions -> precision 0; no positives -> recall 0.
        assert confusion_matrix([1, 1], [0, 0]).precision() == 0.0
        assert confusion_matrix([0, 0], [0, 0]).recall() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError):
            confusion_matrix([], [])
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_accuracy_matches_definition(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        expected = sum(a == b for a, b in pairs) / len(pairs)
        assert confusion_matrix(y_true, y_pred).accuracy() == pytest.approx(expected)

