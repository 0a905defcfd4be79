"""From-scratch Random Forest substrate for content-utility learning.

The product fits the forest and scores it by stratified five-fold cross
validation (``richnote train``); the logistic baseline and the calibration
measures are the classifier claim's analysis (``tests/claims/test_classifier.py``).
"""

from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.dataset import FEATURE_NAMES, FeatureExtractor, build_training_set
from repro.ml.metrics import ConfusionMatrix, confusion_matrix
from repro.ml.crossval import CrossValResult, cross_validate, stratified_kfold_indices
from repro.ml.calibration import (
    CalibrationBin,
    brier_score,
    calibration_curve,
    expected_calibration_error,
    render_reliability,
)
