"""Claim: the content-utility classifier (Section V-A).

The paper's classifier-quality numbers: five-fold cross-validated
precision and accuracy of the Random Forest trained on clicked-vs-hovered
records.  Paper reports precision 0.700, accuracy 0.689 on the real
Spotify trace; the synthetic trace carries comparable irreducible noise,
so the values should land in the same band (0.6-0.75), well above the
majority-class base rate.
"""

import numpy as np

from repro.ml.calibration import (
    brier_score,
    calibration_curve,
    expected_calibration_error,
    render_reliability,
)
from repro.ml.crossval import cross_validate
from repro.ml.dataset import FEATURE_NAMES, build_training_set, class_balance
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegressionClassifier


def _forest():
    return RandomForestClassifier(
        n_estimators=15, max_depth=8, min_samples_leaf=5, random_state=97
    )


def _training_set(workload, max_rows):
    x, y = build_training_set(workload.records)
    rng = np.random.default_rng(97)
    if len(x) > max_rows:
        keep = rng.choice(len(x), size=max_rows, replace=False)
        x, y = x[keep], y[keep]
    return x, y


def test_classifier_cv(world):
    x, y = _training_set(world.workload, 4000)
    result = cross_validate(_forest, x, y, n_folds=5, random_state=97)
    base_rate = max(class_balance(y), 1 - class_balance(y))
    print()
    print("# Section V-A: content-utility classifier (5-fold CV)")
    print(f"training samples: {len(x)}  positive rate: {class_balance(y):.3f}")
    print("paper:    precision=0.700 accuracy=0.689")
    print(
        f"measured: precision={result.precision:.3f} "
        f"accuracy={result.accuracy:.3f} recall={result.recall:.3f}"
    )
    # Shape assertions: meaningfully above chance, in the paper's band.
    assert result.accuracy > base_rate + 0.01
    assert 0.5 < result.precision <= 1.0
    assert 0.55 < result.accuracy <= 1.0


def test_classifier_vs_logistic(world):
    """Model-family ablation: Random Forest vs logistic regression.

    The synthetic ground truth is itself logistic in the features, so the
    linear model is a strong baseline here; the claim documents how much
    (or little) the ensemble buys on this feature space, and asserts both
    clear the chance bar.
    """
    x, y = _training_set(world.workload, 3000)
    forest = cross_validate(_forest, x, y, n_folds=5, random_state=97)
    logistic = cross_validate(
        lambda: LogisticRegressionClassifier(n_iterations=250),
        x, y, n_folds=5, random_state=97,
    )
    base_rate = max(class_balance(y), 1 - class_balance(y))
    print()
    print("# Model-family ablation (5-fold CV)")
    print(f"base rate:           {base_rate:.3f}")
    print(f"random forest:       {forest.summary()}")
    print(f"logistic regression: {logistic.summary()}")
    assert forest.accuracy > base_rate
    assert logistic.accuracy > base_rate
    # On a logistic ground truth the two land within a few points.
    assert abs(forest.accuracy - logistic.accuracy) < 0.1


def test_classifier_calibration(world):
    """U_c is used as a probability (Eq. 1): check the forest's calibration.

    Held-out Brier score must beat the base-rate constant predictor, and
    the expected calibration error should stay within a few points -- leaf
    averaging across bootstrapped trees is a decent implicit calibrator.
    """
    x, y = build_training_set(world.workload.records)
    split = int(0.7 * len(x))
    probabilities = _forest().fit(x[:split], y[:split]).predict_proba(x[split:])[:, 1]
    held_out = y[split:]
    constant = np.full(len(held_out), float(y[:split].mean()))
    bins = calibration_curve(held_out, probabilities, n_bins=8)
    print()
    print("# Content-utility probability calibration (held-out 30%)")
    print(render_reliability(bins))
    brier = brier_score(held_out, probabilities)
    ece = expected_calibration_error(held_out, probabilities, n_bins=8)
    print(f"brier={brier:.3f} (constant predictor {brier_score(held_out, constant):.3f})  "
          f"ECE={ece:.3f}")
    assert brier < brier_score(held_out, constant)
    assert ece < 0.15


def test_feature_importances(world):
    """Which features carry the click signal (Section V-A's families).

    The latent ground truth loads on social ties, popularity and time of
    day; the trained forest's split-frequency importances should recover
    that ordering -- the social/popularity families must outrank the
    publication-kind one-hots (which carry no independent signal).
    """
    x, y = _training_set(world.workload, 4000)
    importances = _forest().fit(x, y).feature_importances()
    ranked = sorted(
        zip(FEATURE_NAMES, importances), key=lambda pair: -pair[1]
    )
    print()
    print("# Content-utility feature importances (split-frequency)")
    for name, weight in ranked:
        print(f"  {name:<18} {weight:.3f}")
    by_name = dict(zip(FEATURE_NAMES, importances))
    social = by_name["tie_strength"]
    popularity = max(
        by_name["track_popularity"],
        by_name["album_popularity"],
        by_name["artist_popularity"],
    )
    kind_onehots = max(
        by_name["kind_friend"], by_name["kind_artist"], by_name["kind_playlist"]
    )
    assert social > kind_onehots
    assert popularity > kind_onehots
