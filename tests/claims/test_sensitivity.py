"""Claim: Lyapunov control-knob sensitivity (Section V-D5).

"We conducted experiments measuring the sensitivity of RichNote to
Lyapunov control knob, V, and observe that RichNote performs uniformly
better in all these settings."

Expected shape: total utility varies mildly across V spanning three
orders of magnitude, delivery stays ~100%, and the scheduling-queue
backlog remains bounded (larger V tolerates more backlog by design, but
stability is preserved).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import v_sensitivity
from repro.experiments.reporting import render_sensitivity

V_VALUES = (10.0, 100.0, 1000.0, 10000.0)


def test_v_sensitivity(world):
    config = ExperimentConfig(weekly_budget_mb=10.0)
    points = v_sensitivity(
        world.workload, V_VALUES, config, world.annotations, world.users
    )
    print()
    print(render_sensitivity(points))
    utilities = [p.total_utility for p in points]
    # Uniformly good: no V setting collapses utility or delivery.
    assert min(utilities) > 0.6 * max(utilities)
    for point in points:
        assert point.delivery_ratio > 0.95
        # Backlog bounded: well under one round of full-ladder arrivals.
        assert point.mean_backlog_bytes < 50e6
