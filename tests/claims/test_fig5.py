"""Claim: Figure 5 -- adaptation of RichNote.

* 5(a) RichNote vs UTIL fixed at every preview level: no single fixed
  level wins everywhere (short previews win at small budgets, long ones at
  large budgets); RichNote tracks/beats the upper envelope.
* 5(b) RichNote's presentation mix shifts from metadata-only toward rich
  previews as the budget grows.
* 5(c) with the WIFI/CELL/OFF Markov model, WiFi rounds admit more bytes,
  so richer presentations appear than under cellular-only at equal budget.
* 5(d) utility across user-volume categories: heavier users benefit more.
"""

from repro.experiments.config import NetworkMode
from repro.experiments.figures import (
    figure5a_fixed_levels,
    figure5b_presentation_mix,
    figure5d_user_categories,
)
from repro.experiments.reporting import (
    render_level_mix,
    render_series_table,
    render_user_categories,
)

BUDGETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _rich_fraction(mix, min_level):
    return sum(frac for level, frac in mix.items() if level >= min_level)


def test_fig5a_fixed_levels(world):
    series = figure5a_fixed_levels(
        world.workload, BUDGETS, annotations=world.annotations, user_ids=world.users
    )
    print()
    print(render_series_table(series, precision=1))
    fixed_labels = [label for label in series.series if label != "RichNote"]
    # RichNote tracks the upper envelope of all fixed levels at every
    # budget (<=7% dip tolerated in the crossover pocket) and sits clearly
    # above it at the starved and generous extremes.
    for budget in BUDGETS:
        envelope = max(series.series[label][budget] for label in fixed_labels)
        assert series.series["RichNote"][budget] >= envelope * 0.93
    for budget in (1.0, 100.0):
        envelope = max(series.series[label][budget] for label in fixed_labels)
        assert series.series["RichNote"][budget] >= envelope
    # No single fixed level dominates the others across budgets: the best
    # level at 1 MB differs from the best at 100 MB (crossover).
    best_low = max(fixed_labels, key=lambda l: series.series[l][1.0])
    best_high = max(fixed_labels, key=lambda l: series.series[l][100.0])
    print(f"best fixed level at 1MB: {best_low}; at 100MB: {best_high}")
    assert best_low != best_high


def test_fig5b_presentation_mix(world):
    series = figure5b_presentation_mix(
        world.workload, BUDGETS, annotations=world.annotations, user_ids=world.users
    )
    print()
    print(render_level_mix(series))
    # Metadata-dominated at 1-3 MB; rich previews appear as budget grows.
    assert series.mix[1.0].get(1, 0.0) > 0.6
    assert _rich_fraction(series.mix[1.0], 5) < 0.1
    assert _rich_fraction(series.mix[100.0], 5) > 0.3
    rich = [_rich_fraction(series.mix[b], 4) for b in BUDGETS]
    assert rich[-1] > rich[0]


def test_fig5c_wifi_mix(world):
    budgets = (2.0, 10.0, 50.0)
    cell = figure5b_presentation_mix(
        world.workload, budgets, annotations=world.annotations,
        user_ids=world.users, network_mode=NetworkMode.CELL_ONLY,
    )
    wifi = figure5b_presentation_mix(
        world.workload, budgets, annotations=world.annotations,
        user_ids=world.users, network_mode=NetworkMode.MARKOV,
    )
    print()
    print(render_level_mix(cell))
    print(render_level_mix(wifi))
    # The Markov model includes OFF rounds, which pool arrivals and roll
    # budget over; delivered presentations at equal budget skew richer.
    richer = sum(
        _rich_fraction(wifi.mix[b], 4) >= _rich_fraction(cell.mix[b], 4)
        for b in budgets
    )
    assert richer >= 2


def test_fig5d_user_categories(world):
    points = figure5d_user_categories(
        world.workload, annotations=world.annotations, user_ids=world.users,
        n_buckets=4,
    )
    print()
    print(render_user_categories(points))
    assert len(points) >= 2
    # Heavier-volume categories accrue more total utility.
    assert points[-1].mean_utility > points[0].mean_utility
