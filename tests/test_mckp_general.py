"""MCKP LP-domination preprocessing (general profits) on the product's
kernels: each item's row reduced by :func:`kernels.hull_levels_batched`,
Algorithm 1 run by :func:`kernels.greedy_select_heap` on the reduced rows,
and the chosen hull positions mapped back to ladder levels -- the fused
path of ``RichNotePolicy.select`` -- with :func:`solve_exact_dp` as the
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mckp import (
    MckpInstance,
    MckpItem,
    MckpSolution,
    select_presentations,
    solve_exact_dp,
)
from repro.runtime import kernels


def hull_levels_of(item: MckpItem) -> list[int]:
    """The item's hull levels, as ``RichNotePolicy.select`` reduces a row."""
    hull, lengths = kernels.hull_levels_batched(
        item.sizes, np.array([item.profits], dtype=np.float64)
    )
    return hull[0, : lengths[0]].tolist()


def select_on_hull(instance: MckpInstance) -> MckpSolution:
    """Hull-reduce every row, run the heap greedy, map levels back."""
    hulls = [hull_levels_of(item) for item in instance.items]
    keys = [item.key for item in instance.items]
    levels, total_size, total_profit = kernels.greedy_select_heap(
        keys,
        [[item.sizes[j] for j in hull] for item, hull in zip(instance.items, hulls)],
        [[item.profits[j] for j in hull] for item, hull in zip(instance.items, hulls)],
        instance.budget,
    )
    return MckpSolution(
        levels={key: hull[level] for key, hull, level in zip(keys, hulls, levels)},
        total_size=total_size,
        total_profit=total_profit,
    )


class TestConvexHull:
    def test_monotone_concave_ladder_kept_fully(self):
        item = MckpItem(key=0, sizes=(0, 10, 20, 30), profits=(0.0, 3.0, 5.0, 6.0))
        assert hull_levels_of(item) == [0, 1, 2, 3]

    def test_dominated_level_dropped(self):
        # Level 2 has more size but less profit than level 1.
        item = MckpItem(key=0, sizes=(0, 10, 20, 30), profits=(0.0, 3.0, 2.0, 6.0))
        assert hull_levels_of(item) == [0, 1, 3]

    def test_lp_dominated_level_dropped(self):
        # Level 1 sits below the chord from 0 to 2.
        item = MckpItem(key=0, sizes=(0, 10, 20), profits=(0.0, 0.5, 5.0))
        assert hull_levels_of(item) == [0, 2]

    def test_all_negative_ladder_keeps_only_zero(self):
        item = MckpItem(key=0, sizes=(0, 10, 20), profits=(0.0, -1.0, -2.0))
        assert hull_levels_of(item) == [0]

    def test_hull_gradients_strictly_decrease(self):
        item = MckpItem(
            key=0,
            sizes=(0, 5, 10, 15, 20, 25),
            profits=(0.0, 1.0, 5.0, 5.5, 9.0, 9.1),
        )
        hull = hull_levels_of(item)
        gradients = [
            (item.profits[b] - item.profits[a]) / (item.sizes[b] - item.sizes[a])
            for a, b in zip(hull, hull[1:])
        ]
        assert all(x > y for x, y in zip(gradients, gradients[1:]))


class TestGeneralSelection:
    def test_matches_plain_greedy_on_concave_ladders(self):
        items = tuple(
            MckpItem(key=k, sizes=(0, 10, 30), profits=(0.0, 2.0 + k, 3.0 + k))
            for k in range(4)
        )
        instance = MckpInstance(items=items, budget=55)
        plain = select_presentations(instance)
        general = select_on_hull(instance)
        assert general.levels == plain.levels
        assert general.total_profit == pytest.approx(plain.total_profit)

    def test_recovers_optimum_hidden_behind_dip(self):
        """A NEGATIVE dip at level 1 must not block reaching level 2.

        The plain greedy freezes at a non-positive head gradient; hull
        preprocessing removes the dipped rung so the upgrade to level 2
        becomes a single positive-gradient step.
        """
        item = MckpItem(key=0, sizes=(0, 10, 20), profits=(0.0, -0.1, 5.0))
        instance = MckpInstance(items=(item,), budget=20)
        plain = select_presentations(instance)
        general = select_on_hull(instance)
        optimum = solve_exact_dp(instance).total_profit
        assert general.total_profit == pytest.approx(optimum)
        # The plain greedy gets stuck at the LP-dominated rung.
        assert plain.total_profit < general.total_profit

    def test_levels_map_back_to_original_indices(self):
        item = MckpItem(key=0, sizes=(0, 10, 20, 30), profits=(0.0, 0.1, 0.2, 9.0))
        instance = MckpInstance(items=(item,), budget=30)
        solution = select_on_hull(instance)
        assert solution.levels[0] == 3

    @st.composite
    def arbitrary_instances(draw):
        n_items = draw(st.integers(min_value=1, max_value=5))
        items = []
        for key in range(n_items):
            n_levels = draw(st.integers(min_value=1, max_value=4))
            sizes = [0]
            profits = [0.0]
            for _ in range(n_levels):
                sizes.append(sizes[-1] + draw(st.integers(1, 30)))
                profits.append(
                    draw(st.floats(min_value=-2.0, max_value=8.0, allow_nan=False))
                )
            items.append(
                MckpItem(key=key, sizes=tuple(sizes), profits=tuple(profits))
            )
        budget = draw(st.integers(min_value=0, max_value=120))
        return MckpInstance(items=tuple(items), budget=budget)

    @given(arbitrary_instances())
    @settings(max_examples=100, deadline=None)
    def test_general_within_one_hull_upgrade_of_optimum(self, instance):
        """The one-upgrade bound extends to ARBITRARY profits via the hull."""
        general = select_on_hull(instance)
        optimum = solve_exact_dp(instance).total_profit
        assert general.total_profit <= optimum + 1e-9
        max_hull_gain = 0.0
        for item in instance.items:
            hull = hull_levels_of(item)
            for a, b in zip(hull, hull[1:]):
                max_hull_gain = max(
                    max_hull_gain, item.profits[b] - item.profits[a]
                )
        assert general.total_profit >= optimum - max_hull_gain - 1e-9

    @given(arbitrary_instances())
    @settings(max_examples=100, deadline=None)
    def test_general_respects_budget(self, instance):
        solution = select_on_hull(instance)
        total = sum(
            item.sizes[solution.levels[item.key]] for item in instance.items
        )
        assert total <= instance.budget
        assert total == solution.total_size
