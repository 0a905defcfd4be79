"""Tests for the MCKP greedy heuristic (Algorithm 1) and exact solvers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mckp import (
    MckpInstance,
    MckpItem,
    fractional_upper_bound,
    select_presentations,
    solve_exact_dp,
)
from repro.core.presentations import build_audio_ladder


def concave_item(key: int, sizes: list[int], utilities: list[float]) -> MckpItem:
    return MckpItem(key=key, sizes=tuple(sizes), profits=tuple(utilities))


def paper_ladder_instance(seed: int) -> MckpInstance:
    """Twelve items on the audio ladder's utilities, in small byte units."""
    rng = random.Random(seed)
    base = build_audio_ladder()
    items = []
    for key in range(12):
        content_utility = rng.random()
        sizes = (0, 2, 102, 202, 402, 602, 802)
        profits = tuple(content_utility * base.utility(level) for level in range(7))
        items.append(MckpItem(key=key, sizes=sizes, profits=profits))
    return MckpInstance(items=tuple(items), budget=1500)


class TestMckpItem:
    def test_level_zero_must_be_free(self):
        with pytest.raises(ValueError):
            MckpItem(key=0, sizes=(10, 20), profits=(0.0, 1.0))

    def test_sizes_strictly_increase(self):
        with pytest.raises(ValueError):
            MckpItem(key=0, sizes=(0, 10, 10), profits=(0.0, 1.0, 2.0))

    def test_profile_lengths_must_match(self):
        with pytest.raises(ValueError):
            MckpItem(key=0, sizes=(0, 10), profits=(0.0,))


class TestGreedy:
    def test_empty_instance(self):
        solution = select_presentations(MckpInstance(items=(), budget=100))
        assert solution.levels == {}
        assert solution.total_profit == 0.0

    def test_zero_budget_selects_nothing(self):
        item = concave_item(1, [0, 10], [0.0, 1.0])
        solution = select_presentations(MckpInstance(items=(item,), budget=0))
        assert solution.levels[1] == 0
        assert solution.selected_keys() == []

    def test_single_item_upgrades_fully_within_budget(self):
        item = concave_item(1, [0, 10, 30], [0.0, 1.0, 1.5])
        solution = select_presentations(MckpInstance(items=(item,), budget=100))
        assert solution.levels[1] == 2
        assert solution.total_size == 30
        assert solution.total_profit == pytest.approx(1.5)

    def test_budget_respected(self):
        item = concave_item(1, [0, 10, 30], [0.0, 1.0, 1.5])
        solution = select_presentations(MckpInstance(items=(item,), budget=15))
        assert solution.levels[1] == 1

    def test_gradient_order_prefers_denser_upgrade(self):
        rich = concave_item(1, [0, 10], [0.0, 5.0])  # gradient 0.5
        poor = concave_item(2, [0, 10], [0.0, 1.0])  # gradient 0.1
        solution = select_presentations(
            MckpInstance(items=(poor, rich), budget=10)
        )
        assert solution.levels[1] == 1
        assert solution.levels[2] == 0

    def test_skips_unaffordable_but_continues_with_others(self):
        # The large item's first upgrade has the best gradient but does not
        # fit; cheaper upgrades elsewhere must still happen.
        big = concave_item(1, [0, 1000], [0.0, 100.0])
        small = concave_item(2, [0, 10], [0.0, 0.5])
        solution = select_presentations(MckpInstance(items=(big, small), budget=50))
        assert solution.levels[1] == 0
        assert solution.levels[2] == 1

    def test_non_positive_gradients_never_selected(self):
        # Lyapunov-adjusted profits can decrease with level.
        item = MckpItem(key=1, sizes=(0, 10, 20), profits=(0.0, 1.0, 0.5))
        solution = select_presentations(MckpInstance(items=(item,), budget=100))
        assert solution.levels[1] == 1

    def test_all_negative_profits_select_nothing(self):
        item = MckpItem(key=1, sizes=(0, 10), profits=(0.0, -1.0))
        solution = select_presentations(MckpInstance(items=(item,), budget=100))
        assert solution.levels[1] == 0

    def test_duplicate_keys_rejected(self):
        a = concave_item(1, [0, 10], [0.0, 1.0])
        with pytest.raises(ValueError):
            MckpInstance(items=(a, a), budget=10)


class TestExactAndBounds:
    def test_dp_matches_brute_force_small(self):
        items = (
            concave_item(1, [0, 3, 7], [0.0, 2.0, 3.0]),
            concave_item(2, [0, 4], [0.0, 2.5]),
            concave_item(3, [0, 2, 5], [0.0, 1.0, 2.2]),
        )
        instance = MckpInstance(items=items, budget=9)
        dp = solve_exact_dp(instance)
        # Brute force over level combinations.
        best = 0.0
        import itertools

        for levels in itertools.product(*(range(len(i.sizes)) for i in items)):
            size = sum(i.sizes[l] for i, l in zip(items, levels))
            if size <= 9:
                best = max(best, sum(i.profits[l] for i, l in zip(items, levels)))
        assert dp.total_profit == pytest.approx(best)

    def test_greedy_within_one_upgrade_of_optimum(self):
        """The paper's bound: greedy >= OPT - max single-upgrade profit.

        On a hand-built instance and on five paper-ladder ones (the
        ladder's utilities and level count, scaled by a random content
        utility; byte sizes shrunk so the DP stays tractable).  The greedy
        never beats the optimum, nor the optimum the fractional bound.
        """
        items = (
            concave_item(1, [0, 3, 7], [0.0, 2.0, 3.0]),
            concave_item(2, [0, 4], [0.0, 2.5]),
            concave_item(3, [0, 2, 5], [0.0, 1.0, 2.2]),
        )
        hand_built = MckpInstance(items=items, budget=9)
        for instance in (hand_built, *map(paper_ladder_instance, range(5))):
            greedy = select_presentations(instance).total_profit
            optimum = solve_exact_dp(instance).total_profit
            max_gain = max(
                item.profits[level + 1] - item.profits[level]
                for item in instance.items
                for level in range(len(item.sizes) - 1)
            )
            assert greedy >= optimum - max_gain - 1e-9
            bound = fractional_upper_bound(instance)
            assert greedy <= optimum + 1e-9 <= bound + 1e-6

    def test_fractional_bound_dominates_integral(self):
        items = (
            concave_item(1, [0, 3, 7], [0.0, 2.0, 3.0]),
            concave_item(2, [0, 4], [0.0, 2.5]),
        )
        instance = MckpInstance(items=items, budget=5)
        assert fractional_upper_bound(instance) >= solve_exact_dp(
            instance
        ).total_profit - 1e-9


@st.composite
def concave_instances(draw):
    """Random instances with concave (gradient-monotone) ladders."""
    n_items = draw(st.integers(min_value=1, max_value=6))
    items = []
    for key in range(n_items):
        n_levels = draw(st.integers(min_value=1, max_value=4))
        step_sizes = draw(
            st.lists(
                st.integers(min_value=1, max_value=40),
                min_size=n_levels,
                max_size=n_levels,
            )
        )
        # Build gradient-monotone profits: the utility-size gradient
        # (gain per byte) decreases with level, the concavity notion the
        # greedy's optimality argument uses.  Decreasing *gains* alone is
        # not enough when size steps are uneven.
        gradients = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
                    min_size=n_levels,
                    max_size=n_levels,
                )
            ),
            reverse=True,
        )
        sizes = [0]
        profits = [0.0]
        for step, gradient in zip(step_sizes, gradients):
            sizes.append(sizes[-1] + step)
            profits.append(profits[-1] + gradient * step)
        items.append(MckpItem(key=key, sizes=tuple(sizes), profits=tuple(profits)))
    budget = draw(st.integers(min_value=0, max_value=150))
    return MckpInstance(items=tuple(items), budget=budget)


class TestGreedyProperties:
    @given(concave_instances())
    @settings(max_examples=120, deadline=None)
    def test_never_exceeds_budget(self, instance):
        solution = select_presentations(instance)
        total = sum(
            item.sizes[solution.levels[item.key]] for item in instance.items
        )
        assert total <= instance.budget
        assert total == solution.total_size

    @given(concave_instances())
    @settings(max_examples=120, deadline=None)
    def test_profit_accounting_consistent(self, instance):
        solution = select_presentations(instance)
        total = sum(
            item.profits[solution.levels[item.key]] for item in instance.items
        )
        assert solution.total_profit == pytest.approx(total)

    @given(concave_instances())
    @settings(max_examples=80, deadline=None)
    def test_greedy_within_bound_of_dp(self, instance):
        greedy = select_presentations(instance)
        optimum = solve_exact_dp(instance).total_profit
        max_gain = max(
            (
                item.profits[level + 1] - item.profits[level]
                for item in instance.items
                for level in range(len(item.sizes) - 1)
            ),
            default=0.0,
        )
        assert greedy.total_profit >= optimum - max_gain - 1e-9
        assert greedy.total_profit <= optimum + 1e-9

    @given(concave_instances())
    @settings(max_examples=80, deadline=None)
    def test_fractional_bound_above_dp(self, instance):
        assert (
            fractional_upper_bound(instance)
            >= solve_exact_dp(instance).total_profit - 1e-9
        )

    @given(concave_instances(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_near_monotone_in_budget(self, instance, extra):
        """More budget cannot cost more than one upgrade's worth of profit.

        (Exact monotonicity does not hold for skip-and-continue greedy in
        general; the one-upgrade bound follows from the optimality-gap
        guarantee at both budgets.)
        """
        smaller = select_presentations(instance)
        larger = select_presentations(
            MckpInstance(items=instance.items, budget=instance.budget + extra)
        )
        max_gain = max(
            (
                item.profits[level + 1] - item.profits[level]
                for item in instance.items
                for level in range(len(item.sizes) - 1)
            ),
            default=0.0,
        )
        assert larger.total_profit >= smaller.total_profit - max_gain - 1e-9
