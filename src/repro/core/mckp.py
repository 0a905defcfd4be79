"""Multi-choice knapsack (MCKP) selection of presentation levels.

Section III-C casts notification selection as an MCKP: each content item is
an object *category*, its presentations are the category's objects, utilities
are *profits*, and presentation sizes are *weights*.  Exactly one
presentation per item must be chosen (level 0 = "do not send" is always
available at zero weight/profit), subject to a data-budget weight constraint.

This module provides:

* :class:`MckpInstance` / :class:`MckpItem` -- the problem description;
* :func:`select_presentations` -- the paper's Algorithm 1, the greedy
  utility-size-gradient heuristic with an ``O(n + k log n)`` max-heap
  implementation;
* :func:`solve_exact_dp` -- an exact dynamic program over byte budgets, used
  by the test-suite to bound the greedy's optimality gap on small instances;
* :func:`fractional_upper_bound` -- the optimal fractional-MCKP value, which
  upper-bounds the integral optimum (Sinha & Zoltners 1979).

Greedy optimality argument (from the paper): the fractional MCKP is solved
*optimally* by a series of gradient-maximal upgrades with the final upgrade
taken fractionally; the integral greedy is the same minus the fractional
final upgrade, so its gap to the fractional optimum -- and hence to the
integral optimum -- is at most the profit of one upgrade.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.runtime import kernels


@dataclass(frozen=True, slots=True)
class MckpItem:
    """One category: an item with its per-level sizes and profits.

    ``sizes[j]`` and ``profits[j]`` describe presentation level ``j``;
    index 0 is the mandatory zero-size, zero-profit "not sent" level.
    Sizes must strictly increase with level.  Profits are the (possibly
    *adjusted*, see :mod:`repro.core.lyapunov`) utilities and may be
    non-monotone when Lyapunov penalty terms dominate.
    """

    key: int
    sizes: tuple[int, ...]
    profits: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.profits):
            raise ValueError("sizes and profits must have equal length")
        if len(self.sizes) < 1:
            raise ValueError("item needs at least level 0")
        if self.sizes[0] != 0:
            raise ValueError("level 0 must have zero size")
        for lo, hi in zip(self.sizes, self.sizes[1:]):
            if hi <= lo:
                raise ValueError("sizes must strictly increase with level")

    @property
    def max_level(self) -> int:
        return len(self.sizes) - 1


@dataclass(frozen=True, slots=True)
class MckpInstance:
    """An MCKP instance: a set of items and a weight budget in bytes."""

    items: tuple[MckpItem, ...]
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        keys = [item.key for item in self.items]
        if len(keys) != len(set(keys)):
            raise ValueError("item keys must be unique")


@dataclass(slots=True)
class MckpSolution:
    """Result of a selection: chosen level per item key.

    ``levels[key]`` is the chosen presentation level (0 = not sent).
    ``total_size`` and ``total_profit`` summarize the selection.
    """

    levels: dict[int, int] = field(default_factory=dict)
    total_size: int = 0
    total_profit: float = 0.0

    def selected_keys(self) -> list[int]:
        """Keys chosen at a level above 0, i.e. actually delivered."""
        return [key for key, level in self.levels.items() if level > 0]


def _gradient(item: MckpItem, level: int) -> float:
    """Utility-size gradient for upgrading ``level -> level + 1``.

    The denominator is positive by the strict-size-increase invariant.
    """
    return kernels.gradient(item.sizes, item.profits, level)


def select_presentations(instance: MckpInstance) -> MckpSolution:
    """Algorithm 1 (SelectPresentations): greedy gradient upgrades.

    Starts with every item at level 0, repeatedly upgrades the item whose
    *next* upgrade has the largest utility-size gradient, and stops when no
    affordable upgrade with positive gradient remains.

    Deviations from a naive transliteration, both faithful to the paper:

    * the paper "moves to the next presentation level" rather than skipping
      dominated levels, because its ladder utilities are monotone -- we do
      the same;
    * upgrades with non-positive gradient are skipped: under Lyapunov
      adjustment (Eq. 7) a richer presentation can have *lower* adjusted
      utility, and selecting it would reduce the objective.  When an item's
      head gradient is non-positive the item is frozen at its current level
      (ladder concavity makes later gradients no better for plain utility;
      for adjusted utility the energy term is itself gradient-monotone for
      the ladders used here).
    * an unaffordable upgrade freezes that item but the scan continues with
      other items, so a large item cannot block cheap upgrades elsewhere.
      With concave ladders gradient order equals greedy order, so this
      matches the classical fractional-greedy behaviour of stopping at the
      first unaffordable upgrade in *gradient* order per item.

    Complexity: ``O(n)`` heapify + ``O((n k) log n)`` worst case over all
    upgrades, matching the paper's ``O(n + k log n)`` per-round bound when
    the number of performed upgrades is ``O(k)``.

    The heap loop itself lives in
    :func:`repro.runtime.kernels.greedy_select_heap`; this wrapper adapts the
    object-based :class:`MckpInstance` to the kernel's row arrays.
    """
    keys = [item.key for item in instance.items]
    levels, total_size, total_profit = kernels.greedy_select_heap(
        keys,
        [item.sizes for item in instance.items],
        [item.profits for item in instance.items],
        instance.budget,
    )
    return MckpSolution(
        levels=dict(zip(keys, levels)),
        total_size=total_size,
        total_profit=total_profit,
    )


def fractional_upper_bound(instance: MckpInstance) -> float:
    """Optimal value of the fractional relaxation (upper-bounds integral OPT).

    Performs the same gradient-ordered upgrades as the greedy but allows the
    final unaffordable upgrade to be taken fractionally.  For instances with
    gradient-monotone (concave) ladders this is the exact LP optimum; for
    general profits it remains a valid upper bound after per-item
    LP-domination filtering, which the gradient heap implicitly performs for
    the ladders produced by this library.
    """
    heap: list[tuple[float, int, int]] = []
    by_key = {item.key: item for item in instance.items}
    levels = {item.key: 0 for item in instance.items}
    for item in instance.items:
        if item.max_level > 0:
            heap.append((-_gradient(item, 0), item.key, 0))
    heapq.heapify(heap)

    remaining = float(instance.budget)
    value = 0.0
    while heap:
        neg_grad, key, level = heapq.heappop(heap)
        if levels[key] != level:
            continue
        grad = -neg_grad
        if grad <= 0.0:
            break
        item = by_key[key]
        size_gain = item.sizes[level + 1] - item.sizes[level]
        profit_gain = item.profits[level + 1] - item.profits[level]
        if size_gain <= remaining:
            levels[key] = level + 1
            remaining -= size_gain
            value += profit_gain
            if level + 1 < item.max_level:
                heapq.heappush(heap, (-_gradient(item, level + 1), key, level + 1))
        else:
            value += grad * remaining
            break
    return value


def solve_exact_dp(instance: MckpInstance) -> MckpSolution:
    """Exact MCKP solver by dynamic programming over byte budgets.

    ``O(n * budget * k)`` time and ``O(n * budget)`` memory -- intended for
    correctness tests on small instances only, not for production rounds.
    """
    items = instance.items
    budget = instance.budget
    n = len(items)
    neg_inf = float("-inf")
    # best[b] = best profit using a prefix of items with total size exactly <= b
    best = [0.0] * (budget + 1)
    choice: list[list[int]] = []
    for item in items:
        new_best = [neg_inf] * (budget + 1)
        new_choice = [0] * (budget + 1)
        for b in range(budget + 1):
            for level, (size, profit) in enumerate(zip(item.sizes, item.profits)):
                if size > b:
                    break  # sizes strictly increase
                cand = best[b - size] + profit
                if cand > new_best[b]:
                    new_best[b] = cand
                    new_choice[b] = level
        best = new_best
        choice.append(new_choice)

    solution = MckpSolution()
    b = max(range(budget + 1), key=lambda idx: best[idx]) if n else 0
    total_profit = best[b] if n else 0.0
    for index in range(n - 1, -1, -1):
        item = items[index]
        level = choice[index][b]
        solution.levels[item.key] = level
        solution.total_size += item.sizes[level]
        b -= item.sizes[level]
    solution.total_profit = total_profit if n else 0.0
    return solution


def convex_hull_levels(item: MckpItem) -> list[int]:
    """Levels surviving LP-domination filtering, in increasing size order.

    Classical MCKP preprocessing (Sinha & Zoltners): first drop *dominated*
    levels (some other level has no larger size and no smaller profit),
    then drop *LP-dominated* levels (below the upper-left convex hull of
    the (size, profit) cloud).  The surviving levels always include level 0
    and have strictly decreasing utility-size gradients, which is exactly
    the precondition under which the greedy of Algorithm 1 carries its
    one-upgrade optimality bound for ARBITRARY profit profiles -- e.g. the
    Lyapunov-adjusted profits of Eq. 7, which need not be monotone.
    """
    return kernels.hull_levels(item.sizes, item.profits)


def select_presentations_general(instance: MckpInstance) -> MckpSolution:
    """Algorithm 1 with LP-domination preprocessing for arbitrary profits.

    Filters each item's ladder to its convex hull (so gradients are
    strictly decreasing), runs the greedy on the reduced ladders, and maps
    chosen levels back to the original level indices.  For ladders that
    are already gradient-monotone this selects exactly what
    :func:`select_presentations` does, at the cost of an ``O(n k)``
    preprocessing pass.  Hull reduction, greedy and level back-mapping all
    live in :func:`repro.runtime.kernels.greedy_select_hull`.
    """
    keys = [item.key for item in instance.items]
    levels, total_size, total_profit = kernels.greedy_select_hull(
        keys,
        [item.sizes for item in instance.items],
        [item.profits for item in instance.items],
        instance.budget,
    )
    return MckpSolution(
        levels=dict(zip(keys, levels)),
        total_size=total_size,
        total_profit=total_profit,
    )
