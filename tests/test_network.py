"""Tests for the Markov connectivity model (Section V-D3)."""

import random
from collections import Counter

import pytest

from repro.sim.network import (
    DEFAULT_TRANSITIONS,
    CellularOnlyNetwork,
    MarkovNetworkModel,
    NetworkState,
)


class TestTransitions:
    def test_default_matrix_matches_paper(self):
        """50% self-loop, equal split of the remainder, for every state."""
        for state, row in DEFAULT_TRANSITIONS.items():
            assert row[state] == 0.5
            others = [p for target, p in row.items() if target != state]
            assert all(p == 0.25 for p in others)

    def test_rows_sum_to_one(self):
        for row in DEFAULT_TRANSITIONS.values():
            assert sum(row.values()) == pytest.approx(1.0)

    def test_invalid_matrix_rejected(self):
        bad = {
            NetworkState.WIFI: {NetworkState.WIFI: 1.5, NetworkState.CELL: -0.5,
                                NetworkState.OFF: 0.0},
            NetworkState.CELL: DEFAULT_TRANSITIONS[NetworkState.CELL],
            NetworkState.OFF: DEFAULT_TRANSITIONS[NetworkState.OFF],
        }
        with pytest.raises(ValueError):
            MarkovNetworkModel(transitions=bad)

    def test_missing_row_rejected(self):
        with pytest.raises(ValueError):
            MarkovNetworkModel(transitions={NetworkState.WIFI: {NetworkState.WIFI: 1.0}})


class TestMarkovModel:
    def test_initial_state(self):
        model = MarkovNetworkModel(initial_state=NetworkState.WIFI)
        assert model.state is NetworkState.WIFI
        assert model.connected

    def test_off_means_disconnected_zero_bandwidth(self):
        model = MarkovNetworkModel(initial_state=NetworkState.OFF)
        assert not model.connected
        assert model.bandwidth == 0.0
        assert model.capacity_per_round(3600.0) == 0.0

    def test_step_visits_all_states(self):
        model = MarkovNetworkModel(rng=random.Random(3))
        visited = Counter(model.step() for _ in range(500))
        assert set(visited) == set(NetworkState)

    def test_empirical_distribution_near_uniform(self):
        """The paper's chain is doubly stochastic: stationary = 1/3 each."""
        model = MarkovNetworkModel(rng=random.Random(7))
        visited = Counter()
        for _ in range(6000):
            visited[model.step()] += 1
        for state in NetworkState:
            assert visited[state] / 6000 == pytest.approx(1 / 3, abs=0.04)

    def test_deterministic_under_seed(self):
        a = MarkovNetworkModel(rng=random.Random(42))
        b = MarkovNetworkModel(rng=random.Random(42))
        assert [a.step() for _ in range(50)] == [b.step() for _ in range(50)]

    def test_capacity_scales_with_round_length(self):
        model = MarkovNetworkModel(initial_state=NetworkState.CELL)
        assert model.capacity_per_round(2.0) == pytest.approx(2 * model.bandwidth)
        with pytest.raises(ValueError):
            model.capacity_per_round(-1.0)


class TestCellularOnly:
    def test_always_connected_cell(self):
        model = CellularOnlyNetwork()
        for _ in range(5):
            assert model.step() is NetworkState.CELL
        assert model.connected
        assert model.bandwidth > 0
