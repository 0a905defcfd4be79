"""Tests for the Lyapunov drift-plus-penalty controller (Eq. 3-7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lyapunov import LyapunovConfig, LyapunovController, LyapunovState


class TestLyapunovConfig:
    def test_defaults_match_paper(self):
        config = LyapunovConfig()
        assert config.v == 1000.0
        assert config.kappa_joules == 3000.0  # 3 kJ per hourly round

    def test_validation(self):
        with pytest.raises(ValueError):
            LyapunovConfig(v=-1)
        with pytest.raises(ValueError):
            LyapunovConfig(kappa_joules=0)
        with pytest.raises(ValueError):
            LyapunovConfig(size_scale=0)
        for field in ("v", "kappa_joules", "size_scale", "energy_scale"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field):
                    LyapunovConfig(**{field: value})


class TestLyapunovState:
    def test_rejects_negative_queues(self):
        with pytest.raises(ValueError):
            LyapunovState(q_bytes=-1, p_joules=0)
        with pytest.raises(ValueError):
            LyapunovState(q_bytes=0, p_joules=-1)


class TestLyapunovFunction:
    def test_minimum_at_empty_queue_and_kappa(self):
        controller = LyapunovController(LyapunovConfig(kappa_joules=100))
        at_target = controller.lyapunov_function(
            LyapunovState(q_bytes=0, p_joules=100)
        )
        assert at_target == 0.0
        off_target = controller.lyapunov_function(
            LyapunovState(q_bytes=1000, p_joules=100)
        )
        assert off_target > 0

    def test_quadratic_in_backlog(self):
        controller = LyapunovController(LyapunovConfig(kappa_joules=100))
        l1 = controller.lyapunov_function(LyapunovState(1e6, 100))
        l2 = controller.lyapunov_function(LyapunovState(2e6, 100))
        assert l2 == pytest.approx(4 * l1)

    def test_drift_sign(self):
        controller = LyapunovController(LyapunovConfig(kappa_joules=100))
        before = LyapunovState(2e6, 100)
        after = LyapunovState(1e6, 100)
        assert controller.drift(before, after) < 0  # queue drained


class TestAdjustedUtility:
    def test_level_zero_has_zero_adjusted_utility(self):
        controller = LyapunovController()
        state = LyapunovState(q_bytes=1e6, p_joules=3000)
        assert (
            controller.adjusted_utility(state, 1e6, 10.0, 0.5, delivered=False)
            == 0.0
        )

    def test_matches_eq7_by_hand(self):
        config = LyapunovConfig(
            v=10.0, kappa_joules=1000.0, size_scale=1e-6, energy_scale=1e-3
        )
        controller = LyapunovController(config)
        state = LyapunovState(q_bytes=2e6, p_joules=500.0)
        # Q*s = (2 MB)(1 MB) = 2; (P-kappa)*rho = (-0.5 kJ)(0.01 kJ) = -0.005
        # V*U = 10 * 0.3 = 3
        value = controller.adjusted_utility(
            state, item_backlog_bytes=1e6, energy_joules=10.0, utility=0.3
        )
        assert value == pytest.approx(2.0 - 0.005 + 3.0)

    def test_queue_pressure_increases_adjusted_utility(self):
        controller = LyapunovController()
        low_q = LyapunovState(q_bytes=0, p_joules=3000)
        high_q = LyapunovState(q_bytes=1e8, p_joules=3000)
        low = controller.adjusted_utility(low_q, 1e6, 1.0, 0.5)
        high = controller.adjusted_utility(high_q, 1e6, 1.0, 0.5)
        assert high > low

    def test_energy_deficit_penalizes_expensive_presentations(self):
        controller = LyapunovController(LyapunovConfig(kappa_joules=3000))
        deficit = LyapunovState(q_bytes=0, p_joules=0)  # P << kappa
        cheap = controller.adjusted_utility(deficit, 1e6, 1.0, 0.5)
        expensive = controller.adjusted_utility(deficit, 1e6, 1000.0, 0.5)
        assert expensive < cheap

    def test_profile_shapes(self):
        controller = LyapunovController()
        state = LyapunovState(q_bytes=1e6, p_joules=3000)
        profile = controller.adjusted_profile(
            state, 1e6, [0.0, 1.0, 2.0], [0.0, 0.1, 0.2]
        )
        assert len(profile) == 3
        assert profile[0] == 0.0

    def test_profile_alignment_enforced(self):
        controller = LyapunovController()
        state = LyapunovState(q_bytes=0, p_joules=3000)
        with pytest.raises(ValueError):
            controller.adjusted_profile(state, 1.0, [0.0, 1.0], [0.0])

    @given(
        q=st.floats(min_value=0, max_value=1e9),
        p=st.floats(min_value=0, max_value=1e5),
        utility=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=80, deadline=None)
    def test_v_scales_utility_term_linearly(self, q, p, utility):
        state = LyapunovState(q_bytes=q, p_joules=p)
        lo = LyapunovController(LyapunovConfig(v=1.0)).adjusted_utility(
            state, 1e6, 1.0, utility
        )
        hi = LyapunovController(LyapunovConfig(v=101.0)).adjusted_utility(
            state, 1e6, 1.0, utility
        )
        assert hi - lo == pytest.approx(100.0 * utility, rel=1e-6, abs=1e-9)
