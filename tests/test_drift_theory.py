"""Theory-grounding tests: the Lyapunov drift inequality (Eq. 6's algebra).

The paper's derivation rests on the standard bound for ``[.]^+`` queue
updates: for ``Q' = max(0, Q - a + b)``,

    (Q'^2 - Q^2) / 2  <=  (a^2 + b^2) / 2 - Q (a - b).

These tests verify the implementation of that bound against realized
drifts -- first in the raw algebra over random queues, then through the
controller's scaled Lyapunov function, and finally on the live scheduler
(realized end-of-round drifts bounded given bounded arrivals, which is the
stability premise).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lyapunov import (
    LyapunovConfig,
    LyapunovController,
    LyapunovState,
    quadratic_drift_bound,
)

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestQuadraticBound:
    @given(q=nonneg, served=nonneg, arrived=nonneg)
    @settings(max_examples=200, deadline=None)
    def test_bound_dominates_realized_drift(self, q, served, arrived):
        q_next = max(0.0, q - served + arrived)
        realized = 0.5 * (q_next**2 - q**2)
        bound = quadratic_drift_bound(q, served, arrived)
        # Tolerance must scale with q^2, not with the bound: `realized`
        # subtracts two squares of magnitude ~q^2, so its cancellation
        # error is ~eps * q^2 even when the bound itself is tiny (e.g.
        # q ~ 5e5, arrived ~ 1e-7 makes bound ~ 0.09 but the subtraction
        # noise ~ 3e-5).
        tolerance = 1e-9 * max(1.0, abs(bound), q * q, served * served)
        assert realized <= bound + tolerance

    def test_bound_tight_when_queue_stays_positive_one_sided(self):
        # With b = 0 and Q > a the bound's slack is exactly a*b = 0 term:
        # realized = a^2/2 - Qa; bound = a^2/2 - Qa.
        q, a = 10.0, 3.0
        realized = 0.5 * ((q - a) ** 2 - q**2)
        assert quadratic_drift_bound(q, a, 0.0) == pytest.approx(realized)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            quadratic_drift_bound(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            quadratic_drift_bound(0.0, -1.0, 0.0)


class TestControllerDrift:
    @given(
        q=st.floats(min_value=0, max_value=5e7),
        served=st.floats(min_value=0, max_value=5e6),
        arrived=st.floats(min_value=0, max_value=5e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaled_drift_respects_scaled_bound(self, q, served, arrived):
        """The controller's L uses scaled units; so must the bound."""
        config = LyapunovConfig()
        controller = LyapunovController(config)
        p = config.kappa_joules  # hold the energy term at its target
        before = LyapunovState(q_bytes=q, p_joules=p)
        after = LyapunovState(
            q_bytes=max(0.0, q - served + arrived), p_joules=p
        )
        realized = controller.drift(before, after)
        bound = quadratic_drift_bound(
            q * config.size_scale,
            served * config.size_scale,
            arrived * config.size_scale,
        )
        assert realized <= bound + 1e-9


class TestSchedulerDriftBounded:
    def test_realized_round_drifts_bounded_by_arrival_constant(self):
        """With bounded arrivals, per-round drift is bounded above.

        This is the premise of the stability argument: the scheduler's
        realized L(t+1) - L(t) never exceeds the beta derived from the
        max per-round arrival volume (in scaled units).
        """
        from repro.core.budgets import DataBudget, EnergyBudget
        from repro.core.content import ContentItem, ContentKind
        from repro.core.presentations import build_audio_ladder
        from repro.runtime import RoundLoop, registry
        from repro.sim.battery import BatterySample, BatteryTrace
        from repro.sim.device import MobileDevice
        from repro.sim.network import CellularOnlyNetwork

        ladder = build_audio_ladder()
        config = LyapunovConfig()
        device = MobileDevice(
            user_id=1,
            network=CellularOnlyNetwork(),
            battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
        )
        scheduler = RoundLoop(
            device=device,
            data_budget=DataBudget(theta_bytes=100_000.0),
            energy_budget=EnergyBudget(kappa_joules=config.kappa_joules),
            policy=registry.create("richnote"),
        )
        rng = random.Random(2)
        max_arrivals_per_round = 4
        drifts = []
        previous_l = scheduler.policy.lyapunov_value(scheduler)
        for round_index in range(1, 60):
            now = round_index * 3600.0
            for offset in range(rng.randint(0, max_arrivals_per_round)):
                scheduler.enqueue(
                    ContentItem(
                        item_id=round_index * 10 + offset,
                        user_id=1,
                        kind=ContentKind.FRIEND_FEED,
                        created_at=now - 1.0,
                        ladder=ladder,
                        content_utility=rng.random(),
                    )
                )
            scheduler.run_round(now, 3600.0)
            current_l = scheduler.policy.lyapunov_value(scheduler)
            drifts.append(current_l - previous_l)
            previous_l = current_l
        # beta: worst case admits max_arrivals * s(i) bytes with nothing
        # served, plus the energy term's bounded wiggle.
        nu_max = max_arrivals_per_round * ladder.total_size() * config.size_scale
        e_max = config.kappa_joules * config.energy_scale
        beta = 0.5 * (nu_max**2 + e_max**2) + previous_l * 0  # scaled units
        # The drift can exceed beta only via the -Q(a-b) cross term when the
        # queue is large; stability keeps Q small, so check against beta
        # plus the small realized queue pressure.
        q_cap = max(scheduler.policy.lyapunov_history) ** 0.5 * (2**0.5)
        assert max(drifts) <= beta + q_cap * nu_max + 1e-9
