"""Tests for synthetic battery traces."""

import random

import pytest

from repro.sim.battery import BatterySample, BatteryTrace, DiurnalBatteryModel

DAY = 86400.0


class TestBatterySample:
    def test_level_bounds(self):
        with pytest.raises(ValueError):
            BatterySample(time=0.0, level=1.5, charging=False)


class TestBatteryTrace:
    def trace(self):
        return BatteryTrace(
            [
                BatterySample(0.0, 1.0, charging=False),
                BatterySample(3600.0, 0.8, charging=False),
                BatterySample(7200.0, 0.6, charging=True),
            ]
        )

    def test_step_lookup_semantics(self):
        trace = self.trace()
        assert trace.level(0.0) == 1.0
        assert trace.level(3599.0) == 1.0
        assert trace.level(3600.0) == 0.8
        assert trace.level(999_999.0) == 0.6  # last sample persists

    def test_query_before_first_sample(self):
        trace = BatteryTrace([BatterySample(100.0, 0.5, False)])
        assert trace.level(0.0) == 0.5

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            BatteryTrace([])

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError):
            BatteryTrace(
                [BatterySample(0.0, 1.0, False), BatterySample(0.0, 0.9, False)]
            )

    def test_unsorted_samples_accepted_and_ordered(self):
        trace = BatteryTrace(
            [BatterySample(3600.0, 0.5, False), BatterySample(0.0, 1.0, False)]
        )
        assert trace.level(10.0) == 1.0


class TestReplenishment:
    def test_charging_grants_full_kappa(self):
        trace = BatteryTrace([BatterySample(0.0, 0.3, charging=True)])
        assert trace.replenishment(0.0, 3000.0) == 3000.0

    def test_discharging_scales_with_level(self):
        trace = BatteryTrace([BatterySample(0.0, 0.5, charging=False)])
        assert trace.replenishment(0.0, 3000.0) == pytest.approx(1500.0)

    def test_floor_at_twenty_percent(self):
        trace = BatteryTrace([BatterySample(0.0, 0.10, charging=False)])
        assert trace.replenishment(0.0, 3000.0) == pytest.approx(600.0)

    def test_nearly_dead_battery_grants_nothing(self):
        trace = BatteryTrace([BatterySample(0.0, 0.04, charging=False)])
        assert trace.replenishment(0.0, 3000.0) == 0.0

    def test_negative_kappa_rejected(self):
        trace = BatteryTrace([BatterySample(0.0, 1.0, False)])
        with pytest.raises(ValueError):
            trace.replenishment(0.0, -1.0)


class TestDiurnalModel:
    def test_generates_requested_span(self):
        model = DiurnalBatteryModel(rng=random.Random(1))
        trace = model.generate(3 * DAY, sample_period_seconds=3600.0)
        assert len(trace) == 3 * 24 + 1

    def test_levels_stay_in_bounds(self):
        model = DiurnalBatteryModel(rng=random.Random(2))
        trace = model.generate(7 * DAY)
        assert all(0.0 <= s.level <= 1.0 for s in trace)

    def test_overnight_charging_recovers_battery(self):
        """The battery should charge during the night window on most days."""
        model = DiurnalBatteryModel(rng=random.Random(3), jitter=0.0)
        trace = model.generate(2 * DAY)
        # At 03:00 each night the device is plugged in.
        assert trace.charging(3 * 3600.0)
        assert trace.charging(DAY + 3 * 3600.0)

    def test_daytime_drains(self):
        model = DiurnalBatteryModel(rng=random.Random(4), jitter=0.0)
        trace = model.generate(DAY)
        # Level mid-afternoon below the post-charge morning level.
        assert trace.level(15 * 3600.0) < trace.level(8 * 3600.0)

    def test_deterministic_under_seed(self):
        t1 = DiurnalBatteryModel(rng=random.Random(9)).generate(DAY)
        t2 = DiurnalBatteryModel(rng=random.Random(9)).generate(DAY)
        assert [s.level for s in t1] == [s.level for s in t2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalBatteryModel(drain_per_hour=0.0)
        with pytest.raises(ValueError):
            DiurnalBatteryModel(charge_per_hour=1.5)
        with pytest.raises(ValueError):
            DiurnalBatteryModel().generate(-1.0)
        with pytest.raises(ValueError):
            DiurnalBatteryModel().generate(100.0, sample_period_seconds=0.0)


def reference_refills(lane, n_rounds, round_seconds, duration, kappa, **model):
    """One lane the scalar way: materialize the trace, read sample k + 1."""
    trace = DiurnalBatteryModel(rng=lane, **model).generate(
        duration + round_seconds, sample_period_seconds=round_seconds
    )
    samples = list(trace)
    last = len(samples) - 1
    return [
        trace.sample_replenishment(samples[min(k + 1, last)], kappa)
        for k in range(n_rounds)
    ]


def assert_columns_match_reference(
    seeds, n_rounds, round_seconds, duration, kappa, **model
):
    """Exact refills per lane, and every lane left where generate() leaves it."""
    reference_lanes = [random.Random(seed) for seed in seeds]
    lanes = [random.Random(seed) for seed in seeds]
    columns = DiurnalBatteryModel(**model).replenishment_columns(
        lanes, n_rounds, round_seconds, duration, kappa
    )
    assert columns.shape == (n_rounds, len(seeds))
    for u, reference_lane in enumerate(reference_lanes):
        expected = reference_refills(
            reference_lane, n_rounds, round_seconds, duration, kappa, **model
        )
        assert columns[:, u].tolist() == expected  # exact: same floats
        assert lanes[u].random() == reference_lane.random()
    return columns


class TestReplenishmentColumn:
    """The column recurrence replays generate() bit for bit, lane by lane."""

    @pytest.mark.parametrize("seed", [1, 7, 97])
    @pytest.mark.parametrize(
        "round_seconds,duration",
        [
            (3600.0, 168 * 3600.0),  # the paper's weekly grid
            (600.0, DAY),            # sub-hourly rounds
            (3600.0, 1800.0),        # duration shorter than one round
            (900.0, DAY),
            (7200.0, 3 * DAY),
        ],
    )
    def test_matches_materialized_trace_exactly(
        self, seed, round_seconds, duration
    ):
        # Ask for more rounds than the trace holds so the past-the-end
        # clamp (last sample repeats) is exercised too.
        n_rounds = int(duration // round_seconds) + 5
        # 0.3 and 0.6 drain below 15 % (the conditional top-up draw) and
        # below 5 % (refill 0), which the default never does; the second
        # night window does not wrap midnight.
        for drain in (0.05, 0.3, 0.6):
            for night_start, night_end in ((23.0, 7.0), (1.0, 6.0)):
                for n_lanes in (0, 1, 7):
                    assert_columns_match_reference(
                        [seed + 1000 * lane for lane in range(n_lanes)],
                        n_rounds, round_seconds, duration, 30.0,
                        drain_per_hour=drain,
                        night_start_hour=night_start,
                        night_end_hour=night_end,
                    )

    def test_consumes_the_same_rng_draws(self):
        """Interleaving-sensitive: a lane draws its top-up coin only while
        it is below 15 % outside night, so 300 lanes that run low at
        different samples must each be left in the state generate()
        leaves them in -- and the run must really reach both low-battery
        branches."""
        kappa = 30.0
        for drain in (0.3, 0.6):
            columns = assert_columns_match_reference(
                range(11, 311), 24 * 7, 3600.0, 7 * DAY, kappa,
                drain_per_hour=drain,
            )
            assert (columns == 0.0).any()
            assert ((columns > 0.0) & (columns < kappa)).any()

    def test_validation(self):
        model = DiurnalBatteryModel()
        lanes = [random.Random(1)]
        with pytest.raises(ValueError):
            model.replenishment_columns(lanes, -1, 3600.0, DAY, 30.0)
        with pytest.raises(ValueError):
            model.replenishment_columns(lanes, 10, 0.0, DAY, 30.0)
        with pytest.raises(ValueError):
            model.replenishment_columns(lanes, 10, 3600.0, -1.0, 30.0)
        with pytest.raises(ValueError):
            model.replenishment_columns(lanes, 10, 3600.0, DAY, -1.0)
