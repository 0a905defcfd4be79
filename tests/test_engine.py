"""The round engine's clock: which arrivals join which round, on the scalar replay.

:func:`repro.runtime.columnar.round_arrivals` walks :func:`round_times`
over one time-sorted arrival stream.  ``run_user`` and
``SystemSimulation`` hand each round's slice in and then run the round,
so these are the ordering rules every scalar replay obeys.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.runtime import kernels
from repro.runtime.columnar import round_arrivals, round_times


def joined(arrivals, period, duration):
    """The arrivals each round hands in, as lists, in clock order."""
    start = 0
    rounds = []
    for _, end in round_arrivals(arrivals, period, duration):
        rounds.append(list(arrivals[start:end]))
        start = end
    return rounds


class TestScheduling:
    def test_events_fire_in_time_order(self):
        assert joined([1.0, 5.0, 9.0], 4.0, 12.0) == [[1.0], [5.0], [9.0]]

    def test_simultaneous_events_fifo(self):
        # A slice never splits a tie, so a stable sort's stream order holds.
        ends = [end for _, end in round_arrivals([1.0, 3.0, 3.0, 3.0], 4.0, 8.0)]
        assert ends == [4, 4]

    def test_clock_advances_to_event_time(self):
        # An arrival at 7.5 s is handed in at the 8 s tick, the round's time.
        clock = round_arrivals([7.5], 4.0, 8.0)
        assert clock == [(4.0, 0), (8.0, 1)]

    def test_arrival_at_tick_joins_that_round(self):
        assert joined([4.0, 8.0], 4.0, 8.0) == [[4.0], [8.0]]

    def test_arrival_just_after_tick_waits_a_round(self):
        late = np.nextafter(4.0, np.inf)
        assert joined([late], 4.0, 8.0) == [[], [late]]

    def test_arrival_at_time_zero_joins_first_round(self):
        assert joined([0.0], 4.0, 8.0) == [[0.0], []]

    def test_array_stream_matches_list_stream(self):
        arrivals = [0.5, 4.0, 6.0, 6.0, 11.0]
        assert round_arrivals(np.array(arrivals), 4.0, 12.0) == round_arrivals(
            arrivals, 4.0, 12.0
        )


class TestRunBounds:
    def test_until_stops_before_later_events(self):
        arrivals = [1.0, 10.0, 40.5, 41.5]
        ends = [end for _, end in round_arrivals(arrivals, 10.0, 40.0)]
        assert ends[-1] == 2
        assert arrivals[ends[-1]:] == [40.5, 41.5]

    def test_until_with_empty_heap_advances_clock(self):
        # No arrivals at all: the clock still ticks up to the horizon.
        assert round_arrivals([], 10.0, 30.0) == [(10.0, 0), (20.0, 0), (30.0, 0)]

    def test_no_rounds_shorter_than_one_period(self):
        assert round_arrivals([1.0, 2.0], 3600.0, 1800.0) == []


class TestPeriodic:
    def test_periodic_fires_on_schedule(self):
        clock = round_arrivals([1.0, 2.0], 10.0, 40.0)
        assert [now for now, _ in clock] == [10.0, 20.0, 30.0, 40.0]
        assert [now for now, _ in clock] == round_times(10.0, 40.0)

    def test_periodic_requires_positive_period(self):
        with pytest.raises(ValueError, match="period"):
            round_arrivals([1.0], 0.0, 100.0)

    def test_periodic_sees_state_between_rounds(self):
        # An arrival at 5 s is not yet queued at the 4 s tick, but is at 8 s.
        ends = [end for _, end in round_arrivals([5.0], 4.0, 8.0)]
        assert ends == [0, 1]


class TestAgreesWithColumnarIngest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slices_match_ingest_round_index(self, seed):
        rng = random.Random(seed)
        period, duration = 7.0, 100.0
        times = round_times(period, duration)
        arrivals = sorted(
            [rng.uniform(0.0, duration + 5.0) for _ in range(60)]
            + [rng.choice(times) for _ in range(10)]
        )
        rounds = kernels.ingest_round_index(arrivals, times)
        start = 0
        for k, (now, end) in enumerate(round_arrivals(arrivals, period, duration)):
            assert now == times[k]
            assert all(rounds[start:end] == k)
            start = end
        assert all(rounds[start:] == len(times))

    def test_arrival_at_a_tick_gets_that_round(self):
        assert list(kernels.ingest_round_index([20.0], [10.0, 20.0])) == [1]

    def test_arrival_past_last_tick_gets_no_round(self):
        times = [10.0, 20.0, 30.0]
        assert list(kernels.ingest_round_index([30.5], times)) == [len(times)]
