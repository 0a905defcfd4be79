"""Synthetic per-user battery traces.

The evaluation feeds the scheduler "a separate trace (obtained from [6]) of
timestamped battery status per user ... to mimic energy drain and battery
recharge patterns of the devices".  Those traces are not public, so this
module synthesizes them: a diurnal model in which the battery drains during
the user's active hours and recharges overnight (plus occasional daytime
top-ups), with per-user phase and rate jitter.

The scheduler consumes the trace through two views:

* :meth:`BatteryTrace.level` -- state of charge in [0, 1] at a timestamp;
* :meth:`BatteryTrace.replenishment` -- the battery-aware energy-budget
  refill rate ``e(t)`` for a round (Algorithm 2, step 2): a full, charging
  battery grants the full per-round allowance ``kappa``; a depleted battery
  grants proportionally less, modelling a user unwilling to spend scarce
  charge on notification downloads.

Cohort runs materialize no trace: ``replenishment_columns`` runs the
recurrence of ``generate`` (its bit-for-bit scalar reference) for many RNG
lanes at once and returns ``e(t)`` per round.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BatterySample:
    """One timestamped battery reading."""

    time: float
    level: float
    charging: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError(f"sample time must be finite, got {self.time}")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {self.level}")


@dataclass
class DiurnalBatteryModel:
    """Generator of synthetic battery traces.

    Parameters
    ----------
    drain_per_hour:
        Mean state-of-charge loss per active hour (default 5 %).
    charge_per_hour:
        Charging rate while plugged in (default 40 %/h, ~2.5 h full charge).
    night_start_hour / night_end_hour:
        Local hours between which the device is plugged in.
    jitter:
        Relative randomization of per-user drain rates and charge phase.
    """

    drain_per_hour: float = 0.05
    charge_per_hour: float = 0.40
    night_start_hour: float = 23.0
    night_end_hour: float = 7.0
    jitter: float = 0.3
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if not 0 < self.drain_per_hour < 1:
            raise ValueError("drain rate must be in (0, 1)")
        if not 0 < self.charge_per_hour <= 1:
            raise ValueError("charge rate must be in (0, 1]")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def generate(
        self,
        duration_seconds: float,
        sample_period_seconds: float = 3600.0,
        initial_level: float = 1.0,
    ) -> "BatteryTrace":
        """Produce a trace of ``duration_seconds`` sampled every period."""
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if sample_period_seconds <= 0:
            raise ValueError("sample period must be positive")
        if not 0.0 <= initial_level <= 1.0:
            raise ValueError("initial level must be in [0, 1]")

        scale = 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        drain = self.drain_per_hour * scale
        phase = self.rng.uniform(-1.0, 1.0) * self.jitter * 2.0  # hours

        samples: list[BatterySample] = []
        level = initial_level
        t = 0.0
        while t <= duration_seconds:
            hour = ((t / 3600.0) + phase) % 24.0
            charging = self._is_night(hour) or (
                level < 0.15 and self.rng.random() < 0.5
            )
            samples.append(BatterySample(time=t, level=level, charging=charging))
            hours = sample_period_seconds / 3600.0
            if charging:
                level = min(1.0, level + self.charge_per_hour * hours)
            else:
                activity = 0.5 + 0.5 * math.sin(math.pi * (hour - 7.0) / 12.0)
                level = max(0.0, level - drain * hours * max(0.2, activity))
            t += sample_period_seconds
        return BatteryTrace(samples)

    def _is_night(self, hour: float | np.ndarray) -> bool | np.ndarray:
        """Night test for one hour of day or, element-wise, an array."""
        if self.night_start_hour <= self.night_end_hour:
            return (self.night_start_hour <= hour) & (hour < self.night_end_hour)
        return (hour >= self.night_start_hour) | (hour < self.night_end_hour)

    def replenishment_columns(
        self, lanes: Sequence[random.Random], n_rounds: int,
        round_seconds: float, duration_seconds: float, kappa_joules: float,
    ) -> np.ndarray:
        """``e(t)`` of a fresh trace per RNG lane: rounds down, lanes across.

        Column ``u`` is bit-identical to ``generate(duration_seconds +
        round_seconds, round_seconds)`` with ``lanes[u]`` as the ``rng`` (the
        model's own is not read) followed by :meth:`BatteryTrace.
        sample_replenishment` on sample ``k + 1`` for round ``k``, clamped to
        the last -- the lookup the round grid induces -- and leaves each lane
        where ``generate`` would.  One recurrence over samples, vectors across
        lanes; operands pair as in ``generate`` and a lane draws its top-up
        coin at exactly the samples it would there (DESIGN.md section 13).
        """
        if n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if round_seconds <= 0:
            raise ValueError("sample period must be positive")
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if kappa_joules < 0:
            raise ValueError("kappa must be >= 0")

        draws = [(lane.random(), lane.uniform(-1.0, 1.0)) for lane in lanes]
        scale_draw, phase_draw = np.array(draws, dtype=np.float64).reshape(-1, 2).T
        drain = self.drain_per_hour * (1.0 + self.jitter * (2.0 * scale_draw - 1.0))
        phase = phase_draw * self.jitter * 2.0  # hours

        sample_times: list[float] = []
        t = 0.0
        while t <= duration_seconds + round_seconds:
            sample_times.append(t)
            t += round_seconds
        hour = ((np.array(sample_times)[:, None] / 3600.0) + phase) % 24.0
        charging = self._is_night(hour)  # top-ups are added as they are drawn
        hours = round_seconds / 3600.0
        angle = math.pi * (hour - 7.0) / 12.0
        # math.sin per element: np.sin is not guaranteed the same bits.
        sines = np.fromiter(map(math.sin, angle.ravel().tolist()), np.float64, angle.size)
        activity = 0.5 + 0.5 * sines.reshape(angle.shape)
        charge_step = self.charge_per_hour * hours
        # Signed: level - x is the same IEEE operation as level + (-x).
        step = np.where(charging, charge_step, -(drain * hours * np.maximum(0.2, activity)))

        # levels[k] is sample k's level; row k + 1 is written from row k.
        levels = np.empty((len(sample_times) + 1, len(lanes)), dtype=np.float64)
        levels[0] = 1.0
        for k, level in enumerate(levels[:-1]):
            if level.min(initial=1.0) < 0.15:
                for u in np.flatnonzero((level < 0.15) & ~charging[k]).tolist():
                    if lanes[u].random() < 0.5:
                        charging[k, u] = True
                        step[k, u] = charge_step
            following = levels[k + 1]
            np.add(level, step[k], out=following)
            np.maximum(0.0, following, out=following)
            np.minimum(1.0, following, out=following)

        # Round k reads sample k + 1, the last sample once past the trace.
        read = np.minimum(np.arange(1, n_rounds + 1), len(sample_times) - 1)
        read_level = levels[read]
        refill = np.where(read_level < 0.05, 0.0, kappa_joules * np.maximum(0.2, read_level))
        return np.where(charging[read], kappa_joules, refill)


class BatteryTrace:
    """A timestamped battery trace with interpolation-free lookups.

    Lookups return the most recent sample at or before the query time
    (step semantics, matching how status logs are recorded).
    """

    def __init__(self, samples: list[BatterySample]):
        if not samples:
            raise ValueError(
                "battery trace must contain at least one sample "
                "(got an empty sample list)"
            )
        for sample in samples:
            if not isinstance(sample, BatterySample):
                raise ValueError(
                    f"battery trace entries must be BatterySample, "
                    f"got {type(sample).__name__}"
                )
        # Unsorted input is accepted and ordered; equal timestamps are
        # ambiguous (which reading wins?) and rejected up front rather
        # than surfacing as wrong lookups downstream.
        ordered = sorted(samples, key=lambda s: s.time)
        for lo, hi in zip(ordered, ordered[1:]):
            if hi.time == lo.time:
                raise ValueError(
                    f"duplicate sample timestamp {lo.time}: battery trace "
                    "timestamps must be distinct"
                )
        self._samples = ordered
        self._times = [s.time for s in ordered]

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    def _locate(self, time: float) -> BatterySample:
        import bisect

        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return self._samples[0]
        return self._samples[index]

    def level(self, time: float) -> float:
        """State of charge in [0, 1] at ``time``."""
        return self._locate(time).level

    def charging(self, time: float) -> bool:
        return self._locate(time).charging

    def replenishment(self, time: float, kappa_joules: float) -> float:
        """Battery-aware energy-budget refill ``e(t)`` for the round.

        * charging, any level: full ``kappa`` (energy is effectively free);
        * discharging: ``kappa`` scaled by the state of charge, floored at
          20% so the budget never starves completely while the device is on;
        * below 5% charge: zero -- the user's device is about to die and no
          discretionary downloads should be charged against it.
        """
        return self.sample_replenishment(self._locate(time), kappa_joules)

    @staticmethod
    def sample_replenishment(
        sample: BatterySample, kappa_joules: float
    ) -> float:
        """The :meth:`replenishment` rule for an already-located sample
        (with ``generate``, the reference the column form is tested against)."""
        if kappa_joules < 0:
            raise ValueError("kappa must be >= 0")
        if sample.charging:
            return kappa_joules
        if sample.level < 0.05:
            return 0.0
        return kappa_joules * max(0.2, sample.level)
