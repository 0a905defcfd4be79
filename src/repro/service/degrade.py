"""The overload degradation ladder: reduce rich media, defer, shed.

Under sustained overload the service degrades *gracefully* and in a
deliberate order -- the cheapest quality loss first:

1. ``REDUCE_RICH`` -- selections are capped at a low presentation level
   (metadata/teaser instead of full previews), so every admitted item
   still reaches the user but bytes-per-item collapses;
2. ``DEFER`` -- new events are parked in a bounded deferred buffer and
   re-admitted when pressure clears, trading latency for survival;
3. ``SHED`` -- new events are refused outright with explicit
   ``Overload`` results (the deferred buffer overflowing dead-letters).

Escalation is immediate; recovery steps down one level per scheduler
tick and only once pressure has fallen a hysteresis margin below the
level's entry threshold, so the ladder cannot flap around a threshold.

Pressure is a single scalar in [0, 1]: frontier queue occupancy (window
peak, see :class:`~repro.service.queues.IngestFrontier`) plus the
scheduler backlog, plus a weighted penalty for open delivery breakers --
a saturated egress is overload even while queues look healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class PressureLevel(IntEnum):
    """Rungs of the ladder, ordered by severity."""

    NORMAL = 0
    REDUCE_RICH = 1
    DEFER = 2
    SHED = 3


@dataclass(frozen=True)
class DegradationConfig:
    """Entry thresholds (pressure fractions) and recovery hysteresis."""

    reduce_at: float = 0.50
    defer_at: float = 0.75
    shed_at: float = 0.90
    #: Pressure must fall this far below a level's entry threshold before
    #: the controller steps down from it.
    recover_margin: float = 0.10
    #: Presentation-level cap applied from REDUCE_RICH upward.
    rich_level_cap: int = 1
    #: Weight of the open-breaker fraction in the pressure scalar.
    breaker_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.reduce_at <= self.defer_at <= self.shed_at <= 1.0:
            raise ValueError(
                "need 0 < reduce_at <= defer_at <= shed_at <= 1, got "
                f"{self.reduce_at}/{self.defer_at}/{self.shed_at}"
            )
        if not 0.0 <= self.recover_margin < self.reduce_at:
            raise ValueError(
                f"recover_margin must be in [0, reduce_at), got "
                f"{self.recover_margin}"
            )
        if self.rich_level_cap < 1:
            raise ValueError("rich_level_cap must be >= 1 (metadata floor)")
        if self.breaker_weight < 0:
            raise ValueError("breaker_weight must be >= 0")

    def threshold(self, level: PressureLevel) -> float:
        if level is PressureLevel.SHED:
            return self.shed_at
        if level is PressureLevel.DEFER:
            return self.defer_at
        if level is PressureLevel.REDUCE_RICH:
            return self.reduce_at
        return 0.0


class DegradationController:
    """Hysteretic ladder state machine, updated once per scheduler tick."""

    def __init__(self, config: DegradationConfig | None = None) -> None:
        self.config = config or DegradationConfig()
        self.level = PressureLevel.NORMAL
        self.pressure = 0.0
        #: ``(time, level)`` history of every rung change.
        self.transitions: list[tuple[float, PressureLevel]] = []
        #: Highest rung ever reached (bench/health reporting).
        self.max_level = PressureLevel.NORMAL

    def compute_pressure(
        self, occupancy: float, breaker_open_fraction: float = 0.0
    ) -> float:
        config = self.config
        raw = occupancy + config.breaker_weight * breaker_open_fraction
        return max(0.0, min(1.0, raw))

    def _target(self, pressure: float) -> PressureLevel:
        config = self.config
        if pressure >= config.shed_at:
            return PressureLevel.SHED
        if pressure >= config.defer_at:
            return PressureLevel.DEFER
        if pressure >= config.reduce_at:
            return PressureLevel.REDUCE_RICH
        return PressureLevel.NORMAL

    def update(
        self,
        now: float,
        occupancy: float,
        breaker_open_fraction: float = 0.0,
    ) -> PressureLevel:
        """Fold one pressure sample; returns the (possibly new) level."""
        pressure = self.compute_pressure(occupancy, breaker_open_fraction)
        self.pressure = pressure
        target = self._target(pressure)
        level = self.level
        if target > level:
            level = target  # escalate immediately
        elif target < level:
            # Step down one rung per tick, and only with hysteresis room.
            entry = self.config.threshold(level)
            if pressure < entry - self.config.recover_margin:
                level = PressureLevel(level - 1)
        if level is not self.level:
            self.level = level
            self.transitions.append((now, level))
            self.max_level = max(self.max_level, level)
        return self.level

    # -- what the current rung means -------------------------------------------

    def level_cap(self) -> int | None:
        """Presentation cap to apply to round loops, or ``None``."""
        if self.level >= PressureLevel.REDUCE_RICH:
            return self.config.rich_level_cap
        return None

    @property
    def defers_ingest(self) -> bool:
        return self.level >= PressureLevel.DEFER

    @property
    def sheds_ingest(self) -> bool:
        return self.level >= PressureLevel.SHED
