"""Tiered token-bucket rate limiting: global / per-user / per-topic.

Fan-out is bounded at three granularities before an event may touch a
queue: one global bucket protects the service, per-user buckets stop a
single hot recipient from starving the rest, and per-topic buckets keep
one noisy content kind (e.g. a viral album release) from crowding out
friend-feed notifications.

Admission is all-or-nothing: every applicable bucket is *peeked* first
and tokens are consumed only when all tiers agree, so a denial at the
topic tier never leaks tokens from the global tier.  Buckets refill
lazily from elapsed monotonic time -- there is no background task to
schedule, and the arithmetic is exact for the deterministic simulated
clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.content import ContentKind


class TokenBucket:
    """Classic token bucket with lazy, clock-driven refill."""

    __slots__ = ("rate", "capacity", "_tokens", "_updated")

    def __init__(self, rate: float, capacity: float, now: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/s, got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 token, got {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._tokens = float(capacity)
        self._updated = float(now)

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                self.capacity, self._tokens + (now - self._updated) * self.rate
            )
        self._updated = max(self._updated, now)

    def available(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def peek(self, now: float, tokens: float = 1.0) -> bool:
        """Would ``tokens`` be grantable right now?  Consumes nothing."""
        return self.available(now) >= tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        self._refill(now)
        if self._tokens < tokens:
            return False
        self._tokens -= tokens
        return True


@dataclass(frozen=True)
class RateLimitConfig:
    """Rates are tokens (events) per second; ``None`` disables a tier.

    Bursts are bucket capacities: how much of a momentary spike each tier
    absorbs before it starts denying.
    """

    global_rate: float | None = None
    global_burst: float = 64.0
    per_user_rate: float | None = None
    per_user_burst: float = 8.0
    per_topic_rate: float | None = None
    per_topic_burst: float = 32.0

    def __post_init__(self) -> None:
        for name in ("global_rate", "per_user_rate", "per_topic_rate"):
            rate = getattr(self, name)
            if rate is not None and rate <= 0:
                raise ValueError(f"{name} must be > 0 when set, got {rate}")
        for name in ("global_burst", "per_user_burst", "per_topic_burst"):
            burst = getattr(self, name)
            if burst < 1:
                raise ValueError(f"{name} must be >= 1, got {burst}")

    @property
    def enabled(self) -> bool:
        return any(
            rate is not None
            for rate in (self.global_rate, self.per_user_rate, self.per_topic_rate)
        )


@dataclass(frozen=True, slots=True)
class RateDecision:
    """Outcome of one admission check; ``tier`` names the denier."""

    allowed: bool
    tier: str = ""


class TieredRateLimiter:
    """The three-tier limiter; per-user/per-topic buckets spawn lazily."""

    def __init__(self, config: RateLimitConfig, now: float = 0.0) -> None:
        self.config = config
        self._global = (
            TokenBucket(config.global_rate, config.global_burst, now)
            if config.global_rate is not None
            else None
        )
        self._per_user: dict[int, TokenBucket] = {}
        self._per_topic: dict[ContentKind, TokenBucket] = {}
        #: Denials by tier name, for health snapshots.
        self.denials: dict[str, int] = {"global": 0, "user": 0, "topic": 0}

    def _user_bucket(self, user_id: int, now: float) -> TokenBucket | None:
        if self.config.per_user_rate is None:
            return None
        bucket = self._per_user.get(user_id)
        if bucket is None:
            bucket = TokenBucket(
                self.config.per_user_rate, self.config.per_user_burst, now
            )
            self._per_user[user_id] = bucket
        return bucket

    def _topic_bucket(self, kind: ContentKind, now: float) -> TokenBucket | None:
        if self.config.per_topic_rate is None:
            return None
        bucket = self._per_topic.get(kind)
        if bucket is None:
            bucket = TokenBucket(
                self.config.per_topic_rate, self.config.per_topic_burst, now
            )
            self._per_topic[kind] = bucket
        return bucket

    def allow(self, now: float, user_id: int, kind: ContentKind) -> RateDecision:
        """Check all tiers; consume one token from each only if all pass."""
        tiers: list[tuple[str, TokenBucket]] = []
        if self._global is not None:
            tiers.append(("global", self._global))
        user_bucket = self._user_bucket(user_id, now)
        if user_bucket is not None:
            tiers.append(("user", user_bucket))
        topic_bucket = self._topic_bucket(kind, now)
        if topic_bucket is not None:
            tiers.append(("topic", topic_bucket))

        for tier, bucket in tiers:
            if not bucket.peek(now):
                self.denials[tier] += 1
                return RateDecision(allowed=False, tier=tier)
        for _, bucket in tiers:
            bucket.try_acquire(now)
        return RateDecision(allowed=True)
