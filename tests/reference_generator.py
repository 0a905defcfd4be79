"""Reference oracle: the record-by-record trace stream generator.

This is what ``repro.trace.generator.iter_users`` was before it drew
straight into shard-store columns: one frozen ``NotificationRecord`` per
notification, built from ``random.Random`` draws, the list sorted by
timestamp per user.  The generator and the helpers it calls are moved
here verbatim so the column generator in ``src/`` has something to be
bit-identical *to* (``tests/test_generator_differential.py``).  It
validates nothing beyond what it always did -- it is only ever fed
inputs the production generator accepts.
"""

from __future__ import annotations

import math
import random

from repro.pubsub.topics import TopicKind
from repro.trace.generator import TraceConfig
from repro.trace.records import NotificationRecord


def poisson_sample(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (adequate for the small per-step rates here)."""
    if lam < 0:
        raise ValueError("rate must be >= 0")
    if lam == 0:
        return 0
    if lam > 30:
        # Normal approximation for large rates keeps the loop bounded.
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    threshold = math.exp(-lam)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def diurnal_factor(hour_of_day: float) -> float:
    """Listening-activity multiplier over the day.

    Low overnight, rising through the day, peaking in the evening --
    a stylized fit to music-streaming diurnal curves.
    """
    hour = hour_of_day % 24.0
    if hour < 7.0:
        return 0.15
    # Sine hump across 07:00-24:00 peaking around 19:00.
    return 0.2 + 1.0 * max(0.0, math.sin(math.pi * (hour - 7.0) / 17.0))


def _user_stream_seed(seed: int, user_id: int) -> int:
    """Stable per-user trace seed (same explicit mix as the runner's streams).

    Salt 101 keeps the trace stream decorrelated from the device (29) and
    fault (13) streams derived from the same experiment seed.
    """
    return (seed * 1_000_003 + user_id * 7_919 + 101) & 0x7FFFFFFF


def iter_users(
    n_users: int,
    config: TraceConfig | None = None,
    mean_rate_per_hour: float = 0.25,
    first_user_id: int = 0,
):
    """Lazily generate one user's labelled notification stream at a time.

    The full pipeline (:func:`build_workload`) routes every publication
    through the social graph and pub/sub broker, which inherently
    materializes the whole population's trace at once -- fine at hundreds
    of users, prohibitive at the 10k-1M cohorts the columnar core sweeps.
    This generator trades the cross-user fan-out for *per-user
    independent* seeded streams: each user's records derive from their
    own :func:`_user_stream_seed` lane, so user ``k``'s stream is
    identical whether you generate 10 users or a million, and peak memory
    is one user's records.

    Arrivals are Poisson per hour, diurnally modulated
    (:func:`diurnal_factor`) and scaled by a per-user activity level --
    heterogeneous rates, so queue lengths across the cohort are ragged.
    Labels (hovered / clicked / click time) follow the same marginal
    shape as the interaction simulator.  Notification ids are globally
    unique (``user_id * 1_000_000 + index``).

    Yields ``(user_id, records)`` with records timestamp-sorted.
    """
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    config = config or TraceConfig()
    hours = int(math.ceil(config.duration_hours))
    for user_id in range(first_user_id, first_user_id + n_users):
        rng = random.Random(_user_stream_seed(config.seed, user_id))
        activity = 0.2 + 1.6 * rng.random()
        records: list[NotificationRecord] = []
        for hour in range(hours):
            hour_start = hour * 3600.0
            lam = (
                activity
                * diurnal_factor(hour % 24)
                * config.listen_rate_scale
                * mean_rate_per_hour
            )
            for _ in range(poisson_sample(rng, lam)):
                timestamp = min(
                    hour_start + rng.uniform(0.0, 3600.0),
                    config.duration_hours * 3600.0,
                )
                draw = rng.random()
                if draw < 0.7:
                    kind = TopicKind.FRIEND
                elif draw < 0.9:
                    kind = TopicKind.ARTIST
                else:
                    kind = TopicKind.PLAYLIST
                hovered = rng.random() < 0.35
                clicked = hovered and rng.random() < 0.45
                records.append(
                    NotificationRecord(
                        notification_id=user_id * 1_000_000 + len(records),
                        recipient_id=user_id,
                        sender_id=rng.randrange(1_000_000),
                        kind=kind,
                        track_id=rng.randrange(50_000),
                        album_id=rng.randrange(10_000),
                        artist_id=rng.randrange(2_000),
                        track_popularity=rng.randrange(1, 101),
                        album_popularity=rng.randrange(1, 101),
                        artist_popularity=rng.randrange(1, 101),
                        tie_strength=rng.random(),
                        is_friend=kind is TopicKind.FRIEND,
                        favorite_genre=rng.random() < 0.4,
                        timestamp=timestamp,
                        hovered=hovered,
                        clicked=clicked,
                        click_time=(
                            timestamp + rng.uniform(30.0, 7200.0)
                            if clicked
                            else None
                        ),
                    )
                )
        records.sort(key=lambda record: record.timestamp)
        yield user_id, records
