"""Synthetic notification trace generation.

Replaces the de-identified Spotify production trace (Jan 1-7 2015) with a
generative pipeline that exercises the identical code path:

1. build a catalog (:mod:`repro.trace.entities`) and a social graph
   (:mod:`repro.trace.socialgraph`);
2. derive topic subscriptions -- every user follows their friends' feeds,
   a handful of artists (popularity- and genre-biased) and playlists;
3. generate publications: friend listens (Poisson per user, diurnally
   modulated), album releases and playlist updates;
4. publish them to the pub/sub broker (:mod:`repro.pubsub.broker`),
   which matches each to its topic's subscribers; one
   :meth:`~repro.pubsub.broker.Broker.flush` releases the per-recipient
   notifications;
5. label each notification with synthetic mouse activity from the latent
   interest model (:mod:`repro.trace.interactions`).

The result is a timestamp-sorted list of
:class:`repro.trace.records.NotificationRecord` -- the exact shape the
paper's evaluation replays per user.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.pubsub.broker import Broker
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, Topic, TopicKind
from repro.trace.entities import Catalog, CatalogConfig, generate_catalog
from repro.trace.interactions import InteractionSimulator
from repro.trace.interest import LatentInterestModel
from repro.trace.io import RecordsView
from repro.trace.records import NotificationRecord, check_record_columns
from repro.trace.socialgraph import (
    SocialGraph,
    SocialGraphConfig,
    generate_social_graph,
)


def poisson_sample(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (adequate for the small per-step rates here)."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {lam}")
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


@dataclass(frozen=True)
class TraceConfig:
    """Workload knobs for the synthetic trace."""

    duration_hours: float = 168.0  # one week, matching the paper's trace
    listen_rate_scale: float = 1.0
    album_release_rate_per_artist_per_hour: float = 0.004
    playlist_update_rate_per_playlist_per_hour: float = 0.01
    artist_follows_per_user: int = 5
    playlist_follows_per_user: int = 3
    favorite_pick_probability: float = 0.6  # chance a listen is in-genre
    seed: int = 23

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration_hours):
            raise ValueError(f"duration_hours must be finite, got {self.duration_hours}")
        if self.duration_hours <= 0:
            raise ValueError("duration must be positive")
        for name in (
            "listen_rate_scale",
            "album_release_rate_per_artist_per_hour",
            "playlist_update_rate_per_playlist_per_hour",
        ):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
        if not 0.0 <= self.favorite_pick_probability <= 1.0:
            raise ValueError("favorite pick probability must be in [0, 1]")


@dataclass
class Workload:
    """Everything an experiment needs: the world plus the labelled trace.

    ``catalog``/``graph``/``subscriptions`` are ``None`` for workloads
    rehydrated from a serialized trace (:meth:`from_records`): the trace
    records embed every feature the schedulers and classifier consume, so
    the world objects are only needed for *generating* new traces.
    """

    catalog: Catalog | None
    graph: SocialGraph | None
    subscriptions: SubscriptionStore | None
    records: list[NotificationRecord]
    config: TraceConfig

    @classmethod
    def from_records(
        cls,
        records: list[NotificationRecord],
        duration_hours: float | None = None,
    ) -> "Workload":
        """Wrap a loaded trace (e.g. from :func:`repro.trace.io.read_trace`).

        The horizon defaults to the last notification's timestamp rounded
        up to a whole hour.
        """
        if not records:
            raise ValueError("cannot build a workload from an empty trace")
        if duration_hours is None:
            last = max(r.timestamp for r in records)
            duration_hours = max(1.0, math.ceil(last / 3600.0))
        return cls(
            catalog=None,
            graph=None,
            subscriptions=None,
            records=sorted(records, key=lambda r: r.timestamp),
            config=TraceConfig(duration_hours=duration_hours),
        )

    def records_for_user(self, user_id: int) -> list[NotificationRecord]:
        return [r for r in self.records if r.recipient_id == user_id]

    def user_ids(self) -> list[int]:
        return sorted({r.recipient_id for r in self.records})

    def top_users(self, k: int) -> list[int]:
        """The k users with the most notifications (the paper's 'top 10k')."""
        if k < 0:
            raise ValueError(f"top_users needs k >= 0, got {k}")
        counts: dict[int, int] = {}
        for record in self.records:
            counts[record.recipient_id] = counts.get(record.recipient_id, 0) + 1
        return sorted(counts, key=lambda u: (-counts[u], u))[:k]


class TraceGenerator:
    """Builds a :class:`Workload` from catalog + graph + config."""

    def __init__(
        self,
        catalog: Catalog,
        graph: SocialGraph,
        config: TraceConfig | None = None,
        interest_model: LatentInterestModel | None = None,
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.config = config or TraceConfig()
        self._rng = random.Random(self.config.seed)
        self.interest_model = interest_model or LatentInterestModel(
            rng=random.Random(self.config.seed + 1)
        )
        self._tracks_by_genre: dict[str, list[int]] = {}
        for track in catalog.tracks.values():
            genre = catalog.artists[track.artist_id].genre
            self._tracks_by_genre.setdefault(genre, []).append(track.track_id)
        self._all_tracks = sorted(catalog.tracks)

    # -- subscriptions ---------------------------------------------------------

    def build_subscriptions(self) -> SubscriptionStore:
        """Friend feeds + artist follows + playlist follows."""
        store = SubscriptionStore()
        rng = self._rng
        artists = list(self.catalog.artists.values())
        artist_weights = [a.popularity for a in artists]
        playlist_ids = sorted(self.catalog.playlists)

        for user_id in sorted(self.catalog.users):
            user = self.catalog.users[user_id]
            # Follow every friend's activity feed.
            for friend in self.graph.friends(user_id):
                store.subscribe(user_id, Topic(TopicKind.FRIEND, friend))
            # Follow artists, biased to favourites by genre then popularity.
            in_genre = [a for a in artists if a.genre in user.favorite_genres]
            pool = in_genre if in_genre else artists
            pool_weights = [a.popularity for a in pool]
            follows = min(self.config.artist_follows_per_user, len(artists))
            chosen: set[int] = set()
            guard = 0
            while len(chosen) < follows and guard < 50 * follows:
                guard += 1
                if rng.random() < 0.8:
                    pick = rng.choices(pool, weights=pool_weights, k=1)[0]
                else:
                    pick = rng.choices(artists, weights=artist_weights, k=1)[0]
                chosen.add(pick.artist_id)
            for artist_id in chosen:
                store.subscribe(user_id, Topic(TopicKind.ARTIST, artist_id))
            # Follow a few playlists.
            follows = min(self.config.playlist_follows_per_user, len(playlist_ids))
            for playlist_id in rng.sample(playlist_ids, follows):
                store.subscribe(user_id, Topic(TopicKind.PLAYLIST, playlist_id))
        return store

    # -- publications ------------------------------------------------------------

    def _pick_track_for_user(self, user_id: int) -> int:
        """A listen: favourite-genre-biased, popularity-weighted track pick."""
        rng = self._rng
        user = self.catalog.users[user_id]
        if rng.random() < self.config.favorite_pick_probability:
            genre = rng.choice(user.favorite_genres)
            candidates = self._tracks_by_genre.get(genre)
            if candidates:
                weights = [self.catalog.tracks[t].popularity for t in candidates]
                return rng.choices(candidates, weights=weights, k=1)[0]
        weights = [self.catalog.tracks[t].popularity for t in self._all_tracks]
        return rng.choices(self._all_tracks, weights=weights, k=1)[0]

    def _payload_for_track(self, track_id: int) -> dict:
        track = self.catalog.tracks[track_id]
        album = self.catalog.albums[track.album_id]
        artist = self.catalog.artists[track.artist_id]
        return {
            "track_id": track.track_id,
            "album_id": album.album_id,
            "artist_id": artist.artist_id,
            "track_popularity": track.popularity,
            "album_popularity": album.popularity,
            "artist_popularity": artist.popularity,
        }

    def generate_publications(self) -> list[Publication]:
        """All publications over the horizon, time-sorted."""
        rng = self._rng
        config = self.config
        publications: list[Publication] = []
        hours = int(math.ceil(config.duration_hours))

        for hour in range(hours):
            hour_start = hour * 3600.0
            factor = diurnal_factor(hour % 24)
            # Friend listens.
            for user_id, user in self.catalog.users.items():
                lam = user.activity_level * factor * config.listen_rate_scale
                for _ in range(poisson_sample(rng, lam)):
                    track_id = self._pick_track_for_user(user_id)
                    publications.append(
                        Publication(
                            topic=Topic(TopicKind.FRIEND, user_id),
                            publisher_id=user_id,
                            timestamp=hour_start + rng.uniform(0.0, 3600.0),
                            payload=self._payload_for_track(track_id),
                        )
                    )
            # Album releases.
            for artist_id in self.catalog.artists:
                lam = config.album_release_rate_per_artist_per_hour
                for _ in range(poisson_sample(rng, lam)):
                    albums = [
                        a
                        for a in self.catalog.albums.values()
                        if a.artist_id == artist_id
                    ]
                    album = rng.choice(albums)
                    tracks = [
                        t
                        for t in self.catalog.tracks.values()
                        if t.album_id == album.album_id
                    ]
                    publications.append(
                        Publication(
                            topic=Topic(TopicKind.ARTIST, artist_id),
                            publisher_id=artist_id,
                            timestamp=hour_start + rng.uniform(0.0, 3600.0),
                            payload=self._payload_for_track(
                                rng.choice(tracks).track_id
                            ),
                        )
                    )
            # Playlist updates.
            for playlist_id, playlist in self.catalog.playlists.items():
                lam = config.playlist_update_rate_per_playlist_per_hour
                for _ in range(poisson_sample(rng, lam)):
                    track_id = rng.choice(playlist.track_ids)
                    publications.append(
                        Publication(
                            topic=Topic(TopicKind.PLAYLIST, playlist_id),
                            publisher_id=playlist.owner_user_id,
                            timestamp=hour_start + rng.uniform(0.0, 3600.0),
                            payload=self._payload_for_track(track_id),
                        )
                    )
        publications.sort(key=lambda p: p.timestamp)
        return publications

    # -- end-to-end -----------------------------------------------------------------

    def generate(self) -> Workload:
        """Run the full pipeline: subscriptions -> fan-out -> labelling."""
        subscriptions = self.build_subscriptions()
        broker = Broker(subscriptions)
        for publication in self.generate_publications():
            broker.publish(publication)

        simulator = InteractionSimulator(
            catalog=self.catalog,
            graph=self.graph,
            interest_model=self.interest_model,
        )
        records = [simulator.label(notification) for notification in broker.flush()]
        records.sort(key=lambda r: r.timestamp)
        return Workload(
            catalog=self.catalog,
            graph=self.graph,
            subscriptions=subscriptions,
            records=records,
            config=self.config,
        )


def _user_stream_seed(seed: int, user_id: int) -> int:
    """Stable per-user trace seed (same explicit mix as the runner's streams).

    Salt 101 keeps the trace stream decorrelated from the device (29) and
    fault (13) streams derived from the same experiment seed.
    """
    return (seed * 1_000_003 + user_id * 7_919 + 101) & 0x7FFFFFFF


#: :func:`diurnal_factor` of each whole hour of the day (a function of
#: ``hour % 24`` alone).
_DIURNAL = tuple(diurnal_factor(hour) for hour in range(24))

#: Kind codes as :class:`~repro.trace.io.RecordsView` decodes them.
_KINDS = list(TopicKind)
_FRIEND = _KINDS.index(TopicKind.FRIEND)
_ARTIST = _KINDS.index(TopicKind.ARTIST)
_PLAYLIST = _KINDS.index(TopicKind.PLAYLIST)

#: ``(n, n.bit_length())`` of each ``randrange(n)`` a row draws: sender,
#: track, album, artist, then the three popularities (``1 + randrange(100)``).
_RANGES = tuple(
    (n, n.bit_length()) for n in (1_000_000, 50_000, 10_000, 2_000, 100, 100, 100)
)


def iter_users(
    n_users: int,
    config: TraceConfig | None = None,
    mean_rate_per_hour: float = 0.25,
    first_user_id: int = 0,
) -> Iterator[tuple[int, RecordsView]]:
    """Lazily generate one user's labelled notification stream at a time.

    The full pipeline (:func:`build_workload`) routes every publication
    through the social graph and pub/sub broker, which inherently
    materializes the whole population's trace at once -- fine at hundreds
    of users, prohibitive at the 10k-1M cohorts the columnar core sweeps.
    This generator trades the cross-user fan-out for *per-user
    independent* seeded streams: each user's records derive from their
    own :func:`_user_stream_seed` lane, so user ``k``'s stream is
    identical whether you generate 10 users or a million, and peak memory
    is one user's columns.

    Arrivals are Poisson per hour, diurnally modulated
    (:func:`diurnal_factor`) and scaled by a per-user activity level --
    heterogeneous rates, so queue lengths across the cohort are ragged.
    Labels (hovered / clicked / click time) follow the same marginal
    shape as the interaction simulator.  Notification ids are globally
    unique (``user_id * 1_000_000 + index``).

    Yields ``(user_id, records)`` with records timestamp-sorted (ties in
    draw order).  ``records`` is a :class:`~repro.trace.io.RecordsView`
    over freshly drawn :data:`~repro.trace.io.SHARD_COLUMNS` arrays -- the
    type :meth:`TraceShardStore.records_at` returns -- so
    :class:`~repro.trace.io.ShardStoreWriter` writes it without building
    a record.  Bad arguments raise ``ValueError`` at the call.
    """
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    if not (math.isfinite(mean_rate_per_hour) and mean_rate_per_hour >= 0):
        raise ValueError(
            f"mean_rate_per_hour must be finite and >= 0, got {mean_rate_per_hour}"
        )
    config = config or TraceConfig()
    return (
        (user_id, _user_records(user_id, config, mean_rate_per_hour))
        for user_id in range(first_user_id, first_user_id + n_users)
    )


def _user_records(
    user_id: int, config: TraceConfig, mean_rate_per_hour: float
) -> RecordsView:
    """One user's stream, drawn straight into shard-store columns.

    Makes the draws of a record-at-a-time generator in its order, with
    CPython's own arithmetic: ``randrange(n)`` is ``_randbelow``'s
    rejection loop on ``getrandbits(n.bit_length())``, ``randrange(1,
    101)`` is ``1 + randrange(100)``, ``uniform(a, b)`` is ``a + (b -
    a) * random()``, and an hour's count is :func:`poisson_sample`'s
    Knuth loop (its own call for a rate of 0 or above 30).  A stable
    argsort orders the rows by timestamp (the horizon clamp of a
    non-integer ``duration_hours`` makes ties), and
    :func:`check_record_columns` holds them to the record invariants.
    """
    rng = random.Random(_user_stream_seed(config.seed, user_id))
    random_, getrandbits = rng.random, rng.getrandbits
    activity = 0.2 + 1.6 * random_()
    lams = [
        activity * factor * config.listen_rate_scale * mean_rate_per_hour
        for factor in _DIURNAL
    ]
    thresholds = [math.exp(-lam) for lam in lams]
    horizon = config.duration_hours * 3600.0
    # Per row: 7 ids / popularities, 3 floats, 4 one-byte codes.
    ints: list[int] = []
    floats: list[float] = []
    codes: list[int] = []
    for hour in range(int(math.ceil(config.duration_hours))):
        hour_start = hour * 3600.0
        lam = lams[hour % 24]
        if 0.0 < lam <= 30.0:
            count, product, threshold = 0, random_(), thresholds[hour % 24]
            while product > threshold:
                count += 1
                product *= random_()
        else:
            count = poisson_sample(rng, lam)
        for _ in range(count):
            timestamp = hour_start + 3600.0 * random_()
            if timestamp > horizon:
                timestamp = horizon
            draw = random_()
            kind = _FRIEND if draw < 0.7 else _ARTIST if draw < 0.9 else _PLAYLIST
            hovered = random_() < 0.35
            clicked = hovered and random_() < 0.45
            for n, bits in _RANGES:
                value = getrandbits(bits)
                while value >= n:
                    value = getrandbits(bits)
                ints.append(value)
            tie_strength = random_()
            codes += (kind, hovered, clicked, random_() < 0.4)
            floats += (
                timestamp,
                tie_strength,
                timestamp + (30.0 + 7170.0 * random_()) if clicked else math.nan,
            )
    order = np.argsort(floats[::3], kind="stable")
    reals = _sorted_columns(floats, np.float64, 3, order)
    ids = _sorted_columns(ints, np.int64, 7, order)
    flags = _sorted_columns(codes, np.uint8, 4, order)
    kind = flags[0].astype(np.int8)
    columns = {
        "notification_id": user_id * 1_000_000 + order.astype(np.int64),
        "sender_id": ids[0],
        "kind": kind,
        "track_id": ids[1],
        "album_id": ids[2],
        "artist_id": ids[3],
        "track_popularity": 1 + ids[4].astype(np.int32),
        "album_popularity": 1 + ids[5].astype(np.int32),
        "artist_popularity": 1 + ids[6].astype(np.int32),
        "tie_strength": reals[1],
        "is_friend": (kind == _FRIEND).view(np.uint8),
        "favorite_genre": flags[3],
        "timestamp": reals[0],
        "hovered": flags[1],
        "clicked": flags[2],
        "click_time": reals[2],
    }
    check_record_columns(user_id, columns)
    return RecordsView(user_id, columns, _KINDS)


def _sorted_columns(values: list, dtype, width: int, order: np.ndarray) -> np.ndarray:
    """Row-major draws, ``width`` per row, as contiguous columns in ``order``."""
    return np.array(values, dtype=dtype).reshape(-1, width)[order].T.copy()


@dataclass(frozen=True)
class WorkloadSpec:
    """One-stop configuration for :func:`build_workload`."""

    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    graph: SocialGraphConfig = field(default_factory=SocialGraphConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)

    def __post_init__(self) -> None:
        if self.catalog.n_users != self.graph.n_users:
            raise ValueError(
                "catalog and graph must agree on the user count "
                f"({self.catalog.n_users} != {self.graph.n_users})"
            )


def build_workload(spec: WorkloadSpec | None = None) -> Workload:
    """Generate a complete labelled workload from a spec (or defaults)."""
    spec = spec or WorkloadSpec()
    catalog = generate_catalog(spec.catalog)
    graph = generate_social_graph(spec.graph)
    return TraceGenerator(catalog, graph, spec.trace).generate()
