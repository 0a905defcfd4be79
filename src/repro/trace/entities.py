"""Synthetic music catalog: artists, albums, tracks, playlists, users.

The Spotify traces behind the paper are proprietary; this module builds the
catalog their notifications referred to.  Design targets that matter for
the algorithms downstream:

* **popularity** is a 1-100 score "based on their streaming frequencies in
  Spotify" (Section V-A) -- we draw artist popularity from a Zipf-like
  heavy-tailed distribution and let album/track popularity regress to the
  artist's with noise, matching the strong hierarchy of real catalogs;
* **genres** give users a preference structure the latent interest model
  and the classifier features can both see;
* **users** carry an activity level (how much they listen, hence how many
  friend-feed publications they generate) drawn heavy-tailed, because the
  evaluation focuses on "top 10k users with maximum number of delivered
  notifications".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GENRES = (
    "pop",
    "rock",
    "hiphop",
    "electronic",
    "jazz",
    "classical",
    "metal",
    "country",
    "latin",
    "rnb",
)


@dataclass(frozen=True)
class Artist:
    artist_id: int
    name: str
    genre: str
    popularity: int  # 1-100

    def __post_init__(self) -> None:
        if not 1 <= self.popularity <= 100:
            raise ValueError(f"popularity must be 1-100, got {self.popularity}")


@dataclass(frozen=True)
class Album:
    album_id: int
    artist_id: int
    name: str
    popularity: int
    track_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.popularity <= 100:
            raise ValueError(f"popularity must be 1-100, got {self.popularity}")
        if self.track_count < 1:
            raise ValueError("album needs at least one track")


@dataclass(frozen=True)
class Track:
    track_id: int
    album_id: int
    artist_id: int
    name: str
    popularity: int
    duration_seconds: float

    def __post_init__(self) -> None:
        if not 1 <= self.popularity <= 100:
            raise ValueError(f"popularity must be 1-100, got {self.popularity}")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")


@dataclass
class Playlist:
    playlist_id: int
    owner_user_id: int
    name: str
    track_ids: list[int]
    genre: str

    def __post_init__(self) -> None:
        if not self.track_ids:
            raise ValueError("playlist needs at least one track")


@dataclass(frozen=True)
class User:
    user_id: int
    favorite_genres: tuple[str, ...]
    activity_level: float  # mean listens per hour while active

    def __post_init__(self) -> None:
        if not self.favorite_genres:
            raise ValueError("user needs at least one favorite genre")
        if self.activity_level <= 0:
            raise ValueError("activity level must be positive")


@dataclass(frozen=True)
class CatalogConfig:
    """Sizing and distribution knobs for catalog synthesis."""

    n_users: int = 200
    n_artists: int = 100
    albums_per_artist_mean: float = 3.0
    tracks_per_album_mean: float = 10.0
    n_playlists: int = 50
    playlist_length_mean: float = 25.0
    zipf_exponent: float = 1.2  # popularity skew across artists
    favorite_genres_per_user: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.n_users, self.n_artists, self.n_playlists) < 1:
            raise ValueError("counts must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf exponent must be positive")
        if not 1 <= self.favorite_genres_per_user <= len(GENRES):
            raise ValueError("favorite genre count out of range")


class Catalog:
    """The full synthetic catalog with id-indexed lookups."""

    def __init__(
        self,
        users: list[User],
        artists: list[Artist],
        albums: list[Album],
        tracks: list[Track],
        playlists: list[Playlist],
    ) -> None:
        self.users = {u.user_id: u for u in users}
        self.artists = {a.artist_id: a for a in artists}
        self.albums = {a.album_id: a for a in albums}
        self.tracks = {t.track_id: t for t in tracks}
        self.playlists = {p.playlist_id: p for p in playlists}
        for album in albums:
            if album.artist_id not in self.artists:
                raise ValueError(f"album {album.album_id} has unknown artist")
        for track in tracks:
            if track.album_id not in self.albums:
                raise ValueError(f"track {track.track_id} has unknown album")
        for playlist in playlists:
            for track_id in playlist.track_ids:
                if track_id not in self.tracks:
                    raise ValueError(
                        f"playlist {playlist.playlist_id} has unknown track"
                    )


def _zipf_popularity(rank: int, n: int, exponent: float) -> int:
    """Map a rank (0 = most popular) to a 1-100 popularity score."""
    # Normalized Zipf mass relative to rank 1, scaled into [1, 100].
    weight = (1.0 / (rank + 1)) ** exponent
    top = 1.0
    score = 1 + round(99 * (weight / top))
    return max(1, min(100, score))


def generate_catalog(config: CatalogConfig | None = None) -> Catalog:
    """Synthesize a catalog per ``config`` (deterministic under its seed)."""
    config = config or CatalogConfig()
    rng = random.Random(config.seed)

    artists: list[Artist] = []
    for artist_id in range(config.n_artists):
        artists.append(
            Artist(
                artist_id=artist_id,
                name=f"artist-{artist_id}",
                genre=rng.choice(GENRES),
                popularity=_zipf_popularity(
                    artist_id, config.n_artists, config.zipf_exponent
                ),
            )
        )

    albums: list[Album] = []
    tracks: list[Track] = []
    album_id = 0
    track_id = 0
    for artist in artists:
        n_albums = max(1, round(rng.expovariate(1.0 / config.albums_per_artist_mean)))
        for _ in range(n_albums):
            n_tracks = max(
                1, round(rng.expovariate(1.0 / config.tracks_per_album_mean))
            )
            album_pop = _regressed_popularity(artist.popularity, rng)
            albums.append(
                Album(
                    album_id=album_id,
                    artist_id=artist.artist_id,
                    name=f"album-{album_id}",
                    popularity=album_pop,
                    track_count=n_tracks,
                )
            )
            for _ in range(n_tracks):
                tracks.append(
                    Track(
                        track_id=track_id,
                        album_id=album_id,
                        artist_id=artist.artist_id,
                        name=f"track-{track_id}",
                        popularity=_regressed_popularity(album_pop, rng),
                        duration_seconds=rng.uniform(120.0, 420.0),
                    )
                )
                track_id += 1
            album_id += 1

    users: list[User] = []
    for user_id in range(config.n_users):
        favorites = tuple(rng.sample(GENRES, config.favorite_genres_per_user))
        # Heavy-tailed activity: most users listen a little, a few a lot.
        activity = max(0.05, rng.paretovariate(1.5) * 0.2)
        users.append(
            User(
                user_id=user_id,
                favorite_genres=favorites,
                activity_level=activity,
            )
        )

    all_track_ids = [t.track_id for t in tracks]
    playlists: list[Playlist] = []
    for playlist_id in range(config.n_playlists):
        length = max(
            1,
            min(
                len(all_track_ids),
                round(rng.expovariate(1.0 / config.playlist_length_mean)),
            ),
        )
        playlists.append(
            Playlist(
                playlist_id=playlist_id,
                owner_user_id=rng.randrange(config.n_users),
                name=f"playlist-{playlist_id}",
                track_ids=rng.sample(all_track_ids, length),
                genre=rng.choice(GENRES),
            )
        )

    return Catalog(users, artists, albums, tracks, playlists)


def _regressed_popularity(parent_popularity: int, rng: random.Random) -> int:
    """Child popularity: regress to the parent's with +-15 noise."""
    return max(1, min(100, parent_popularity + rng.randint(-15, 15)))
