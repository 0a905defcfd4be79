"""Tests for synthetic catalog generation."""

import pytest

from repro.trace.entities import (
    GENRES,
    Album,
    Artist,
    Catalog,
    CatalogConfig,
    Playlist,
    Track,
    User,
    generate_catalog,
)


class TestEntityValidation:
    def test_popularity_bounds(self):
        with pytest.raises(ValueError):
            Artist(1, "a", "pop", popularity=0)
        with pytest.raises(ValueError):
            Artist(1, "a", "pop", popularity=101)

    def test_track_duration_positive(self):
        with pytest.raises(ValueError):
            Track(1, 1, 1, "t", 50, duration_seconds=0)

    def test_album_needs_tracks(self):
        with pytest.raises(ValueError):
            Album(1, 1, "a", 50, track_count=0)

    def test_playlist_needs_tracks(self):
        with pytest.raises(ValueError):
            Playlist(1, 1, "p", [], "pop")

    def test_user_needs_genres_and_activity(self):
        with pytest.raises(ValueError):
            User(1, (), 1.0)
        with pytest.raises(ValueError):
            User(1, ("pop",), 0.0)


class TestCatalogIntegrity:
    def test_referential_integrity_enforced(self):
        artist = Artist(0, "a", "pop", 50)
        orphan_album = Album(0, 99, "al", 50, 1)
        with pytest.raises(ValueError):
            Catalog([], [artist], [orphan_album], [], [])


class TestGeneration:
    def test_counts_match_config(self):
        config = CatalogConfig(n_users=20, n_artists=10, n_playlists=5)
        catalog = generate_catalog(config)
        assert len(catalog.users) == 20
        assert len(catalog.artists) == 10
        assert len(catalog.playlists) == 5
        assert len(catalog.albums) >= 10  # at least one album per artist
        assert len(catalog.tracks) >= len(catalog.albums)

    def test_deterministic_under_seed(self):
        a = generate_catalog(CatalogConfig(seed=5))
        b = generate_catalog(CatalogConfig(seed=5))
        assert [t.popularity for t in a.tracks.values()] == [
            t.popularity for t in b.tracks.values()
        ]

    def test_popularity_is_heavy_tailed(self):
        """Rank-0 artist should vastly out-popular the median artist."""
        catalog = generate_catalog(CatalogConfig(n_artists=50))
        popularity = [a.popularity for a in catalog.artists.values()]
        assert popularity[0] == max(popularity)
        assert popularity[0] >= 3 * sorted(popularity)[len(popularity) // 2]

    def test_all_genres_from_vocabulary(self):
        catalog = generate_catalog(CatalogConfig())
        assert all(a.genre in GENRES for a in catalog.artists.values())

    def test_user_activity_positive_and_skewed(self):
        catalog = generate_catalog(CatalogConfig(n_users=100))
        activities = sorted(u.activity_level for u in catalog.users.values())
        assert activities[0] > 0
        # Pareto-ish: the top user is several times the median.
        assert activities[-1] > 3 * activities[50]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CatalogConfig(n_users=0)
        with pytest.raises(ValueError):
            CatalogConfig(zipf_exponent=0)
        with pytest.raises(ValueError):
            CatalogConfig(favorite_genres_per_user=0)
