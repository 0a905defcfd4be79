"""Tests for the synthetic trace generator."""

import pytest

from repro.pubsub.topics import Topic, TopicKind
from repro.trace.entities import CatalogConfig, generate_catalog
from repro.trace.generator import (
    TraceConfig,
    TraceGenerator,
    WorkloadSpec,
    build_workload,
    diurnal_factor,
    iter_users,
    poisson_sample,
)
from repro.trace.socialgraph import SocialGraphConfig, generate_social_graph

import random


def small_spec(**trace_overrides):
    trace = TraceConfig(duration_hours=24.0, seed=5, **trace_overrides)
    return WorkloadSpec(
        catalog=CatalogConfig(n_users=25, n_artists=15, n_playlists=8, seed=1),
        graph=SocialGraphConfig(n_users=25, seed=2),
        trace=trace,
    )


class TestPoissonSample:
    def test_zero_rate(self):
        assert poisson_sample(random.Random(0), 0.0) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_sample(random.Random(0), -1.0)

    def test_mean_tracks_lambda(self):
        rng = random.Random(1)
        for lam in (0.5, 3.0, 50.0):
            draws = [poisson_sample(rng, lam) for _ in range(4000)]
            assert sum(draws) / len(draws) == pytest.approx(lam, rel=0.1)


class TestDiurnalFactor:
    def test_night_is_quiet(self):
        assert diurnal_factor(3.0) < diurnal_factor(15.0)

    def test_evening_peak(self):
        assert diurnal_factor(19.0) > diurnal_factor(9.0)

    def test_wraps_around(self):
        assert diurnal_factor(25.0) == diurnal_factor(1.0)


class TestSubscriptions:
    def test_users_follow_their_friends(self):
        spec = small_spec()
        catalog = generate_catalog(spec.catalog)
        graph = generate_social_graph(spec.graph)
        generator = TraceGenerator(catalog, graph, spec.trace)
        store = generator.build_subscriptions()
        for user_id in list(catalog.users)[:10]:
            followed = {
                other for other in catalog.users
                if user_id in store.subscribers(Topic(TopicKind.FRIEND, other))
            }
            assert followed == graph.friends(user_id)

    def test_artist_follow_counts(self):
        spec = small_spec(artist_follows_per_user=4)
        catalog = generate_catalog(spec.catalog)
        graph = generate_social_graph(spec.graph)
        store = TraceGenerator(catalog, graph, spec.trace).build_subscriptions()
        for user_id in list(catalog.users)[:10]:
            followed = [
                artist_id for artist_id in catalog.artists
                if user_id in store.subscribers(Topic(TopicKind.ARTIST, artist_id))
            ]
            assert len(followed) == 4


class TestWorkload:
    def test_records_sorted_and_labelled(self):
        workload = build_workload(small_spec())
        assert workload.records
        timestamps = [r.timestamp for r in workload.records]
        assert timestamps == sorted(timestamps)
        assert any(r.clicked for r in workload.records)
        assert any(r.hovered and not r.clicked for r in workload.records)
        assert any(not r.hovered for r in workload.records)

    def test_friend_records_dominate(self):
        """Friend feeds are 'frequent and large in number' (Section II)."""
        workload = build_workload(small_spec())
        kinds = [r.kind for r in workload.records]
        assert kinds.count(TopicKind.FRIEND) > len(kinds) / 2

    def test_deterministic_under_seed(self):
        a = build_workload(small_spec())
        b = build_workload(small_spec())
        assert len(a.records) == len(b.records)
        assert all(
            (x.notification_id, x.clicked, x.timestamp)
            == (y.notification_id, y.clicked, y.timestamp)
            for x, y in zip(a.records, b.records)
        )

    def test_recipient_never_sender(self):
        workload = build_workload(small_spec())
        for record in workload.records:
            if record.kind is TopicKind.FRIEND:
                assert record.recipient_id != record.sender_id

    def test_tie_strength_only_for_friend_records(self):
        workload = build_workload(small_spec())
        for record in workload.records:
            if record.kind is not TopicKind.FRIEND:
                assert record.tie_strength == 0.0
                assert not record.is_friend

    def test_records_for_user_and_top_users(self):
        workload = build_workload(small_spec())
        top = workload.top_users(5)
        assert len(top) == 5
        counts = [len(workload.records_for_user(u)) for u in top]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == max(
            len(workload.records_for_user(u)) for u in workload.user_ids()
        )

    def test_rate_scale_scales_volume(self):
        light = build_workload(small_spec(listen_rate_scale=0.2))
        heavy = build_workload(small_spec(listen_rate_scale=1.0))
        assert len(heavy.records) > 2 * len(light.records)

    def test_spec_user_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                catalog=CatalogConfig(n_users=10),
                graph=SocialGraphConfig(n_users=20),
            )

    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(duration_hours=0)
        with pytest.raises(ValueError):
            TraceConfig(favorite_pick_probability=1.5)
        # Hostile rates: each used to pass, and then gave a trace with no
        # records (NaN) or an OverflowError deep in the sampler (inf).
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="rate must be finite"):
            poisson_sample(random.Random(0), nan)
        for field, rate in (
            ("listen_rate_scale", nan),
            ("listen_rate_scale", inf),
            ("album_release_rate_per_artist_per_hour", -0.5),
            ("playlist_update_rate_per_playlist_per_hour", nan),
        ):
            with pytest.raises(ValueError, match=field):
                TraceConfig(**{field: rate})
        for rate in (nan, inf, -1.0):
            with pytest.raises(ValueError, match="mean_rate_per_hour"):
                list(iter_users(2, mean_rate_per_hour=rate))

    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_trace_duration_must_be_finite(self, hours):
        """NaN passes a positivity check and gives a trace with no round;
        inf gives a round clock that never stops."""
        with pytest.raises(ValueError, match="duration_hours must be finite"):
            TraceConfig(duration_hours=hours)
