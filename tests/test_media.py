"""Tests for video/image presentation generators and the ladder registry."""

import pytest

from repro.core.content import ContentKind
from repro.core.media import (
    ImagePresentationSpec,
    LadderRegistry,
    VideoPresentationSpec,
    build_image_ladder,
    build_video_ladder,
)
from repro.core.presentations import METADATA_SIZE_BYTES, build_audio_ladder


class TestVideoLadder:
    def test_default_ladder_valid(self):
        ladder = build_video_ladder()
        assert ladder.max_level >= 3
        assert ladder.size(1) == METADATA_SIZE_BYTES
        assert ladder.utility(ladder.max_level) == pytest.approx(1.0)

    def test_levels_capped(self):
        spec = VideoPresentationSpec(max_levels=3)
        ladder = build_video_ladder(spec)
        # level 0 + metadata + at most 3 media rungs
        assert ladder.max_level <= 4

    def test_single_level_keeps_richest(self):
        spec = VideoPresentationSpec(max_levels=1)
        ladder = build_video_ladder(spec)
        assert ladder.max_level == 2
        assert ladder.utility(2) == pytest.approx(1.0)

    def test_gradients_diminish(self):
        """Skyline output must be gradient-monotone for the greedy."""
        ladder = build_video_ladder()
        gradients = [
            (ladder.utility(level + 1) - ladder.utility(level))
            / (ladder.size(level + 1) - ladder.size(level))
            for level in range(2, ladder.max_level)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(gradients, gradients[1:]))

    def test_higher_resolution_larger_sizes(self):
        spec = VideoPresentationSpec(preview_durations=(10.0,), heights=(144, 720))
        variants = spec.variants()
        small = next(v for v in variants if v.height_px == 144)
        big = next(v for v in variants if v.height_px == 720)
        assert big.size_bytes() > small.size_bytes()
        assert spec.utility(big) > spec.utility(small)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoPresentationSpec(preview_durations=())
        with pytest.raises(ValueError):
            VideoPresentationSpec(heights=(999,))
        with pytest.raises(ValueError):
            VideoPresentationSpec(max_levels=0)


class TestImageLadder:
    def test_default_ladder_valid(self):
        ladder = build_image_ladder()
        assert ladder.max_level == 6  # 0 + metadata + 5 thumbnail sizes
        assert ladder.utility(6) == pytest.approx(1.0)

    def test_sizes_quadratic_in_edge(self):
        spec = ImagePresentationSpec(edge_px=(64, 128), bytes_per_pixel=0.25)
        assert spec.thumbnail_size_bytes(128) == 4 * spec.thumbnail_size_bytes(64)

    def test_diminishing_returns_per_byte(self):
        ladder = build_image_ladder()
        gradients = [
            (ladder.utility(level + 1) - ladder.utility(level))
            / (ladder.size(level + 1) - ladder.size(level))
            for level in range(2, ladder.max_level)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(gradients, gradients[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImagePresentationSpec(edge_px=())
        with pytest.raises(ValueError):
            ImagePresentationSpec(edge_px=(128, 64))
        with pytest.raises(ValueError):
            ImagePresentationSpec(bytes_per_pixel=0)


def audio_registry() -> LadderRegistry:
    """Audio ladders for every feed kind, registered by hand."""
    registry = LadderRegistry()
    for kind in ContentKind:
        registry.register(kind, build_audio_ladder)
    return registry


class TestRegistry:
    def test_registry_serves_every_registered_kind(self):
        registry = audio_registry()
        for kind in ContentKind:
            assert registry.ladder_for(kind).max_level == 6

    def test_registry_caches_builds(self):
        registry = audio_registry()
        assert registry.ladder_for(ContentKind.FRIEND_FEED) is registry.ladder_for(
            ContentKind.FRIEND_FEED
        )

    def test_reregister_invalidates_cache(self):
        registry = audio_registry()
        first = registry.ladder_for(ContentKind.ALBUM_RELEASE)
        registry.register(ContentKind.ALBUM_RELEASE, build_image_ladder)
        second = registry.ladder_for(ContentKind.ALBUM_RELEASE)
        assert second is not first
        assert "thumbnail" in second[2].description

    def test_unregistered_kind_raises(self):
        registry = LadderRegistry()
        with pytest.raises(KeyError):
            registry.ladder_for(ContentKind.FRIEND_FEED)
