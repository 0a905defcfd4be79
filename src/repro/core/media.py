"""Presentation generators for non-audio media: video and images.

The paper's framework is media-agnostic: "the pushed notifications may
include any of a multitude of media presentations that can be scaled in a
variety of well-known ways -- thumbnails of album cover images, previews of
video or audio streams ... Scalable encoding can be employed to degrade the
quality of media content" (Section I), and "video samples can also be
presented in combinations of duration and quality" (Section III-A).  The
evaluation only exercises audio; this module provides the video and image
generators a deployment would add, plus a registry mapping content kinds to
generators (the per-content-type "generator" of Section III-B).

Both generators follow the same recipe as the audio one:

1. enumerate candidate (attribute...) combinations with their sizes;
2. score each with a utility surface exhibiting monotonicity and
   diminishing returns;
3. prune dominated candidates with the skyline (Fig. 2a's rule);
4. emit a :class:`repro.core.content.PresentationLadder` topped by the
   richest surviving candidate, normalized to utility 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.content import ContentKind, Presentation, PresentationLadder
from repro.core.presentations import (
    METADATA_SIZE_BYTES,
    METADATA_UTILITY_FRACTION,
)
from repro.survey.pareto import CandidatePresentation, pareto_frontier


@dataclass(frozen=True)
class VideoVariant:
    """One (duration, vertical resolution) video preview candidate."""

    duration_s: float
    height_px: int
    bitrate_bps: int

    def size_bytes(self) -> int:
        return int(round(self.duration_s * self.bitrate_bps / 8.0))


#: Typical ABR ladder bitrates per vertical resolution (H.264-era).
VIDEO_BITRATE_BY_HEIGHT = {
    144: 200_000,
    240: 400_000,
    360: 750_000,
    480: 1_200_000,
    720: 2_500_000,
}

#: Perceived-quality multiplier per resolution (saturating).
VIDEO_QUALITY_BY_HEIGHT = {144: 0.45, 240: 0.65, 360: 0.82, 480: 0.93, 720: 1.0}


@dataclass(frozen=True)
class VideoPresentationSpec:
    """Configuration of the video preview ladder.

    Utility surface: ``quality(height) x log-duration``, the video analogue
    of the audio survey's finding that duration dominates with diminishing
    returns, modulated by a saturating fidelity factor.
    """

    preview_durations: Sequence[float] = (3.0, 6.0, 10.0, 15.0)
    heights: Sequence[int] = (144, 240, 360, 480)
    metadata_size_bytes: int = METADATA_SIZE_BYTES
    metadata_utility_fraction: float = METADATA_UTILITY_FRACTION
    max_levels: int = 6

    def __post_init__(self) -> None:
        if not self.preview_durations or not self.heights:
            raise ValueError("need at least one duration and one height")
        if any(d <= 0 for d in self.preview_durations):
            raise ValueError("durations must be positive")
        unknown = set(self.heights) - set(VIDEO_BITRATE_BY_HEIGHT)
        if unknown:
            raise ValueError(f"unknown resolutions: {sorted(unknown)}")
        if self.max_levels < 1:
            raise ValueError("need at least one media level")

    def variants(self) -> list[VideoVariant]:
        return [
            VideoVariant(
                duration_s=duration,
                height_px=height,
                bitrate_bps=VIDEO_BITRATE_BY_HEIGHT[height],
            )
            for duration in self.preview_durations
            for height in self.heights
        ]

    def utility(self, variant: VideoVariant) -> float:
        top = math.log1p(max(self.preview_durations))
        return VIDEO_QUALITY_BY_HEIGHT[variant.height_px] * (
            math.log1p(variant.duration_s) / top
        )


def _ladder_from_candidates(
    candidates: list[CandidatePresentation],
    metadata_size_bytes: int,
    metadata_utility_fraction: float,
    max_levels: int,
    describe: Callable[[tuple], str],
) -> PresentationLadder:
    """Skyline-prune candidates and assemble a normalized ladder.

    After the skyline pass a *concave hull* pass removes LP-dominated
    candidates (those under the chord of their neighbours), so the emitted
    ladder has decreasing utility-size gradients -- the property the greedy
    MCKP selector's optimality argument relies on.
    """
    frontier = pareto_frontier(candidates)
    if not frontier:
        raise ValueError("no candidate presentations survive pruning")
    # Concave-hull pass anchored at the origin (size 0, utility 0).
    hull: list[CandidatePresentation] = []
    for candidate in frontier:
        while hull:
            prev_size = hull[-2].size_bytes if len(hull) >= 2 else 0
            prev_utility = hull[-2].utility if len(hull) >= 2 else 0.0
            gradient_prev = (hull[-1].utility - prev_utility) / (
                hull[-1].size_bytes - prev_size
            )
            gradient_new = (candidate.utility - prev_utility) / (
                candidate.size_bytes - prev_size
            )
            if gradient_new >= gradient_prev:
                hull.pop()
            else:
                break
        hull.append(candidate)
    frontier = hull
    # Thin the frontier to at most max_levels rungs, keeping the extremes
    # (cheapest and richest) and spreading the rest by size.
    if len(frontier) > max_levels:
        if max_levels == 1:
            frontier = [frontier[-1]]  # keep only the richest rung
        else:
            indices = {0, len(frontier) - 1}
            step = (len(frontier) - 1) / (max_levels - 1)
            for i in range(1, max_levels - 1):
                indices.add(round(i * step))
            frontier = [frontier[i] for i in sorted(indices)]
    top_utility = frontier[-1].utility
    meta = metadata_utility_fraction
    presentations = [
        Presentation(0, 0, 0.0, "not sent"),
        Presentation(1, metadata_size_bytes, meta, "metadata only"),
    ]
    for offset, candidate in enumerate(frontier):
        presentations.append(
            Presentation(
                level=2 + offset,
                size_bytes=metadata_size_bytes + candidate.size_bytes,
                utility=meta + (1.0 - meta) * (candidate.utility / top_utility),
                description=describe(candidate.attributes),
            )
        )
    return PresentationLadder(presentations)


def build_video_ladder(spec: VideoPresentationSpec | None = None) -> PresentationLadder:
    """Skyline-pruned video preview ladder (duration x resolution)."""
    spec = spec or VideoPresentationSpec()
    candidates = [
        CandidatePresentation(
            size_bytes=variant.size_bytes(),
            utility=spec.utility(variant),
            attributes=(variant.duration_s, variant.height_px),
        )
        for variant in spec.variants()
    ]
    return _ladder_from_candidates(
        candidates,
        spec.metadata_size_bytes,
        spec.metadata_utility_fraction,
        spec.max_levels,
        lambda attrs: f"video {attrs[0]:g}s@{attrs[1]}p",
    )


@dataclass(frozen=True)
class ImagePresentationSpec:
    """Thumbnail ladder for image content (album covers, photos).

    Candidates are square thumbnails; size grows quadratically with edge
    length (JPEG ~ ``bytes_per_pixel`` after compression) while perceived
    utility grows sub-linearly (log of pixel count), so the ladder has the
    diminishing-returns shape Section III-A requires.
    """

    edge_px: Sequence[int] = (64, 128, 256, 512, 1024)
    bytes_per_pixel: float = 0.35
    metadata_size_bytes: int = METADATA_SIZE_BYTES
    metadata_utility_fraction: float = METADATA_UTILITY_FRACTION

    def __post_init__(self) -> None:
        if not self.edge_px:
            raise ValueError("need at least one thumbnail size")
        if list(self.edge_px) != sorted(set(self.edge_px)):
            raise ValueError("edges must be strictly increasing")
        if any(e <= 0 for e in self.edge_px):
            raise ValueError("edges must be positive")
        if self.bytes_per_pixel <= 0:
            raise ValueError("bytes per pixel must be positive")

    def thumbnail_size_bytes(self, edge: int) -> int:
        return int(round(edge * edge * self.bytes_per_pixel))

    def utility(self, edge: int) -> float:
        top = math.log1p(max(self.edge_px) ** 2)
        return math.log1p(edge**2) / top


def build_image_ladder(spec: ImagePresentationSpec | None = None) -> PresentationLadder:
    """Thumbnail ladder: metadata + square previews of growing edge."""
    spec = spec or ImagePresentationSpec()
    candidates = [
        CandidatePresentation(
            size_bytes=spec.thumbnail_size_bytes(edge),
            utility=spec.utility(edge),
            attributes=(edge,),
        )
        for edge in spec.edge_px
    ]
    return _ladder_from_candidates(
        candidates,
        spec.metadata_size_bytes,
        spec.metadata_utility_fraction,
        max_levels=len(spec.edge_px),
        describe=lambda attrs: f"thumbnail {attrs[0]}x{attrs[0]}",
    )


class LadderRegistry:
    """Maps content kinds to presentation generators (Section III-B).

    "Different generators may exist for different content types, which are
    developed by the content providers."  The broker consults the registry
    at ingest time to attach the right ladder to each item.
    """

    def __init__(self) -> None:
        self._builders: dict[ContentKind, Callable[[], PresentationLadder]] = {}
        self._cache: dict[ContentKind, PresentationLadder] = {}

    def register(
        self, kind: ContentKind, builder: Callable[[], PresentationLadder]
    ) -> None:
        self._builders[kind] = builder
        self._cache.pop(kind, None)

    def ladder_for(self, kind: ContentKind) -> PresentationLadder:
        if kind not in self._builders:
            raise KeyError(f"no presentation generator registered for {kind}")
        if kind not in self._cache:
            self._cache[kind] = self._builders[kind]()
        return self._cache[kind]

