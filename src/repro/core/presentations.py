"""Generators that build presentation ladders for media content.

Section III-B assumes a per-content-type "generator" exists that produces
presentations at different levels of detail.  This module implements the
audio generator used in the paper's evaluation (Section V-C):

* six levels: metadata-only plus previews of 5, 10, 20, 30 and 40 seconds;
* fixed bitrate of 160 kbps (Spotify default), so a *d*-second preview is
  ``d x 20`` KB (160 kbps = 20 KB/s, uncompressed as assumed in the paper);
* average metadata size of 200 bytes;
* presentation utility: ~1% of the utility comes from metadata and the rest
  follows the survey-fitted logarithmic duration curve (Eq. 8), normalized
  so the richest level has utility 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.content import Presentation, PresentationLadder

#: Spotify default audio bitrate used in the evaluation (bits per second).
DEFAULT_BITRATE_BPS = 160_000

#: Bytes of audio per second of preview at the default bitrate (20 KB/s).
BYTES_PER_SECOND = DEFAULT_BITRATE_BPS // 8

#: Average notification metadata size (track/artist/album names + URL),
#: per the paper's Section V-C, sourced from [2].
METADATA_SIZE_BYTES = 200

#: Preview durations (seconds) forming levels 2..6 in the evaluation.
DEFAULT_PREVIEW_DURATIONS = (5.0, 10.0, 20.0, 30.0, 40.0)

#: Fraction of total presentation utility attributed to the metadata alone.
METADATA_UTILITY_FRACTION = 0.01


def logarithmic_duration_utility(d: float, a: float = -0.397, b: float = 0.352) -> float:
    """The survey-fitted logarithmic utility of a *d*-second preview (Eq. 8).

    ``util(d) = a + b * log(1 + d)`` with the paper's fitted constants
    ``a = -0.397``, ``b = 0.352``.  Clamped below at 0 (for very short
    durations the raw fit dips negative, which the paper treats as "no
    useful preview").
    """
    import math

    if d < 0:
        raise ValueError(f"duration must be >= 0, got {d}")
    return max(0.0, a + b * math.log(1.0 + d))


def polynomial_duration_utility(
    d: float, a: float = 0.253, big_d: float = 40.0, b: float = 2.087
) -> float:
    """The alternative polynomial fit (Eq. 9): ``a * (1 - d/D)^b``.

    Note: the paper reports this as a *decreasing* function of ``d`` because
    it models the survey's stop-point density rather than its CDF; it is
    retained for the Figure 2(b) comparison and is not used as a ladder
    utility curve.
    """
    if d < 0:
        raise ValueError(f"duration must be >= 0, got {d}")
    base = 1.0 - d / big_d
    if base < 0.0:
        return 0.0
    return a * base**b


@dataclass(frozen=True)
class AudioPresentationSpec:
    """Configuration of the audio presentation ladder.

    Attributes mirror Section V-C of the paper.  ``duration_utility`` maps a
    preview duration in seconds to a raw (unnormalized) utility score; the
    ladder normalizes so that the richest level has utility 1.
    """

    preview_durations: Sequence[float] = DEFAULT_PREVIEW_DURATIONS
    bitrate_bps: int = DEFAULT_BITRATE_BPS
    metadata_size_bytes: int = METADATA_SIZE_BYTES
    metadata_utility_fraction: float = METADATA_UTILITY_FRACTION
    duration_utility: Callable[[float], float] = field(
        default=logarithmic_duration_utility
    )

    def __post_init__(self) -> None:
        durations = tuple(self.preview_durations)
        if any(d <= 0 for d in durations):
            raise ValueError("preview durations must be positive")
        if list(durations) != sorted(set(durations)):
            raise ValueError("preview durations must be strictly increasing")
        if not 0.0 < self.metadata_utility_fraction < 1.0:
            raise ValueError("metadata utility fraction must be in (0, 1)")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")

    def preview_size_bytes(self, duration_s: float) -> int:
        """Byte size of a preview of ``duration_s`` seconds at the bitrate."""
        return int(round(duration_s * self.bitrate_bps / 8.0))


def build_audio_ladder(spec: AudioPresentationSpec | None = None) -> PresentationLadder:
    """Build the six-level audio ladder of the paper's evaluation.

    Levels:

    ====== ==============================  =====================
    level  content                         size
    ====== ==============================  =====================
    0      not sent                        0
    1      metadata only                   200 B
    2..k   metadata + d-second preview     200 B + d x 20 KB
    ====== ==============================  =====================

    Utility: level 1 receives the metadata fraction (1 %); levels 2..k
    receive metadata fraction + (1 - fraction) x normalized duration curve,
    normalized so the longest preview scores exactly 1.
    """
    spec = spec or AudioPresentationSpec()
    durations = tuple(spec.preview_durations)
    raw = [spec.duration_utility(d) for d in durations]
    top = raw[-1]
    if top <= 0:
        raise ValueError("duration utility of the richest level must be positive")
    if any(hi <= lo for lo, hi in zip(raw, raw[1:])):
        raise ValueError("duration utility curve must be strictly increasing")

    meta_frac = spec.metadata_utility_fraction
    presentations = [
        Presentation(level=0, size_bytes=0, utility=0.0, description="not sent"),
        Presentation(
            level=1,
            size_bytes=spec.metadata_size_bytes,
            utility=meta_frac,
            description="metadata only",
        ),
    ]
    for offset, (duration, score) in enumerate(zip(durations, raw)):
        presentations.append(
            Presentation(
                level=2 + offset,
                size_bytes=spec.metadata_size_bytes
                + spec.preview_size_bytes(duration),
                utility=meta_frac + (1.0 - meta_frac) * (score / top),
                description=(
                    f"metadata+{duration:g}s@{spec.bitrate_bps // 1000}kbps"
                ),
            )
        )
    return PresentationLadder(presentations)

