"""The paper's primary contribution: utility-driven selection + scheduling."""

from repro.core.content import ContentItem, ContentKind, Presentation, PresentationLadder
from repro.core.presentations import AudioPresentationSpec, build_audio_ladder
from repro.core.mckp import (
    MckpInstance,
    MckpItem,
    MckpSolution,
    convex_hull_levels,
    fractional_upper_bound,
    select_presentations,
    select_presentations_general,
    solve_exact_dp,
)
from repro.core.lyapunov import LyapunovConfig, LyapunovController, LyapunovState
from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.utility import (
    AgingPolicy,
    CombinedUtilityModel,
    ExponentialAging,
    LearnedContentUtility,
    LinearAging,
    OracleContentUtility,
    StepDeadlineAging,
)
from repro.core.delivery import DeliveryEngine, DeliveryStats, RetryPolicy
from repro.core.media import (
    ImagePresentationSpec,
    LadderRegistry,
    VideoPresentationSpec,
    build_image_ladder,
    build_video_ladder,
    default_registry,
)
from repro.core.multifeed import FeedCadences, MultiFeedScheduler
