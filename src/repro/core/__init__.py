"""The paper's primary contribution: utility-driven selection + scheduling.

The product selects through :mod:`repro.runtime.kernels`; the MCKP solvers
here (:func:`select_presentations`, :func:`solve_exact_dp`,
:func:`fractional_upper_bound`) are the oracles those kernels are checked
against.
"""

from repro.core.content import ContentItem, ContentKind, Presentation, PresentationLadder
from repro.core.presentations import AudioPresentationSpec, build_audio_ladder
from repro.core.mckp import (
    MckpInstance,
    MckpItem,
    MckpSolution,
    fractional_upper_bound,
    select_presentations,
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
)
from repro.core.multifeed import FeedCadences, MultiFeedScheduler
