"""Experiment configuration mirroring Section V-C's setup.

Defaults reproduce the paper's settings:

* rounds of 1 hour (3600 s);
* per-user *weekly* data budget, swept 1-200 MB, converted to the
  per-round allowance ``theta``;
* energy target ``kappa`` = 3 kJ per hour;
* Lyapunov control knob ``V`` = 1000;
* six presentation levels (metadata + {5, 10, 20, 30, 40} s previews at
  160 kbps);
* baselines fixed at "metadata with 5 s and 10 s previews" (ladder levels
  2 and 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.core.delivery import RetryPolicy
from repro.core.multifeed import FeedCadences
from repro.core.presentations import AudioPresentationSpec
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.sim.faults import FaultConfig

MB = 1_000_000
HOURS_PER_WEEK = 168.0


class NetworkMode(str, Enum):
    """Connectivity regimes of the evaluation."""

    CELL_ONLY = "cell_only"  # main setup: budgeted cellular plan
    MARKOV = "markov"  # Fig. 5(c): WIFI/CELL/OFF Markov chain


class Method(str, Enum):
    """Scheduling policies under comparison."""

    RICHNOTE = "richnote"
    FIFO = "fifo"
    UTIL = "util"


@dataclass(frozen=True)
class MethodSpec:
    """A registry key plus its fixed presentation level (baselines only).

    A spec names a :class:`~repro.runtime.policy.SchedulerPolicy` in the
    :mod:`repro.runtime.registry` (:attr:`policy_name`) and carries the
    experiment-level parameters the policy needs
    (:meth:`policy_params`); orchestration layers never import concrete
    policy classes.
    """

    method: Method
    fixed_level: int | None = None

    def __post_init__(self) -> None:
        if self.method is Method.RICHNOTE:
            if self.fixed_level is not None:
                raise ValueError("RichNote adapts levels; do not fix one")
        elif self.fixed_level is None or self.fixed_level < 1:
            raise ValueError(f"{self.method.value} needs a fixed level >= 1")

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse the CLI grammar: ``richnote`` | ``fifo:<L>`` | ``util:<L>``."""
        name, _, level = text.partition(":")
        name = name.lower()
        if name == "richnote":
            if level:
                raise ValueError("richnote does not take a level")
            return cls(Method.RICHNOTE)
        try:
            method = Method(name)
        except ValueError:
            raise ValueError(
                f"unknown method {name!r}; choose richnote, fifo:<L>, util:<L>"
            ) from None
        if not level:
            raise ValueError(f"{name} needs a level, e.g. {name}:3")
        return cls(method, fixed_level=int(level))

    @property
    def label(self) -> str:
        if self.method is Method.RICHNOTE:
            return "RichNote"
        return f"{self.method.value.upper()}-L{self.fixed_level}"

    @property
    def policy_name(self) -> str:
        """The :mod:`repro.runtime.registry` key of the backing policy."""
        return self.method.value

    def policy_params(self, config: "ExperimentConfig") -> dict:
        """Constructor kwargs for ``registry.create(self.policy_name, ...)``."""
        if self.method is Method.RICHNOTE:
            from repro.core.lyapunov import LyapunovConfig

            return {
                "lyapunov": LyapunovConfig(
                    v=config.lyapunov_v,
                    kappa_joules=config.kappa_joules_per_round,
                )
            }
        return {"fixed_level": self.fixed_level}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one simulation run."""

    weekly_budget_mb: float = 20.0
    round_seconds: float = 3600.0
    kappa_joules_per_round: float = 3000.0
    lyapunov_v: float = 1000.0
    network_mode: NetworkMode = NetworkMode.CELL_ONLY
    presentation_spec: AudioPresentationSpec = field(
        default_factory=AudioPresentationSpec
    )
    expected_batch: int = 10
    use_oracle_utility: bool = False  # ablation: ground-truth U_c
    #: Recency decay of content utility (the "aging factor" of Sec. III-A).
    #: Social-feed notifications lose value fast; an 8 h mean lifetime makes
    #: a day-late delivery worth ~5% of a prompt one.  Set to None to
    #: disable (ablation -- see tests/claims/test_ablations.py).
    aging_tau_seconds: float | None = 8 * 3600.0
    #: Optional per-feed round cadences (Section II).  When set, the
    #: scheduler ticks at the cadences' base period (which must equal
    #: ``round_seconds``) and album/playlist items batch up to their
    #: coarser release boundaries.
    feed_cadences: FeedCadences | None = None
    #: Fault injection for the delivery path (chaos runs).  ``None``
    #: disables the fault-tolerant engine entirely, keeping the paper's
    #: atomic delivery semantics bit for bit.
    faults: FaultConfig | None = None
    #: Retry/backoff/dead-letter policy used when ``faults`` is set.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 97

    def __post_init__(self) -> None:
        for name in (
            "weekly_budget_mb", "round_seconds", "kappa_joules_per_round", "lyapunov_v"
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.weekly_budget_mb <= 0:
            raise ValueError("weekly budget must be positive")
        if self.round_seconds <= 0:
            raise ValueError("round duration must be positive")
        if self.kappa_joules_per_round <= 0:
            raise ValueError("kappa must be positive")
        if self.lyapunov_v < 0:
            raise ValueError("V must be >= 0")
        tau = self.aging_tau_seconds
        if tau is not None and not (math.isfinite(tau) and tau > 0):
            raise ValueError(
                f"aging_tau_seconds must be None or finite and > 0, got {tau!r}"
            )
        if self.feed_cadences is not None and (
            abs(self.feed_cadences.base_period - self.round_seconds) > 1e-9
        ):
            raise ValueError(
                "feed cadences' base period must equal round_seconds "
                f"({self.feed_cadences.base_period} != {self.round_seconds})"
            )

    @property
    def theta_bytes_per_round(self) -> float:
        """Per-round data allowance implied by the weekly budget."""
        rounds_per_week = HOURS_PER_WEEK * 3600.0 / self.round_seconds
        return self.weekly_budget_mb * MB / rounds_per_week

    def utility_model(self) -> CombinedUtilityModel:
        """The Eq. 1 utility model these knobs describe (aging per Sec. III-A)."""
        tau = self.aging_tau_seconds
        return CombinedUtilityModel(
            aging=None if tau is None else ExponentialAging(tau)
        )

    def with_budget(self, weekly_budget_mb: float) -> "ExperimentConfig":
        """A copy at a different budget (sweep helper)."""
        from dataclasses import replace

        return replace(self, weekly_budget_mb=weekly_budget_mb)

    def with_v(self, v: float) -> "ExperimentConfig":
        from dataclasses import replace

        return replace(self, lyapunov_v=v)


#: The paper's budget sweep for Figures 3-4 (MB per week).
PAPER_BUDGET_SWEEP_MB = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Baseline fixed levels used in the headline comparison (5 s and 10 s).
PAPER_BASELINE_LEVELS = (2, 3)
