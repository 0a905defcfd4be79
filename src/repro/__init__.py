"""RichNote: adaptive selection and delivery of rich media notifications.

A full reproduction of Uddin et al., *RichNote: Adaptive Selection and
Delivery of Rich Media Notifications to Mobile Users* (ICDCS 2016):

* :mod:`repro.core` -- the paper's contribution: presentation ladders,
  utility models, the greedy MCKP selector (Algorithm 1), the Lyapunov
  controller and the budgets;
* :mod:`repro.runtime` -- the round scheduler (Algorithm 2): the
  ``RoundLoop``, the ``richnote`` / ``fifo`` / ``util`` policies and the
  columnar cohort engine;
* :mod:`repro.pubsub` -- a topic-based pub/sub broker (the Spotify-style
  substrate notifications originate from);
* :mod:`repro.ml` -- a from-scratch Random Forest and evaluation tooling
  for the content-utility classifier;
* :mod:`repro.trace` -- the synthetic Spotify-like workload generator
  (catalog, social graph, publications, click/hover labels);
* :mod:`repro.sim` -- discrete-event simulation, connectivity, battery and
  transfer-energy models;
* :mod:`repro.survey` -- the presentation-utility survey pipeline
  (skyline pruning + curve fitting);
* :mod:`repro.experiments` -- the trace-driven evaluation harness that
  regenerates the paper's figures.

Quickstart::

    from repro import build_workload, ExperimentConfig, MethodSpec, Method
    from repro.experiments.runner import run_experiment

    workload = build_workload()
    result = run_experiment(
        workload, MethodSpec(Method.RICHNOTE), ExperimentConfig()
    )
    print(result.aggregate.row())
"""

from repro.core.content import ContentItem, ContentKind, Presentation, PresentationLadder
from repro.core.presentations import AudioPresentationSpec, build_audio_ladder
from repro.core.mckp import MckpInstance, MckpItem, select_presentations
from repro.core.lyapunov import LyapunovConfig, LyapunovController, LyapunovState
from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.utility import (
    CombinedUtilityModel,
    ExponentialAging,
    LearnedContentUtility,
    OracleContentUtility,
)
from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.runtime.types import Delivery, RoundResult
from repro.trace.generator import TraceConfig, Workload, WorkloadSpec, build_workload

__version__ = "1.0.0"

__all__ = [
    "AudioPresentationSpec",
    "CombinedUtilityModel",
    "ContentItem",
    "ContentKind",
    "DataBudget",
    "Delivery",
    "EnergyBudget",
    "ExperimentConfig",
    "ExponentialAging",
    "LearnedContentUtility",
    "LyapunovConfig",
    "LyapunovController",
    "LyapunovState",
    "MckpInstance",
    "MckpItem",
    "Method",
    "MethodSpec",
    "NetworkMode",
    "OracleContentUtility",
    "Presentation",
    "PresentationLadder",
    "RoundResult",
    "TraceConfig",
    "Workload",
    "WorkloadSpec",
    "build_audio_ladder",
    "build_workload",
    "select_presentations",
]
