"""The layered scheduling runtime.

Three enforced layers (``tests/test_layering.py`` guards the import
direction):

1. **Kernels** (:mod:`repro.runtime.kernels`) -- pure, stateless,
   array-oriented math: combined utility, the Eq. 7 Lyapunov adjustment
   and the Algorithm-1 greedy over whole-queue columns.  Imports nothing
   above the standard library and numpy.
2. **Policy** (:mod:`repro.runtime.policy`,
   :mod:`repro.runtime.registry`) -- ``SchedulerPolicy`` implementations
   (``richnote``, ``fifo``, ``util``) resolvable by name, plus the
   :class:`~repro.runtime.loop.RoundLoop` of composable round phases
   (ingest, replenish, select, deliver).
3. **Orchestration** -- the experiment runner, pub/sub broker and CLI,
   which resolve policies through the registry only.

See DESIGN.md section 9 for the layer contracts and docs/EXTENDING.md
section 1 for writing a custom policy.
"""

from repro.runtime import registry
from repro.runtime.loop import RoundLoop, RoundState
from repro.runtime.policy import (
    FifoPolicy,
    FixedLevelPolicy,
    RichNotePolicy,
    RoundContext,
    RoundDecision,
    SchedulerPolicy,
    UtilPolicy,
)
from repro.runtime.types import Delivery, DroppedItem, RoundResult

__all__ = [
    "Delivery",
    "DroppedItem",
    "FifoPolicy",
    "FixedLevelPolicy",
    "RichNotePolicy",
    "RoundContext",
    "RoundDecision",
    "RoundLoop",
    "RoundResult",
    "RoundState",
    "SchedulerPolicy",
    "UtilPolicy",
    "registry",
]
