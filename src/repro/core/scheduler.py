"""Deprecated home of the round-based schedulers (moved to ``repro.runtime``).

The scheduling runtime now lives in three layers under
:mod:`repro.runtime` -- array kernels (:mod:`repro.runtime.kernels`),
pluggable policies (:mod:`repro.runtime.policy`, resolvable by name via
:mod:`repro.runtime.registry`) and the composable round loop
(:mod:`repro.runtime.loop`).  New code should build a
:class:`~repro.runtime.loop.RoundLoop` and bind a registered policy::

    from repro.runtime import RoundLoop, registry

    loop = RoundLoop(device, data_budget, energy_budget, utility_model)
    loop.bind_policy(registry.create("richnote", lyapunov=config))

This module keeps the pre-runtime import surface working:

* :class:`Delivery`, :class:`DroppedItem` and :class:`RoundResult`
  re-export from :mod:`repro.runtime.types` (same classes, not copies);
* :class:`RoundBasedScheduler` is an alias base over ``RoundLoop`` --
  the supported extension seam for subclasses that override ``_select``
  directly, so it does **not** warn;
* :class:`RichNoteScheduler` still constructs the paper's scheduler but
  emits a :class:`DeprecationWarning` and delegates everything to a
  bound :class:`~repro.runtime.policy.RichNotePolicy`.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delivery import DeliveryEngine

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.lyapunov import LyapunovConfig, LyapunovController
from repro.core.utility import CombinedUtilityModel
from repro.runtime.loop import RoundLoop
from repro.runtime.policy import RichNotePolicy
from repro.runtime.types import Delivery, DroppedItem, RoundResult
from repro.sim.device import MobileDevice

__all__ = [
    "Delivery",
    "DroppedItem",
    "RichNoteScheduler",
    "RoundBasedScheduler",
    "RoundResult",
]


class RoundBasedScheduler(RoundLoop):
    """Legacy name for :class:`repro.runtime.loop.RoundLoop`.

    Kept as a distinct class (not a bare assignment) so subclasses that
    predate the runtime package -- overriding :meth:`_select` and reading
    ``self._scheduling`` -- keep a stable MRO and ``__name__``.  This is
    a supported extension seam and intentionally does not warn.
    """


class RichNoteScheduler(RoundBasedScheduler):
    """Deprecated: the paper's scheduler as a concrete class.

    Equivalent to a :class:`~repro.runtime.loop.RoundLoop` bound to the
    ``richnote`` policy; all selection math now runs through
    :mod:`repro.runtime.kernels`.  See the class it wraps,
    :class:`repro.runtime.policy.RichNotePolicy`, for the parameters'
    semantics.
    """

    def __init__(
        self,
        device: MobileDevice,
        data_budget: DataBudget,
        energy_budget: EnergyBudget,
        utility_model: CombinedUtilityModel | None = None,
        lyapunov: LyapunovConfig | None = None,
        ttl_seconds: float | None = None,
        delivery_engine: "DeliveryEngine | None" = None,
    ) -> None:
        warnings.warn(
            "repro.core.scheduler.RichNoteScheduler is deprecated; build a "
            "repro.runtime.RoundLoop and bind the 'richnote' policy via "
            "repro.runtime.registry.create('richnote', ...)",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(
            device, data_budget, energy_budget, utility_model, ttl_seconds,
            delivery_engine,
        )
        self.bind_policy(RichNotePolicy(lyapunov=lyapunov))

    @property
    def controller(self) -> LyapunovController:
        return self.policy.controller

    @property
    def lyapunov_history(self) -> list[float]:
        """End-of-round Lyapunov function values L(t) (stability diagnostic)."""
        return self.policy.lyapunov_history

    def lyapunov_value(self) -> float:
        """Current ``L(t)`` over the live queue and energy state."""
        return self.policy.lyapunov_value(self)
