"""Lyapunov drift-plus-penalty control for notification scheduling.

Section IV folds queue stability and the energy constraint into the MCKP
objective via Lyapunov optimization:

* the real scheduling queue ``Q(t)`` holds undelivered bytes;
* a virtual queue ``P(t)`` tracks the remaining energy allowance and should
  hover around the per-round target ``kappa``;
* the Lyapunov function is ``L(t) = 1/2 (Q^2(t) + (P(t) - kappa)^2)``;
* minimizing drift-minus-V-times-utility (Eq. 3) reduces, after bounding the
  drift, to maximizing per round (Eq. 6/7):

      sum_ij x_ij * U_a(i, j)
      U_a(i, j) = Q(t) * s(i) + (P(t) - kappa) * rho(i, j) + V * U(i, j)

  subject to the data budget, where ``s(i)`` is the *total* backlog
  contribution of item *i* (all presentation sizes summed -- delivering an
  item drops every presentation of it from the queue, Eq. 4) and
  ``rho(i, j)`` is the estimated download energy.

Unit scaling
------------
The paper reports V = 1000 with budgets in MB and energy in kJ.  Raw bytes
and joules would let the ``Q * s(i)`` term (~1e13) drown the utility term
(~1e3), so the controller normalizes sizes to megabytes and energy to
kilojoules before combining terms.  The scales are configurable; the default
calibration reproduces the paper's qualitative V-sensitivity (RichNote
uniformly good across V, larger V favouring utility over backlog).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: bytes -> megabytes
DEFAULT_SIZE_SCALE = 1e-6
#: joules -> kilojoules
DEFAULT_ENERGY_SCALE = 1e-3


@dataclass(frozen=True, slots=True)
class LyapunovConfig:
    """Control parameters of the drift-plus-penalty scheduler.

    Attributes
    ----------
    v:
        The control knob ``V`` of Eq. 3; larger values favour utility over
        queue backlog.  The paper uses 1000.
    kappa_joules:
        Per-round energy allowance target (3 kJ/hour in the evaluation).
    size_scale / energy_scale:
        Unit normalization applied inside the adjusted utility (see module
        docstring).
    """

    v: float = 1000.0
    kappa_joules: float = 3000.0
    size_scale: float = DEFAULT_SIZE_SCALE
    energy_scale: float = DEFAULT_ENERGY_SCALE

    def __post_init__(self) -> None:
        for name in ("v", "kappa_joules", "size_scale", "energy_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.v < 0:
            raise ValueError("V must be >= 0")
        if self.kappa_joules <= 0:
            raise ValueError("kappa must be positive")
        if self.size_scale <= 0 or self.energy_scale <= 0:
            raise ValueError("scales must be positive")


@dataclass(frozen=True, slots=True)
class LyapunovState:
    """A snapshot of the queue state entering a round.

    ``q_bytes`` is the scheduling-queue backlog ``Q(t)`` (bytes);
    ``p_joules`` is the virtual energy queue ``P(t)`` (joules).
    """

    q_bytes: float
    p_joules: float

    def __post_init__(self) -> None:
        if self.q_bytes < 0 or self.p_joules < 0:
            raise ValueError("queue values must be non-negative (the [.]+ update)")


class LyapunovController:
    """Computes adjusted utilities and drift diagnostics.

    The controller is stateless with respect to the queues: the scheduler
    owns ``Q(t)``/``P(t)`` and passes a :class:`LyapunovState` snapshot each
    round, mirroring how Eq. 7 freezes the queue values while the MCKP for
    round *t* is solved.
    """

    def __init__(self, config: LyapunovConfig | None = None) -> None:
        self.config = config or LyapunovConfig()

    def lyapunov_function(self, state: LyapunovState) -> float:
        """``L(t) = 1/2 (Q^2 + (P - kappa)^2)`` in scaled units."""
        cfg = self.config
        q = state.q_bytes * cfg.size_scale
        p_dev = (state.p_joules - cfg.kappa_joules) * cfg.energy_scale
        return 0.5 * (q * q + p_dev * p_dev)

    def drift(self, before: LyapunovState, after: LyapunovState) -> float:
        """One-step realized drift ``L(t+1) - L(t)``."""
        return self.lyapunov_function(after) - self.lyapunov_function(before)

    def adjusted_utility(
        self,
        state: LyapunovState,
        item_backlog_bytes: float,
        energy_joules: float,
        utility: float,
        delivered: bool = True,
    ) -> float:
        """``U_a(i, j)`` of Eq. 7 for one presentation.

        Parameters
        ----------
        state:
            The frozen queue snapshot for this round.
        item_backlog_bytes:
            ``s(i)``: the item's total backlog contribution (sum of all its
            presentation sizes) -- credited only when the item is actually
            delivered (``delivered`` / level > 0), since level 0 drains
            nothing.
        energy_joules:
            ``rho(i, j)``: estimated download energy for this presentation.
        utility:
            ``U(i, j)``: the combined content x presentation utility.
        delivered:
            False for level 0 ("not sent"), which drains no backlog and
            spends no energy; its adjusted utility is 0 by construction.
        """
        if not delivered:
            return 0.0
        cfg = self.config
        queue_term = (state.q_bytes * cfg.size_scale) * (
            item_backlog_bytes * cfg.size_scale
        )
        energy_term = (
            (state.p_joules - cfg.kappa_joules) * cfg.energy_scale
        ) * (energy_joules * cfg.energy_scale)
        return queue_term + energy_term + cfg.v * utility

    def adjusted_profile(
        self,
        state: LyapunovState,
        item_backlog_bytes: float,
        energies_joules: list[float],
        utilities: list[float],
    ) -> list[float]:
        """Adjusted utilities for a full ladder (index = level).

        ``energies_joules[j]`` and ``utilities[j]`` describe level ``j``;
        level 0 maps to adjusted utility 0.
        """
        if len(energies_joules) != len(utilities):
            raise ValueError("energy and utility profiles must align")
        profile = [0.0]
        for energy, utility in zip(energies_joules[1:], utilities[1:]):
            profile.append(
                self.adjusted_utility(
                    state, item_backlog_bytes, energy, utility, delivered=True
                )
            )
        return profile


def quadratic_drift_bound(
    queue_before: float, served: float, arrived: float
) -> float:
    """Analytic one-step bound for a quadratic Lyapunov term.

    For the queue update ``Q' = max(0, Q - a + b)`` (serve ``a``, admit
    ``b``), the standard inequality behind Eq. 6's derivation is::

        (Q'^2 - Q^2) / 2  <=  (a^2 + b^2) / 2  -  Q (a - b)

    The right-hand side is what this function returns (all arguments in
    the same -- already scaled -- units).  Summing the bound for ``Q`` and
    for ``P - kappa`` and taking expectations yields the paper's
    ``Delta(L) <= beta - E[Q X_s + (P - kappa) X_e]`` with
    ``beta = (a^2 + b^2 + ...) / 2`` absorbing the bounded second moments.
    """
    if queue_before < 0 or served < 0 or arrived < 0:
        raise ValueError("queue, service and arrivals must be >= 0")
    return 0.5 * (served**2 + arrived**2) - queue_before * (served - arrived)
