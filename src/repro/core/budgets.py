"""Data and energy budgets with the paper's round-based replenishment.

Algorithm 2 (steps 2-3):

* each user specifies a per-round data allowance ``theta`` (bytes); at each
  round ``B(t)`` is incremented by ``theta`` and unused budget *rolls over*;
* the energy budget ``P(t)`` is replenished at a variable rate ``e(t)``
  that depends on the device's battery state, but only while ``P(t) <= kappa``
  (the per-round energy target);
* on delivery of item *i* at level *j*, ``B(t)`` is debited by ``s(i, j)``
  and ``P(t)`` by ``rho(i, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DataBudget:
    """Rolling byte budget ``B(t)``.

    Parameters
    ----------
    theta_bytes:
        Per-round allowance added at the start of every round.
    initial_bytes:
        Budget available before the first replenishment.
    cap_bytes:
        Optional ceiling on accumulated rollover; ``None`` means unbounded
        rollover as in the paper.
    """

    theta_bytes: float
    initial_bytes: float = 0.0
    cap_bytes: float | None = None
    _available: float = field(init=False)
    #: Per-channel ledger: net bytes drawn through each delivery channel
    #: (debits minus refunds), keyed by the ``channel=`` its callers pass.
    #: The round loop attributes every debit -- ``"push"`` alone on the
    #: paper's configuration; the budget arithmetic is channel-blind.
    per_channel_bytes: dict[str, float] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.theta_bytes < 0:
            raise ValueError("theta must be >= 0")
        if self.initial_bytes < 0:
            raise ValueError("initial budget must be >= 0")
        if self.cap_bytes is not None and self.cap_bytes < 0:
            raise ValueError("cap must be >= 0 when set")
        self._available = float(self.initial_bytes)
        if self.cap_bytes is not None:
            self._available = min(self._available, self.cap_bytes)

    @property
    def available(self) -> float:
        """Current ``B(t)`` in bytes."""
        return self._available

    def replenish(self) -> None:
        """Start-of-round top-up: ``B(t) += theta`` (Algorithm 2, step 2)."""
        self._available += self.theta_bytes
        if self.cap_bytes is not None:
            self._available = min(self._available, self.cap_bytes)

    def can_afford(self, size_bytes: float) -> bool:
        return size_bytes <= self._available

    def debit(self, size_bytes: float, channel: str | None = None) -> float:
        """Deduct a delivery: ``B(t) -= s(i, j)`` (Algorithm 2, step 3).

        Returns the amount actually drained (equal to ``size_bytes`` up to
        the zero floor), which bounds any later refund via :meth:`credit`.
        ``channel`` attributes the drain to a delivery channel in
        :attr:`per_channel_bytes` without changing the arithmetic.
        """
        if size_bytes < 0:
            raise ValueError("cannot debit a negative size")
        if size_bytes > self._available + 1e-9:
            raise ValueError(
                f"debit of {size_bytes} B exceeds available budget "
                f"{self._available} B"
            )
        before = self._available
        self._available = max(0.0, self._available - size_bytes)
        drained = before - self._available
        if channel is not None:
            self.per_channel_bytes[channel] = (
                self.per_channel_bytes.get(channel, 0.0) + drained
            )
        return drained

    def credit(self, size_bytes: float, channel: str | None = None) -> float:
        """Refund bytes debited for a transfer that failed mid-flight.

        Returns the amount actually restored (the rollover cap, when set,
        still applies -- a refund can never push ``B(t)`` above the cap).
        ``channel`` reverses a channel-attributed debit in
        :attr:`per_channel_bytes`.
        """
        if size_bytes < 0:
            raise ValueError("cannot credit a negative size")
        before = self._available
        self._available += size_bytes
        if self.cap_bytes is not None:
            self._available = min(self._available, self.cap_bytes)
        restored = self._available - before
        if channel is not None:
            self.per_channel_bytes[channel] = (
                self.per_channel_bytes.get(channel, 0.0) - restored
            )
        return restored


@dataclass
class EnergyBudget:
    """Virtual energy queue ``P(t)`` with battery-aware replenishment.

    ``kappa`` is the per-round energy allowance target (3 kJ/hour in the
    evaluation).  Replenishment ``e(t)`` is variable: the device reports a
    battery-derived rate and the budget only accepts it while ``P(t) <=
    kappa`` (Algorithm 2, step 2), which keeps ``P(t)`` hovering near
    ``kappa`` -- exactly the behaviour the Lyapunov analysis assumes.
    """

    kappa_joules: float
    initial_joules: float | None = None
    _available: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kappa_joules <= 0:
            raise ValueError("kappa must be positive")
        start = self.kappa_joules if self.initial_joules is None else self.initial_joules
        if start < 0:
            raise ValueError("initial energy must be >= 0")
        self._available = float(start)

    @property
    def available(self) -> float:
        """Current ``P(t)`` in joules."""
        return self._available

    def replenish(self, e_t_joules: float) -> float:
        """Add ``e(t)`` if ``P(t) <= kappa``; return the amount accepted."""
        if e_t_joules < 0:
            raise ValueError("replenishment must be >= 0")
        if self._available <= self.kappa_joules:
            self._available += e_t_joules
            return e_t_joules
        return 0.0

    def can_afford(self, joules: float) -> bool:
        return joules <= self._available

    def debit(self, joules: float) -> float:
        """Deduct a delivery's energy: ``P(t) -= rho(i, j)``.

        ``P(t)`` is floored at zero (the queue-update ``[.]^+`` in Eq. 5).
        Returns the amount actually drained, which bounds any later refund
        via :meth:`credit` -- a debit truncated by the floor must not be
        refunded in full, or the virtual queue would mint energy.
        """
        if joules < 0:
            raise ValueError("cannot debit negative energy")
        before = self._available
        self._available = max(0.0, self._available - joules)
        return before - self._available

    def credit(self, joules: float) -> float:
        """Restore energy debited for a transfer that did not complete.

        Callers must pass at most the amount the matching :meth:`debit`
        reported as drained.  Returns the amount restored.
        """
        if joules < 0:
            raise ValueError("cannot credit negative energy")
        self._available += joules
        return joules

    def deviation_from_kappa(self) -> float:
        """``P(t) - kappa``: the Lyapunov energy-pressure term of Eq. 7."""
        return self._available - self.kappa_joules
