"""The per-arrival ingest driver, kept as the oracle of the batched one.

``FlashCrowdScenario.drive`` ingests every arrival due before the clock's
next live sleeper in one wake (``SimulatedClock.advance_to``); the driver
it replaced parks on the clock once per arrival.  Its body is kept
verbatim, so ``tests/test_ingest_differential.py`` can hold the two to
the same session, bit for bit.
"""

from __future__ import annotations

from repro.service.chaos import FlashCrowdScenario


class PerArrivalScenario(FlashCrowdScenario):
    """A flash crowd driven one clock sleep per arrival."""

    async def drive(self, service, clock) -> list:
        """Feed the schedule into the service on its clock; returns the
        per-event :class:`~repro.service.queues.IngestResult` list."""
        start = clock.now()
        results = []
        for index, event in enumerate(self.schedule()):
            delay = start + event.time - clock.now()
            if delay > 0:
                await clock.sleep(delay)
            item = self._item_factory(index, event)
            results.append(service.ingest(item))
        return results
