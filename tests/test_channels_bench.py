"""The flash-crowd coupling scenario (``richnote bench-channels``) as gates.

* **Cross-user coupling is real** -- with the shared per-cell byte pool
  enabled, bystanders on the crowd's cell lose measurable utility
  relative to the uncoupled replay of the *same* arrival schedule, while
  the control cell (no crowd) is untouched.
* **Per-channel accounting closes** -- the delivery engine's byte
  conservation error is exactly zero in both runs, per-channel rows
  sum to the totals, and both are the merge of the engines' ledgers.
* **Determinism** -- two runs from the same config are equal.
"""

from __future__ import annotations

import pytest

from repro.core.delivery import DeliveryEngine, DeliveryStats
from repro.experiments import channels_bench
from repro.experiments.channels_bench import ChannelsBenchConfig, bench_channels

GATE_CONFIG = ChannelsBenchConfig()


@pytest.fixture(scope="module")
def payload():
    return bench_channels(GATE_CONFIG)


def test_flash_crowd_degrades_shared_cell_bystanders(payload):
    """The headline gate: nonzero cross-user degradation, clean control."""
    shared = payload["coupling"]["shared_bystanders"]
    control = payload["coupling"]["control_bystanders"]
    assert shared["utility_drop"] > 0.0
    assert shared["drop_fraction"] > 0.05
    # The control cell shares the config but not the tower: the pool must
    # not have been the binding constraint there.
    assert abs(control["drop_fraction"]) < 0.01
    assert shared["drop_fraction"] > 5 * abs(control["drop_fraction"])


def test_pool_contention_is_on_the_crowd_cell(payload):
    cells = payload["coupled"]["cells"]
    shared = cells["0"]
    control = cells["1"]
    assert shared["denied_bytes"] > 0
    assert shared["contended_grants"] > 0
    # Rolled-over budgets inflate *requests* on both cells, so some
    # denial shows up even where nothing starves; the crowd cell's
    # denial must still dwarf the control cell's.
    assert shared["denied_bytes"] > 10 * control["denied_bytes"]
    # Consumption can never exceed the per-round refill times the rounds.
    budget = GATE_CONFIG.pool_bytes_per_round * GATE_CONFIG.rounds
    assert shared["consumed_bytes"] <= budget
    assert control["consumed_bytes"] <= budget


def test_per_channel_breakdowns_and_conservation(payload):
    """Ledger closes exactly; channels each report their own counters."""
    for run in ("coupled", "uncoupled"):
        doc = payload[run]
        assert doc["conservation_error_bytes"] == 0.0
        per_channel = doc["per_channel"]
        assert per_channel  # at least one channel carried traffic
        for row in per_channel.values():
            assert set(row) == {
                "delivered",
                "shed",
                "dead_letters",
                "retries_scheduled",
                "bytes_delivered",
            }
            assert row["dead_letters"] <= row["shed"]
        assert (
            sum(row["delivered"] for row in per_channel.values())
            == doc["totals"]["delivered"]
        )
        assert doc["totals"]["delivered"] > 0
        assert doc["totals"]["dead_letters"] > 0  # faults actually fired


def test_two_runs_are_equal(payload):
    assert bench_channels(GATE_CONFIG) == payload


def test_totals_and_channels_are_the_merged_engine_ledgers(payload, monkeypatch):
    """Each run's ``totals`` / ``per_channel`` is one ``merge`` of its
    engines' ledgers in service order (coupled run first)."""
    engines = []

    class RecordingEngine(DeliveryEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(channels_bench, "DeliveryEngine", RecordingEngine)
    assert bench_channels(GATE_CONFIG) == payload
    population = len(engines) // 2
    for run, run_engines in (
        ("coupled", engines[:population]),
        ("uncoupled", engines[population:]),
    ):
        merged = DeliveryStats()
        for engine in run_engines:
            merged.merge(engine.stats)
        doc = payload[run]
        assert doc["totals"] == {
            key: getattr(merged, key)
            for key in (
                "attempts", "delivered", "failed_attempts",
                "retries_scheduled", "dead_letters",
            )
        }
        assert doc["per_channel"] == {
            name: {
                "delivered": slice_.delivered,
                "shed": slice_.failed_attempts,
                "dead_letters": slice_.dead_letters,
                "retries_scheduled": slice_.retries_scheduled,
                "bytes_delivered": round(slice_.bytes_delivered, 3),
            }
            for name, slice_ in sorted(merged.per_channel.items())
        }
        assert doc["conservation_error_bytes"] == merged.conservation_error()
