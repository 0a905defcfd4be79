"""Tests for the whole-system live simulation."""

import pytest

from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.runner import delivery_digest
from repro.experiments.system import SystemConfig, SystemSimulation
from repro.runtime.columnar import round_times
from repro.trace.entities import CatalogConfig, generate_catalog
from repro.trace.generator import TraceConfig
from repro.trace.socialgraph import SocialGraphConfig, generate_social_graph

N_USERS = 15


@pytest.fixture(scope="module")
def world():
    catalog = generate_catalog(
        CatalogConfig(n_users=N_USERS, n_artists=12, n_playlists=5, seed=3)
    )
    graph = generate_social_graph(SocialGraphConfig(n_users=N_USERS, seed=4))
    return catalog, graph


@pytest.fixture(scope="module")
def trace_config():
    return TraceConfig(duration_hours=24.0, listen_rate_scale=0.5, seed=8)


@pytest.fixture(scope="module")
def baseline_report(world, trace_config):
    catalog, graph = world
    simulation = SystemSimulation(
        catalog,
        graph,
        trace_config,
        SystemConfig(experiment=ExperimentConfig(weekly_budget_mb=20.0, seed=8)),
    )
    return simulation.run()


class TestLiveSystem:
    def test_publications_flow_to_deliveries(self, baseline_report):
        report = baseline_report
        assert report.publications > 0
        assert report.notifications_matched > 0
        assert report.records
        assert report.deliveries
        assert report.notifications_dropped_at_broker == 0

    def test_records_match_broker_output(self, baseline_report):
        report = baseline_report
        assert len(report.records) == report.notifications_matched

    def test_online_scoring_populates_content_utility(self, baseline_report):
        utilities = [d.item.content_utility for d in baseline_report.deliveries]
        assert all(0.0 <= u <= 1.0 for u in utilities)
        assert len(set(utilities)) > 1  # a real model, not a constant

    def test_aggregate_metrics_sane(self, baseline_report):
        agg = baseline_report.aggregate
        assert 0.0 < agg.delivery_ratio <= 1.0
        assert agg.delivered_mb > 0
        assert agg.mean_queuing_delay_s >= 0.0

    def test_ground_truth_labels_present(self, baseline_report):
        assert any(r.clicked for r in baseline_report.records)
        assert any(not r.hovered for r in baseline_report.records)

    def test_deliveries_happen_on_round_ticks(self, baseline_report, trace_config):
        ticks = set(
            round_times(
                ExperimentConfig().round_seconds, trace_config.duration_hours * 3600.0
            )
        )
        assert {d.time for d in baseline_report.deliveries} <= ticks

    def test_records_are_flushed_by_the_last_tick(self, baseline_report, trace_config):
        last = round_times(
            ExperimentConfig().round_seconds, trace_config.duration_hours * 3600.0
        )[-1]
        assert max(r.timestamp for r in baseline_report.records) <= last


class TestBrokerCapacity:
    def test_capacity_cap_drops_notifications(self, world, trace_config):
        catalog, graph = world
        simulation = SystemSimulation(
            catalog,
            graph,
            trace_config,
            SystemConfig(
                experiment=ExperimentConfig(weekly_budget_mb=20.0, seed=8),
                broker_capacity_per_round=5,
            ),
        )
        report = simulation.run()
        assert report.notifications_dropped_at_broker > 0
        assert 0.0 < report.broker_drop_rate < 1.0
        # Dropped notifications never reach users.
        assert len(report.records) < report.notifications_matched


class TestBaselinePolicy:
    def test_fifo_system_runs(self, world, trace_config):
        catalog, graph = world
        simulation = SystemSimulation(
            catalog,
            graph,
            trace_config,
            SystemConfig(
                experiment=ExperimentConfig(weekly_budget_mb=5.0, seed=8),
                method=MethodSpec(Method.FIFO, fixed_level=3),
            ),
        )
        report = simulation.run()
        assert report.deliveries
        assert all(d.level <= 3 for d in report.deliveries)


class TestGolden:
    """Pinned outcomes of whole runs: the round clock, the broker's flush
    and the per-user schedulers together.

    The 20.5-hour trace draws publications over 21 hours: those after the
    last round tick but before the ``duration + 2 s`` horizon are published
    (matched) yet never flushed, so ``matched > len(records)`` there; those
    past the horizon are never published at all.
    """

    @pytest.mark.parametrize(
        "duration_hours,listen_rate_scale,broker_capacity,expected",
        [
            (24.0, 0.5, None, (
                "d2c190f82c8848e715853f28d24aa4d9f4c5875d8fbe2602d32e5b2d67076281",
                332, 0, 332,
            )),
            (24.0, 0.5, 5, (
                "a6c3458e78358bb57400c3b38d98ed632e07a46c70f3909aa16abf93ddf8e199",
                332, 257, 75,
            )),
            (20.5, 2.0, None, (
                "76e6bd9e34198b381a6fee8cf8aa2fc47c1fb2c84e5d57b0cbcdf6424db9bbce",
                1329, 0, 1257,
            )),
        ],
        ids=["unlimited", "broker-capacity", "fractional-duration"],
    )
    def test_pinned_outcome(
        self, world, duration_hours, listen_rate_scale, broker_capacity, expected
    ):
        catalog, graph = world
        simulation = SystemSimulation(
            catalog,
            graph,
            TraceConfig(
                duration_hours=duration_hours,
                listen_rate_scale=listen_rate_scale,
                seed=8,
            ),
            SystemConfig(
                experiment=ExperimentConfig(weekly_budget_mb=20.0, seed=8),
                broker_capacity_per_round=broker_capacity,
            ),
        )
        report = simulation.run()
        assert (
            delivery_digest(report.deliveries),
            report.notifications_matched,
            report.notifications_dropped_at_broker,
            len(report.records),
        ) == expected
