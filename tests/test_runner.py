"""Tests for the trace-driven experiment runner."""

import pytest

from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.runner import (
    UtilityAnnotations,
    run_experiment,
    run_user,
    sweep_budgets,
)
from repro.experiments.workloads import eval_workload
from repro.runtime.columnar import round_times


@pytest.fixture(scope="module")
def workload():
    return eval_workload("small")


@pytest.fixture(scope="module")
def annotations(workload):
    return UtilityAnnotations.train(workload, seed=1)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(weekly_budget_mb=10.0, seed=1)


class TestUtilityAnnotations:
    def test_scores_every_record(self, workload, annotations):
        assert set(annotations.scores) == {
            r.notification_id for r in workload.records
        }
        assert all(0.0 <= s <= 1.0 for s in annotations.scores.values())

    def test_scores_correlate_with_clicks(self, workload, annotations):
        clicked = [
            annotations.scores[r.notification_id]
            for r in workload.records
            if r.clicked
        ]
        unclicked = [
            annotations.scores[r.notification_id]
            for r in workload.records
            if r.hovered and not r.clicked
        ]
        assert sum(clicked) / len(clicked) > sum(unclicked) / len(unclicked)

    def test_oracle_mode(self, workload):
        annotations = UtilityAnnotations.train(workload, oracle=True)
        for record in workload.records[:200]:
            expected = 0.9 if record.clicked else 0.1
            assert annotations.scores[record.notification_id] == expected

    def test_cross_validation_optional(self, workload):
        annotations = UtilityAnnotations.train(
            workload, seed=1, max_training_samples=600, run_cross_validation=True
        )
        cv = annotations.cross_validation
        assert cv is not None
        assert 0.5 < cv.accuracy <= 1.0
        assert len(cv.fold_accuracy) == 5


class TestRunUser:
    def test_single_user_replay(self, workload, annotations, config):
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        duration = workload.config.duration_hours * 3600.0
        outcome = run_user(
            user_id, records, MethodSpec(Method.RICHNOTE), config, annotations,
            duration,
        )
        metrics = outcome.metrics
        assert metrics.total_notifications == len(records)
        assert 0.0 < metrics.delivery_ratio <= 1.0
        assert metrics.delivered_bytes > 0
        assert outcome.max_queue_length >= outcome.final_queue_length

    def test_deliveries_never_exceed_weekly_budget(self, workload, annotations):
        config = ExperimentConfig(weekly_budget_mb=1.0, seed=1)
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        duration = workload.config.duration_hours * 3600.0
        outcome = run_user(
            user_id, records, MethodSpec(Method.RICHNOTE), config, annotations,
            duration,
        )
        weeks = duration / (7 * 86400.0)
        allowance = config.weekly_budget_mb * 1e6 * weeks + config.theta_bytes_per_round
        assert outcome.metrics.delivered_bytes <= allowance

    def test_record_order_does_not_change_the_replay(
        self, workload, annotations, config
    ):
        """Items are sorted by arrival before the round clock walks them."""
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        assert len({r.timestamp for r in records}) == len(records)
        duration = workload.config.duration_hours * 3600.0
        spec = MethodSpec(Method.RICHNOTE)
        forward, backward = (
            run_user(
                user_id, ordered, spec, config, annotations, duration,
                digest_deliveries=True,
            )
            for ordered in (records, list(reversed(records)))
        )
        assert forward == backward

    def test_no_round_before_the_first_tick(self, workload, annotations, config):
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        outcome = run_user(
            user_id, records, MethodSpec(Method.RICHNOTE), config, annotations,
            config.round_seconds / 2,
        )
        assert outcome.metrics.delivered_notifications == 0
        assert (outcome.mean_backlog_bytes, outcome.max_queue_length) == (0.0, 0)

    def test_arrivals_after_the_last_tick_are_never_delivered(
        self, workload, annotations, config
    ):
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        duration = workload.config.duration_hours * 3600.0 / 2
        last = round_times(config.round_seconds, duration)[-1]
        in_time = sum(r.timestamp <= last for r in records)
        assert 0 < in_time < len(records)
        outcome = run_user(
            user_id, records, MethodSpec(Method.RICHNOTE), config, annotations,
            duration,
        )
        assert 0 < outcome.metrics.delivered_notifications <= in_time

    @pytest.mark.parametrize("score", [float("nan"), -3.0, 7.0])
    def test_score_outside_unit_interval_rejected(
        self, workload, annotations, config, score
    ):
        """At the parent the score was assigned past ``ContentItem``'s check:
        the 7.0 item was delivered at utility > 1, the NaN one never sent."""
        user_id = workload.top_users(1)[0]
        records = workload.records_for_user(user_id)
        scores = {**annotations.scores, records[1].notification_id: score}
        with pytest.raises(ValueError, match=r"content utility must be in \[0, 1\]"):
            run_user(
                user_id, records, MethodSpec(Method.RICHNOTE), config,
                UtilityAnnotations(scores=scores),
                workload.config.duration_hours * 3600.0,
            )


class TestRunExperiment:
    def test_all_methods_produce_results(self, workload, annotations, config):
        users = workload.top_users(5)
        for spec in (
            MethodSpec(Method.RICHNOTE),
            MethodSpec(Method.FIFO, 3),
            MethodSpec(Method.UTIL, 3),
        ):
            result = run_experiment(workload, spec, config, annotations, users)
            assert result.aggregate.users == 5
            assert result.aggregate.delivery_ratio > 0

    def test_richnote_delivers_more_than_fixed_baselines(
        self, workload, annotations
    ):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=1)
        users = workload.top_users(5)
        richnote = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations, users
        )
        fifo = run_experiment(
            workload, MethodSpec(Method.FIFO, 3), config, annotations, users
        )
        assert (
            richnote.aggregate.delivery_ratio > fifo.aggregate.delivery_ratio
        )
        assert (
            richnote.aggregate.mean_queuing_delay_s
            < fifo.aggregate.mean_queuing_delay_s
        )

    def test_markov_mode_runs(self, workload, annotations):
        config = ExperimentConfig(
            weekly_budget_mb=10.0, network_mode=NetworkMode.MARKOV, seed=1
        )
        users = workload.top_users(3)
        result = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations, users
        )
        assert result.aggregate.delivery_ratio > 0


class TestSweep:
    def test_grid_covers_all_cells(self, workload, annotations):
        specs = [MethodSpec(Method.RICHNOTE), MethodSpec(Method.UTIL, 2)]
        budgets = (2.0, 20.0)
        users = workload.top_users(3)
        grid = sweep_budgets(
            workload, specs, budgets,
            ExperimentConfig(seed=1), annotations, users,
        )
        # Budget-major, like the loop of cells it replaced.
        assert list(grid) == [
            ("RichNote", 2.0),
            ("UTIL-L2", 2.0),
            ("RichNote", 20.0),
            ("UTIL-L2", 20.0),
        ]

    @pytest.mark.parametrize("mode", list(NetworkMode), ids=lambda m: m.name)
    def test_one_pass_per_policy_equals_a_run_per_cell(
        self, workload, annotations, mode
    ):
        specs = [
            MethodSpec(Method.RICHNOTE),
            MethodSpec(Method.FIFO, 2),
            MethodSpec(Method.UTIL, 3),
        ]
        base = ExperimentConfig(seed=1, network_mode=mode)
        users = workload.top_users(4)
        budgets = (20.0, 1.0, 100.0, 5.0)
        grid = sweep_budgets(workload, specs, budgets, base, annotations, users)
        for spec in specs:
            for budget in budgets:
                cell = grid[(spec.label, budget)]
                alone = run_experiment(
                    workload, spec, base.with_budget(budget), annotations, users
                )
                assert cell.config == alone.config
                assert cell.per_user == alone.per_user
                assert cell.aggregate == alone.aggregate

    def test_more_budget_never_hurts_baseline_delivery(self, workload, annotations):
        specs = [MethodSpec(Method.UTIL, 3)]
        users = workload.top_users(3)
        grid = sweep_budgets(
            workload, specs, (1.0, 50.0), ExperimentConfig(seed=1),
            annotations, users,
        )
        assert (
            grid[("UTIL-L3", 50.0)].aggregate.delivery_ratio
            >= grid[("UTIL-L3", 1.0)].aggregate.delivery_ratio
        )
