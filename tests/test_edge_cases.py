"""Focused edge-case tests across modules (determinism, caps, ties)."""

import pytest

from repro.core.mckp import MckpInstance, MckpItem, select_presentations
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.runner import (
    UtilityAnnotations,
    run_experiment,
    sweep_budgets,
)
from repro.experiments.workloads import eval_workload


@pytest.fixture(scope="module")
def workload():
    return eval_workload("small")


class TestMckpTieBreaking:
    def test_equal_gradients_resolve_deterministically(self):
        """Ties break by item key: same instance -> same solution, always."""
        items = tuple(
            MckpItem(key=key, sizes=(0, 10), profits=(0.0, 1.0))
            for key in (5, 3, 9, 1)
        )
        instance = MckpInstance(items=items, budget=20)  # room for 2 of 4
        first = select_presentations(instance)
        second = select_presentations(instance)
        assert first.levels == second.levels
        chosen = sorted(first.selected_keys())
        assert chosen == [1, 3]  # smallest keys win ties

    def test_zero_size_budget_boundary(self):
        item = MckpItem(key=0, sizes=(0, 10), profits=(0.0, 1.0))
        exact = select_presentations(MckpInstance(items=(item,), budget=10))
        assert exact.levels[0] == 1  # fits exactly


class TestAnnotationsTrainingCap:
    def test_cap_smaller_than_data_still_scores_everything(self, workload):
        annotations = UtilityAnnotations.train(
            workload, seed=1, max_training_samples=200
        )
        assert len(annotations.scores) == len(workload.records)

    def test_scores_depend_on_training_subsample(self, workload):
        small = UtilityAnnotations.train(workload, seed=1, max_training_samples=200)
        large = UtilityAnnotations.train(workload, seed=1, max_training_samples=5000)
        assert small.scores != large.scores


class TestRunnerConveniences:
    def test_run_experiment_trains_when_annotations_missing(self, workload):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=1)
        result = run_experiment(
            workload,
            MethodSpec(Method.RICHNOTE),
            config,
            annotations=None,
            user_ids=workload.top_users(2),
        )
        assert result.aggregate.users == 2

    def test_mean_backlog_property(self, workload):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=1)
        result = run_experiment(
            workload,
            MethodSpec(Method.RICHNOTE),
            config,
            user_ids=workload.top_users(2),
        )
        assert result.mean_backlog_bytes >= 0.0
        assert result.spec.label == "RichNote"

    def test_sweep_without_annotations(self, workload):
        grid = sweep_budgets(
            workload,
            [MethodSpec(Method.UTIL, 2)],
            (5.0,),
            ExperimentConfig(seed=1),
            annotations=None,
            user_ids=workload.top_users(2),
        )
        assert ("UTIL-L2", 5.0) in grid


class TestSystemDeterminism:
    def test_same_seeds_same_report(self):
        from repro.experiments.system import SystemConfig, SystemSimulation
        from repro.trace.entities import CatalogConfig, generate_catalog
        from repro.trace.generator import TraceConfig
        from repro.trace.socialgraph import SocialGraphConfig, generate_social_graph

        catalog = generate_catalog(
            CatalogConfig(n_users=10, n_artists=8, n_playlists=4, seed=3)
        )
        graph = generate_social_graph(SocialGraphConfig(n_users=10, seed=4))
        trace_config = TraceConfig(duration_hours=12.0, seed=8)

        def run():
            simulation = SystemSimulation(
                catalog,
                graph,
                trace_config,
                SystemConfig(
                    experiment=ExperimentConfig(weekly_budget_mb=10.0, seed=8)
                ),
            )
            report = simulation.run()
            return (
                report.publications,
                len(report.records),
                len(report.deliveries),
                sum(d.utility for d in report.deliveries),
            )

        assert run() == run()
