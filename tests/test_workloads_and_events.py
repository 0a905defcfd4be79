"""Tests for evaluation-workload presets."""

import pytest

from repro.experiments.workloads import eval_workload, workload_spec


class TestWorkloadPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            workload_spec("gigantic")

    def test_spec_users_consistent(self):
        for preset in ("small", "medium", "large"):
            spec = workload_spec(preset)
            assert spec.catalog.n_users == spec.graph.n_users

    def test_small_calibration(self):
        """Per-user volume in the regime the budget sweep needs."""
        workload = eval_workload("small")
        counts = [
            len(workload.records_for_user(u)) for u in workload.top_users(10)
        ]
        assert 20 <= min(counts)
        assert max(counts) <= 400

    def test_memoization_returns_same_object(self):
        assert eval_workload("small") is eval_workload("small")

    def test_seed_changes_workload(self):
        a = eval_workload("small", seed=23)
        b = eval_workload("small", seed=99)
        assert len(a.records) != len(b.records) or (
            a.records[0].to_dict() != b.records[0].to_dict()
        )
