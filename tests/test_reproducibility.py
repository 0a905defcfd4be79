"""Determinism tests: identical seeds must produce identical results.

Reproducibility is a first-class requirement for a paper-reproduction
repository: every stochastic component (catalog, graph, interactions,
connectivity, battery, classifier) draws from explicitly seeded streams,
so whole experiments must be bit-identical across runs.
"""

import ast
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.runner import UtilityAnnotations, run_experiment
from repro.experiments.workloads import eval_workload, workload_spec
from repro.trace.generator import build_workload
from repro.trace.io import read_trace, write_trace


class TestWorkloadDeterminism:
    def test_same_spec_same_records(self):
        spec = workload_spec("small", seed=41)
        a = build_workload(spec)
        b = build_workload(spec)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    def test_different_seed_differs(self):
        a = build_workload(workload_spec("small", seed=41))
        b = build_workload(workload_spec("small", seed=42))
        assert [r.to_dict() for r in a.records] != [r.to_dict() for r in b.records]

    def test_serialization_preserves_everything(self, tmp_path):
        workload = build_workload(workload_spec("small", seed=41))
        path = tmp_path / "trace.jsonl.gz"  # exercises the gzip path
        write_trace(path, workload.records)
        assert read_trace(path) == workload.records


class TestExperimentDeterminism:
    @pytest.mark.parametrize(
        "network_mode", [NetworkMode.CELL_ONLY, NetworkMode.MARKOV]
    )
    def test_same_config_same_results(self, network_mode):
        workload = eval_workload("small")
        annotations = UtilityAnnotations.train(workload, seed=9)
        config = ExperimentConfig(
            weekly_budget_mb=5.0, network_mode=network_mode, seed=9
        )
        users = workload.top_users(4)
        first = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations, users
        )
        second = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations, users
        )
        assert first.aggregate.row() == second.aggregate.row()
        assert first.aggregate.level_mix == second.aggregate.level_mix

    def test_classifier_training_deterministic(self):
        workload = eval_workload("small")
        a = UtilityAnnotations.train(workload, seed=9)
        b = UtilityAnnotations.train(workload, seed=9)
        assert a.scores == b.scores

    def test_classifier_seed_changes_scores(self):
        workload = eval_workload("small")
        a = UtilityAnnotations.train(workload, seed=9)
        b = UtilityAnnotations.train(workload, seed=10)
        assert a.scores != b.scores


class TestLyapunovDiagnostics:
    def test_history_recorded_and_bounded(self):
        """L(t) stays bounded under sustained arrivals (queue stability)."""
        from repro.core.budgets import DataBudget, EnergyBudget
        from repro.core.content import ContentItem, ContentKind
        from repro.core.presentations import build_audio_ladder
        from repro.runtime import RoundLoop, registry
        from repro.sim.battery import BatterySample, BatteryTrace
        from repro.sim.device import MobileDevice
        from repro.sim.network import CellularOnlyNetwork

        ladder = build_audio_ladder()
        device = MobileDevice(
            user_id=1,
            network=CellularOnlyNetwork(),
            battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
        )
        scheduler = RoundLoop(
            device=device,
            data_budget=DataBudget(theta_bytes=50_000.0),
            energy_budget=EnergyBudget(kappa_joules=3000.0),
            policy=registry.create("richnote"),
        )
        for round_index in range(1, 50):
            now = round_index * 3600.0
            for offset in range(3):
                scheduler.enqueue(
                    ContentItem(
                        item_id=round_index * 10 + offset,
                        user_id=1,
                        kind=ContentKind.FRIEND_FEED,
                        created_at=now - 1.0,
                        ladder=ladder,
                        content_utility=0.5,
                    )
                )
            scheduler.run_round(now, 3600.0)
        history = scheduler.policy.lyapunov_history
        assert len(history) == 49
        # Stability: the tail is no worse than the warm-up peak.
        assert max(history[10:]) <= max(history[:10]) + 1e-9


class TestHostClock:
    def test_only_the_service_clock_reads_host_time(self):
        """Speed numbers come from ``benchmarks/harness``; inside
        ``src/repro`` the one host-clock read is ``MonotonicClock.now()``,
        so no run's output can depend on how fast the host is."""
        banned = {"perf_counter", "monotonic", "time", "process_time"}
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.relative_to(src).as_posix() == "service/clock.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            modules = {
                alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "time"
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "time":
                    names = [a.name for a in node.names if a.name in banned]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in modules
                ):
                    names = [node.func.attr] if node.func.attr in banned else []
                else:
                    continue
                offenders += [f"{path}:{node.lineno} time.{name}" for name in names]
        assert offenders == []

    def test_service_deadlines_go_through_the_clock(self):
        """``asyncio.wait_for`` / ``asyncio.timeout`` / ``wait(timeout=)`` /
        ``loop.call_later`` / ``loop.call_at`` read the event loop's real
        clock: on simulated time they hang or lie.  ``Clock.timeout`` (in
        ``service/clock.py``) is the one place a loop timer is armed."""
        banned = {"wait_for", "timeout", "timeout_at"}
        service = Path(__file__).resolve().parent.parent / "src" / "repro" / "service"
        offenders = []
        for path in sorted(service.rglob("*.py")):
            if path.name == "clock.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "asyncio":
                    names = [a.name for a in node.names if a.name in banned]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    name, owner = node.func.attr, node.func.value
                    on_asyncio = isinstance(owner, ast.Name) and owner.id == "asyncio"
                    timed_wait = name == "wait" and any(
                        keyword.arg == "timeout" for keyword in node.keywords
                    )
                    hit = (
                        name in ("call_later", "call_at")
                        or on_asyncio and (name in banned or timed_wait)
                    )
                    names = [name] if hit else []
                else:
                    continue
                offenders += [f"{path}:{node.lineno} {name}" for name in names]
        assert offenders == []
