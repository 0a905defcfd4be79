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


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Host-clock reads; inside ``src/repro`` only ``service/clock.py`` makes one.
HOST_CLOCK = {
    *(f"time.{name}{ns}" for name in ("perf_counter", "monotonic", "time", "process_time")
      for ns in ("", "_ns")),
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}
#: RNG constructors that must be handed a seed: without one they draw OS entropy.
SEEDED_RNG = {
    "random.Random", "numpy.random.default_rng", "numpy.random.SeedSequence",
    *(f"numpy.random.{name}" for name in ("PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64")),
}
#: ``numpy.random`` names that build an explicit stream instead of using the global one.
EXPLICIT_NUMPY_RNG = {"numpy.random.Generator", *SEEDED_RNG}
#: The top-level modules and packages of ``src/repro``, one check each.
TOP_LEVEL = sorted(
    path.name for path in SRC.iterdir()
    if path.suffix == ".py" or (path / "__init__.py").is_file()
)


def py_files(root: Path, under: str = "") -> list[Path]:
    """The modules of ``root``, or of its ``under`` file or package only."""
    scope = root / under
    return [scope] if scope.is_file() else sorted(scope.rglob("*.py"))


def resolved_calls(tree: ast.Module):
    """``(call, dotted target)`` for every call on an imported name:
    ``np.random.seed`` and ``from numpy import random as npr; npr.seed`` both
    resolve to ``numpy.random.seed``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        parts, func = [], call.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in aliases:
            yield call, ".".join([aliases[func.id], *reversed(parts)])


def host_clock_reads(root: Path) -> list[str]:
    offenders = []
    for path in py_files(root):
        rel = path.relative_to(root).as_posix()
        if rel == "service/clock.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{rel}:{node.lineno} time.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names if f"time.{alias.name}" in HOST_CLOCK
        ]
        offenders += [
            f"{rel}:{call.lineno} {target}"
            for call, target in resolved_calls(tree) if target in HOST_CLOCK
        ]
    return offenders


def rng_offenders(root: Path, under: str = "") -> list[str]:
    offenders = []
    for path in py_files(root, under):
        rel = path.relative_to(root).as_posix()
        for call, target in resolved_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if target in SEEDED_RNG:
                if not (call.args or call.keywords):
                    offenders.append(f"{rel}:{call.lineno} unseeded {target}()")
            elif target.startswith("random.") or (
                target.startswith("numpy.random.") and target not in EXPLICIT_NUMPY_RNG
            ):
                offenders.append(f"{rel}:{call.lineno} global {target}()")
    return offenders


def plant(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


class TestHostClock:
    def test_only_the_service_clock_reads_host_time(self):
        """Speed numbers come from ``benchmarks/harness``; inside
        ``src/repro`` the one host-clock read is ``MonotonicClock.now()``,
        so no run's output can depend on how fast the host is or what the
        wall clock says."""
        assert host_clock_reads(SRC) == []

    def test_check_fires_on_planted_reads(self, tmp_path):
        root = plant(tmp_path, {
            "service/clock.py": "import time\nnow = time.monotonic()\n",
            "core/a.py": "from datetime import datetime\nstamp = datetime.now()\n",
            "sim/b.py": "import time as t\nstarted = t.perf_counter()\n",
            "trace/c.py": "from time import monotonic\n",
        })
        assert host_clock_reads(root) == [
            "core/a.py:2 datetime.datetime.now",
            "sim/b.py:2 time.perf_counter",
            "trace/c.py:1 time.monotonic",
        ]

    @pytest.mark.parametrize(
        ("source", "read"),
        [
            *((f"import time\nstamp = time.{name}()", f"time.{name}") for name in (
                "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
                "time", "time_ns", "process_time", "process_time_ns",
            )),
            ("import time as t\nstamp = t.perf_counter()", "time.perf_counter"),
            ("import numpy\nfrom time import monotonic_ns", "time.monotonic_ns"),
            ("from datetime import datetime\nstamp = datetime.now()", "datetime.datetime.now"),
            ("import datetime\nstamp = datetime.datetime.utcnow()", "datetime.datetime.utcnow"),
            ("from datetime import datetime as dt\nstamp = dt.today()", "datetime.datetime.today"),
            ("from datetime import date\nstamp = date.today()", "datetime.date.today"),
            ("import datetime as dtm\nstamp = dtm.date.today()", "datetime.date.today"),
        ],
        ids=lambda value: "_".join(value.split()),
    )
    def test_each_host_clock_read_fires(self, tmp_path, source, read):
        root = plant(tmp_path, {"core/a.py": source + "\n"})
        assert host_clock_reads(root) == [f"core/a.py:2 {read}"]

    @pytest.mark.parametrize(
        ("rel", "source"),
        [
            ("service/clock.py", "import time\nfrom time import perf_counter\nnow = time.monotonic()"),
            ("core/a.py", "import time\nfrom time import sleep\ntime.sleep(0)"),
            ("core/a.py", "from datetime import datetime\nstart = datetime(2024, 1, 1)"),
            ("core/a.py", "from datetime import datetime\nstart = datetime.fromtimestamp(0)"),
            ("core/a.py", "from datetime import timedelta\nstep = timedelta(seconds=1)"),
            ("service/s.py", "def tick(clock):\n    return clock.now()"),
        ],
        ids=lambda value: "_".join(value.split()),
    )
    def test_simulated_and_fixed_times_pass(self, tmp_path, rel, source):
        assert host_clock_reads(plant(tmp_path, {rel: source + "\n"})) == []

    def test_service_deadlines_go_through_the_clock(self):
        """``asyncio.wait_for`` / ``asyncio.timeout`` / ``wait(timeout=)`` /
        ``loop.call_later`` / ``loop.call_at`` read the event loop's real
        clock: on simulated time they hang or lie.  ``Clock.timeout`` (in
        ``service/clock.py``) is the one place a loop timer is armed."""
        banned = {"wait_for", "timeout", "timeout_at"}
        service = SRC / "service"
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


class TestSeededRng:
    @pytest.mark.parametrize("under", TOP_LEVEL)
    def test_every_rng_stream_is_explicit_and_seeded(self, under):
        """Every figure regenerates from a seed: no draw from the
        interpreter-global ``random`` / legacy ``np.random`` state, whose
        order any unrelated caller can shift, and no stream seeded from OS
        entropy."""
        assert rng_offenders(SRC, under) == []

    @pytest.mark.parametrize(
        ("source", "finding"),
        [
            ("import random\nx = random.random()", "global random.random()"),
            ("import random\nrandom.shuffle(xs)", "global random.shuffle()"),
            ("import random\nx = random.choice(xs)", "global random.choice()"),
            ("import random\nrandom.seed(1)", "global random.seed()"),
            ("from random import randint\nx = randint(0, 1)", "global random.randint()"),
            ("import numpy as np\nnp.random.seed(1)", "global numpy.random.seed()"),
            ("import numpy as np\nx = np.random.rand(3)", "global numpy.random.rand()"),
            ("import numpy as np\nx = np.random.normal()", "global numpy.random.normal()"),
            ("from numpy import random as npr\nx = npr.choice(3)", "global numpy.random.choice()"),
            ("import numpy as np\nrng = np.random.RandomState(1)", "global numpy.random.RandomState()"),
            ("import random\nrng = random.Random()", "unseeded random.Random()"),
            ("from random import Random\nrng = Random()", "unseeded random.Random()"),
            ("import numpy as np\nrng = np.random.default_rng()", "unseeded numpy.random.default_rng()"),
            ("from numpy.random import default_rng\nrng = default_rng()", "unseeded numpy.random.default_rng()"),
            ("import numpy as np\nss = np.random.SeedSequence()", "unseeded numpy.random.SeedSequence()"),
            ("from numpy.random import PCG64\nbits = PCG64()", "unseeded numpy.random.PCG64()"),
        ],
        ids=lambda value: "_".join(value.split()),
    )
    def test_each_global_or_unseeded_stream_fires(self, tmp_path, source, finding):
        root = plant(tmp_path, {"sim/b.py": source + "\n"})
        assert rng_offenders(root) == [f"sim/b.py:2 {finding}"]

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrng = random.Random(7)\nrng.shuffle(xs)",
            "from random import Random\nrng = Random(seed)\nx = rng.random()",
            "import numpy as np\nrng = np.random.default_rng(seed=3)\nx = rng.normal()",
            "from numpy.random import Generator, PCG64\nrng = Generator(PCG64(1))",
            "import numpy as np\nchildren = np.random.SeedSequence(5).spawn(2)",
            "import numpy as np\ndef draw(rng: np.random.Generator):\n    return rng.integers(3)",
        ],
        ids=lambda value: "_".join(value.split()),
    )
    def test_explicit_seeded_streams_pass(self, tmp_path, source):
        assert rng_offenders(plant(tmp_path, {"sim/b.py": source + "\n"})) == []

    def test_check_fires_on_planted_streams(self, tmp_path):
        root = plant(tmp_path, {
            "core/a.py": "import random\nrandom.shuffle([])\nok = random.Random(7)\n",
            "sim/b.py": (
                "import numpy as np\nfrom random import Random\n"
                "rng = Random()\nok = np.random.default_rng(seed=3)\nnp.random.seed(1)\n"
            ),
        })
        assert rng_offenders(root) == [
            "core/a.py:2 global random.shuffle()",
            "sim/b.py:3 unseeded random.Random()",
            "sim/b.py:5 global numpy.random.seed()",
        ]
