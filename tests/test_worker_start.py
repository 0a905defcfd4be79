"""What a fresh pool worker imports to run the paper grid.

A worker forks or spawns with only what its parent had loaded, so every
module its first task imports is paid once per worker, in every sweep.
``numpy.ma`` is one NumPy imports lazily (on first touch of ``np.ma``,
such as the first ``np.unique`` in a process) at ~10 ms: the shard store's
open check used to pay it in every worker.  This runs one worker's tasks
-- open the store, run both paper-grid passes through ``_run_range`` -- in
a fresh interpreter and checks that ``numpy.ma`` was never imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import write_shard_store

SRC = Path(__file__).resolve().parents[1] / "src"

WORKER = """
import json, sys
import numpy
eager = "numpy.ma" in sys.modules
from repro.experiments import pool
from repro.experiments.config import ExperimentConfig, PAPER_BUDGET_SWEEP_MB
from repro.experiments.figures import paper_method_specs
from repro.experiments.runner import spec_passes

store, users, duration = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
pool._init_worker(store, None, duration)
delivered = []
for specs in spec_passes(paper_method_specs()):
    cells = tuple((spec, budget) for spec in specs for budget in PAPER_BUDGET_SWEEP_MB)
    outcomes = pool._run_range(cells, ExperimentConfig(seed=23), 0, users, True)
    delivered.append(sum(o.metrics.delivered_notifications for cell in outcomes for o in cell))
print(json.dumps({"eager": eager, "ma": "numpy.ma" in sys.modules, "delivered": delivered}))
"""


def _run_worker(store: Path, users: int, duration: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", WORKER, str(store), str(users), str(duration)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_a_worker_running_the_paper_grid_never_imports_numpy_ma(tmp_path):
    trace = TraceConfig(seed=23)
    pairs = [(u, r) for u, r in iter_users(6, trace) if r]
    write_shard_store(tmp_path / "store", pairs)
    seen = _run_worker(tmp_path / "store", len(pairs), trace.duration_hours * 3600.0)
    # Both passes (RichNote; the stacked FIFO/UTIL cells) really ran.
    assert len(seen["delivered"]) == 2 and min(seen["delivered"]) > 0
    if seen["eager"]:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert not seen["ma"]
