"""The paper's evaluation claims (Section V, Fig. 2-5) as tier-1 tests.

Every claim that replays a policy runs on one world: the calibrated
preset below (one simulated week -- the paper's trace span), one trained
content-utility annotation shared by every (method, budget) cell, as a
deployed model would score items, and the busiest users of the trace,
the paper's "top users" focus.  Re-running the claims at another preset
or population means changing the two names below.

``pytest tests/claims -s`` prints every claim's table (EXPERIMENTS.md).
"""

from dataclasses import dataclass

import pytest

from repro.experiments.runner import UtilityAnnotations
from repro.experiments.workloads import eval_workload
from repro.trace.generator import Workload

PRESET = "medium"
TOP_USERS = 25


@dataclass(frozen=True)
class ClaimWorld:
    workload: Workload
    annotations: UtilityAnnotations
    users: list[int]


@pytest.fixture(scope="session")
def world() -> ClaimWorld:
    workload = eval_workload(PRESET)
    return ClaimWorld(
        workload=workload,
        annotations=UtilityAnnotations.train(workload, seed=97),
        users=workload.top_users(TOP_USERS),
    )
