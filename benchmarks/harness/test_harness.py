"""Self-test of the benchmark harness at smoke sizes (not a tier-1 test).

    PYTHONPATH=src python -m pytest benchmarks/harness/test_harness.py -q

Checks the contract, not the speed: every declared metric is emitted
under a well-formed name, traced runs leave the program unwrapped,
a vanished wrap target reads ``null``, exact metrics repeat exactly, and
the traced run attributes its time.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run as harness_run  # noqa: E402  (also puts the program on sys.path)
from measure import DETERMINISTIC  # noqa: E402
from spans import Recorder, resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_all(tmp_path: Path, trace: int) -> tuple[dict, dict]:
    """``run.py --all`` at smoke size -> (envelope, last stdout line)."""
    out = tmp_path / f"envelope-{trace}.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--all", "--scale", "smoke",
            "--seed", "97", "--trace", str(trace), "--repeats", "2",
            "--setups", "1", "--out", str(out),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text()), json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("untraced"), trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("traced"), trace=1)


def test_declaration_is_well_formed():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARATION[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {w["name"] for w in DECLARATION["workloads"]} == set(WORKLOADS)
    assert "setup_s" in {e["name"] for e in DECLARATION["end_to_end"]}


def test_every_end_to_end_metric_is_emitted(untraced):
    envelope, line = untraced
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for name, outcome in envelope["workloads"].items():
        assert outcome["correct"], outcome["problems"]
        assert outcome["golden"] == "match" or outcome["golden"].startswith("skipped")
        for entry in DECLARATION["end_to_end"]:
            metric = outcome["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] > 0, (name, entry["name"])
            assert f"{name}/{entry['name']}" in line["metrics"]
    host = envelope["meta"]["host"]
    assert host["nproc"] and host["python"] and host["numpy"]
    assert envelope["meta"]["calibration_s"] > 0


def test_every_per_layer_metric_is_emitted(traced):
    envelope, line = traced
    assert line["correct"]
    busy = set()
    for name, outcome in envelope["workloads"].items():
        assert outcome["correct"], outcome["problems"]
        for entry in DECLARATION["per_layer"]:
            metric = outcome["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] is not None, (name, entry["name"])
            if metric["value"]:
                busy.add(entry["name"])
        assert outcome["metrics"]["unattributed_ratio"]["value"] <= 0.05
    # Some workload exercises every declared layer (bar the two counters
    # that are legitimately zero on default traffic).
    idle = {e["name"] for e in DECLARATION["per_layer"]} - busy
    assert idle <= {
        "runtime.columnar.merge_cache_hit_ratio",
        "runtime.kernels.greedy_select_hull_s",
        "runtime.kernels.greedy_select_hull_calls",
    }, idle


def test_exact_metrics_repeat_across_runs(untraced, traced):
    for name in WORKLOADS:
        first = untraced[0]["workloads"][name]
        second = traced[0]["workloads"][name]
        assert first["digest"] == second["digest"]
        for metric in DETERMINISTIC:
            assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
            assert len(set(first["metrics"][metric]["samples"])) == 1


def test_wraps_are_restored_and_missing_targets_read_null():
    targets = [w for workload in WORKLOADS.values() for w in workload.wraps]
    before = {(owner, attr): getattr(resolve(owner), attr) for owner, attr, _ in targets}
    recorder = Recorder()
    try:
        for owner, attr, name in targets:
            assert recorder.wrap(owner, attr, name), (owner, attr)
        assert not recorder.wrap(
            "repro.runtime.kernels", "no_such_kernel", "runtime.kernels.no_such_kernel"
        )
        assert not recorder.wrap("repro.no_such_module", "f", "no_such_module.f")
        wrapped = {key: getattr(resolve(key[0]), key[1]) for key in before}
        assert all(wrapped[key] is not before[key] for key in before)
    finally:
        recorder.restore()
    after = {key: getattr(resolve(key[0]), key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)
    assert recorder.missing == {"runtime.kernels.no_such_kernel", "no_such_module.f"}

    metrics = harness_run.per_layer_metrics(
        DECLARATION,
        {"runtime.kernels.greedy_select_s": 1.0},
        missing=["runtime.kernels.greedy_select"],
    )
    assert metrics["runtime.kernels.greedy_select_s"]["value"] is None
    assert metrics["runtime.kernels.greedy_select_calls"]["value"] is None
    assert metrics["runtime.kernels.greedy_select_hull_s"]["value"] == 0.0


def test_spans_nest_and_self_time_excludes_children():
    recorder = Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    totals = recorder.totals()
    assert totals["inner"].calls == 2 and totals["outer"].calls == 1
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].total_s - totals["inner"].total_s
    )
    assert recorder.top_level_s() == pytest.approx(totals["outer"].total_s)


def test_compare_flags_a_regression(untraced, tmp_path):
    envelope = untraced[0]
    slower = json.loads(json.dumps(envelope))
    metric = slower["workloads"]["cohort-push"]["metrics"]["peak_rss_mb"]
    metric["value"] *= 2
    metric["samples"] = [s * 2 for s in metric["samples"]]
    metric["quartiles"] = [q * 2 for q in metric["quartiles"]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(envelope))
    b.write_text(json.dumps(slower))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run([*compare, str(a), str(a)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    worse = subprocess.run([*compare, str(a), str(b)], capture_output=True, text=True)
    assert worse.returncode == 1 and "REGRESSION" in worse.stdout
