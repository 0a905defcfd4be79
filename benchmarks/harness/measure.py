"""The measured child process: warm up, repeat, check, (optionally) trace.

``run.py`` sets the inputs up on disk and then starts this file in a
fresh interpreter (with the program on ``PYTHONPATH``), so ``peak_rss_mb`` is the measured section's memory
and not the generator's.  The result goes to ``--result`` as JSON.

A run is: one untimed warm-up at a tenth of the size; then timed repeats
of the whole measured section until ``--seconds`` of measuring are spent
(at least :data:`MIN_REPEATS`), ``gc.collect()`` between repeats and the
collector left on during them.  Every repeat does identical work and
must produce the identical output digest.  Timing metrics are the median
over repeats, in reference seconds (see calibrate.py).

With ``--trace 1`` a third of the time goes to untraced repeats (the
baseline of ``trace_overhead_ratio``) and the rest to repeats with the
workload's wrappers installed; the extra traced-only passes follow.
Wrappers are removed in ``finally``; an untraced run never installs any.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import StageClock
from spans import Recorder

MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
DETERMINISTIC = (
    "utility_per_mb",
    "joules_per_user_round",
    "latency_p50_s",
    "latency_p99_s",
    "goodput_ratio",
)


class Pass(NamedTuple):
    """One timed repeat: its clock, its checked outputs, its spans."""

    clock: StageClock
    checked: object
    totals: dict | None
    top_level_s: float


def run_passes(workload, directory, manifest, budget_s, min_repeats,
               fixed_repeats=None, recorder=None, deep_first=False):
    """Timed repeats of the measured section, each checked, as :class:`Pass`."""
    passes = []
    spent = 0.0
    while True:
        done = len(passes)
        if fixed_repeats is not None:
            if done >= fixed_repeats:
                break
        elif done >= min_repeats and spent + 0.5 * spent / done >= budget_s:
            break
        gc.collect()
        if recorder is not None:
            recorder.clear()
        clock = StageClock(recorder)
        start = time.perf_counter()
        outputs = workload.body(directory, manifest, clock)
        spent += time.perf_counter() - start
        checked = workload.check(outputs, manifest, deep=deep_first and not passes)
        del outputs
        totals = recorder.totals() if recorder is not None else None
        top = recorder.top_level_s() if recorder is not None else 0.0
        passes.append(Pass(clock, checked, totals, top))
    return passes


def stable(passes, problems) -> None:
    """Every repeat did identical work: same digest, same exact metrics."""
    first = passes[0].checked
    for later in passes[1:]:
        if later.checked.digest != first.digest or later.checked.values != first.values:
            problems.append("outputs differ between repeats of identical work")
            return


def end_to_end(passes) -> dict:
    work = passes[0].checked.work
    wall = [p.clock.reference_s for p in passes]
    samples = {
        "wall_s": wall,
        "users_per_s_per_core": [work["users"] / w / work["cores"] for w in wall],
        "notif_per_s": [work["notifications"] / w for w in wall],
        "wall_raw_s": [p.clock.raw_s for p in passes],
        "calibration_slice_ms": [p.clock.slice_mean_s * 1e3 for p in passes],
    }
    for name in DETERMINISTIC:
        samples[name] = [p.checked.values[name] for p in passes]
    samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ]
    return samples


def layer_table(passes, untraced_wall_s) -> dict:
    """Per-layer numbers of the traced repeats (medians over repeats)."""
    per_pass: list[dict] = []
    for clock, _, totals, top in passes:
        speed = clock.speed
        row = {}
        for name, entry in totals.items():
            row[f"{name}_s"] = entry.total_s / speed
            row[f"{name}_self_s"] = entry.self_s / speed
            row[f"{name}_calls"] = entry.calls
        row["unattributed_s"] = (clock.raw_s - top) / speed
        row["unattributed_ratio"] = (clock.raw_s - top) / clock.raw_s
        row["wall_s"] = clock.reference_s
        row["wall_raw_s"] = clock.raw_s
        row["calibration_slice_ms"] = clock.slice_mean_s * 1e3
        per_pass.append(row)
    keys = set().union(*per_pass)
    layers = {
        key: statistics.median(row.get(key, 0.0) for row in per_pass)
        for key in keys
    }
    layers["trace_overhead_ratio"] = layers["wall_s"] / untraced_wall_s - 1.0
    for key in [k for k in layers if k.endswith("_calls")]:
        stem = key[: -len("_calls")]
        if layers[key]:
            layers[f"{stem}_us"] = layers[f"{stem}_s"] / layers[key] * 1e6
    # Names the metric dictionary uses for self times and rates.
    layers["runtime.columnar.self_s"] = layers.get("runtime.columnar.run_self_s", 0.0)
    layers["service.clock.self_s"] = layers.get("service.harness.run_demo_self_s", 0.0)
    work = passes[0].checked.work
    read_s = layers.get("trace.io.read_s")
    if read_s:
        layers["trace.io.read_records_per_s"] = work["notifications"] / read_s
    fold_s = layers.get("experiments.columnar.fold_outcomes_s")
    if fold_s:
        layers["experiments.columnar.fold_deliveries_per_s"] = (
            work["deliveries"] / fold_s
        )
    layers.update(passes[0].checked.layer_counts)
    return layers


def measure(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    directory = Path(args.dir)
    manifest = json.loads((directory / "manifest.json").read_text())
    problems: list[str] = []

    workload.body(directory, manifest, StageClock(), fraction=0.1)

    traced = bool(args.trace)
    budget = args.seconds / 3.0 if traced else args.seconds
    passes = run_passes(
        workload, directory, manifest, budget,
        MIN_TRACED_REPEATS if traced else MIN_REPEATS,
        fixed_repeats=args.repeats, deep_first=True,
    )
    stable(passes, problems)
    checked = passes[0].checked
    problems.extend(checked.problems)
    samples = end_to_end(passes)
    result = {
        "digest": checked.digest,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "repeats": len(passes),
        "samples": samples,
        "layers": None,
        "missing": [],
    }
    if not traced:
        result["problems"] = problems
        return result

    untraced_wall_s = statistics.median(samples["wall_s"])
    recorder = Recorder()
    try:
        for owner, attr, name in workload.wraps:
            recorder.wrap(owner, attr, name)
        traced_passes = run_passes(
            workload, directory, manifest, args.seconds - budget,
            MIN_TRACED_REPEATS, fixed_repeats=args.repeats, recorder=recorder,
        )
    finally:
        recorder.restore()
    stable([passes[0], *traced_passes], problems)
    layers = layer_table(traced_passes, untraced_wall_s)
    if layers["unattributed_ratio"] > 0.05:
        problems.append(
            f"unattributed_ratio {layers['unattributed_ratio']:.3f} > 0.05"
        )
    context = {
        "checked": checked,
        "layers": layers,
        "untraced_wall_s": untraced_wall_s,
        "problems": problems,
        "missing": set(recorder.missing),
    }
    layers.update(workload.extras(directory, manifest, context))
    result["layers"] = layers
    result["missing"] = sorted(context["missing"])
    result["traced_repeats"] = len(traced_passes)
    result["problems"] = problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = measure(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
