"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/harness/run.py --workload cohort-push --seed 97
    python3 benchmarks/harness/run.py --all --seed 97 --out A.json
    python3 benchmarks/harness/run.py --workload paper-sweep --trace 1

For each workload this process generates the inputs from ``--seed``
(several times over, reporting the median as ``setup_s``), then measures
in a fresh child interpreter (measure.py), checks the outputs, prints a
table and ends with one JSON line::

    {"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics declared in
BENCHMARK.json, ``--trace 1`` the per-layer ones.  All time metrics are
in reference seconds (calibrate.py); the raw seconds are in the table.
Everything is written under ``.bench_work/`` in the checkout and removed
again.  README.md has the metric dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCHEMA = "richnote-benchmark/1"
GOLDEN_PATH = HERE / "golden.json"
#: The child must finish well inside the driver's 180 s per-run limit.
CHILD_TIMEOUT_S = 170
# The harness's own modules and the program under test, for this process
# and (through PYTHONPATH) the measuring child.
IMPORT_PATH = [str(HERE), str(ROOT / "src")]
sys.path[:0] = [entry for entry in IMPORT_PATH if entry not in sys.path]


def summarise(samples: list[float], unit: str) -> dict:
    quartiles = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    )
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": samples,
        "quartiles": quartiles,
    }


def set_up(workload, work_dir: Path, seed: int, scale: str, times: int):
    """Generate the inputs ``times`` times; keeps the last copy on disk."""
    from calibrate import StageClock

    clocks = []
    directory = work_dir / "inputs"
    for _ in range(times):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        clock = StageClock()
        manifest = workload.setup(directory, seed, scale, clock)
        clocks.append(clock)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return directory, clocks


def golden_verdict(golden, scale, seed, name, digest, fingerprint):
    """``(note, ok)`` for the pinned-output check of the default seed."""
    if seed != golden["seed"]:
        return "not pinned for this seed; invariants only", True
    if golden["numeric_fingerprint"] != fingerprint:
        return "skipped: float implementation differs from the recording host", True
    expected = golden["digests"].get(scale, {}).get(name)
    if expected is None:
        return "no golden recorded; run --update-golden", False
    if expected != digest:
        return f"MISMATCH: expected {expected[:12]}, got {digest[:12]}", False
    return "match", True


def per_layer_metrics(declaration: dict, layers: dict, missing) -> dict:
    """Every declared per-layer metric: measured, 0 where the layer did no
    work on this workload, ``None`` where its wrap target no longer exists."""
    metrics = {}
    gone = {f"{span}{suffix}" for span in missing for suffix in ("_s", "_calls", "_us")}
    for entry in declaration["per_layer"]:
        value = None if entry["name"] in gone else layers.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def run_workload(name: str, args, declaration: dict) -> dict:
    from calibrate import numeric_fingerprint
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        directory, clocks = set_up(
            workload, work_dir, args.seed, args.scale, args.setups
        )
        result_path = work_dir / "result.json"
        command = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", name, "--dir", str(directory),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", str(result_path),
        ]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            IMPORT_PATH + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        subprocess.run(
            command, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env
        )
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    problems = list(result["problems"])
    golden = json.loads(GOLDEN_PATH.read_text())
    fingerprint = numeric_fingerprint()
    if args.update_golden:
        golden["numeric_fingerprint"] = fingerprint
        golden["digests"].setdefault(args.scale, {})[name] = result["digest"]
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        note = "updated"
    else:
        note, ok = golden_verdict(
            golden, args.scale, args.seed, name, result["digest"], fingerprint
        )
        if not ok:
            problems.append(f"golden: {note}")

    samples = result["samples"]
    samples["setup_s"] = [clock.reference_s for clock in clocks]
    metrics = {
        entry["name"]: summarise(samples[entry["name"]], entry["unit"])
        for entry in declaration["end_to_end"]
    }
    if args.trace:
        layers = result["layers"]
        per_setup = [
            {stage: s / clock.speed for stage, s in clock.stage_totals_s().items()}
            for clock in clocks
        ]
        for stage in per_setup[0]:
            layers[f"{stage}_s"] = statistics.median(row[stage] for row in per_setup)
        metrics.update(per_layer_metrics(declaration, layers, result["missing"]))
    else:
        for extra, unit in (("wall_raw_s", "s"), ("calibration_slice_ms", "ms")):
            metrics[extra] = summarise(samples[extra], unit)
    return {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "golden": note,
        "digest": result["digest"],
        "repeats": result["repeats"],
        "metrics": metrics,
    }


def print_table(name: str, outcome: dict) -> None:
    print(f"== {name}: {'ok' if outcome['correct'] else 'FAILED'} "
          f"(attempted {outcome['attempted']}, failed {outcome['failed']}, "
          f"{outcome['repeats']} repeats, golden: {outcome['golden']})")
    for problem in outcome["problems"]:
        print(f"   problem: {problem}")
    for metric, entry in outcome["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        spread = ""
        if len(entry.get("samples", ())) > 1 and value:
            q1, _, q3 = entry["quartiles"]
            spread = f"   (n={len(entry['samples'])}, iqr {100 * (q3 - q1) / value:.1f} %)"
        print(f"   {metric:<48} {shown:>14} {entry['unit']}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of timed repeats instead of --seconds")
    parser.add_argument("--setups", type=int, default=3,
                        help="times the inputs are generated (median = setup_s)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the result envelope to this file")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT}/src/repro", file=sys.stderr)
        return 2
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    from calibrate import host_meta
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    declared = [w["name"] for w in declaration["workloads"]]
    names = declared if args.all else [args.workload]
    for name in names:
        if name not in WORKLOADS or name not in declared:
            parser.error(f"unknown workload {name!r}; choose from {declared}")
    if args.update_golden and args.seed != json.loads(GOLDEN_PATH.read_text())["seed"]:
        parser.error("--update-golden records the default seed only")

    outcomes = {name: run_workload(name, args, declaration) for name in names}
    for name, outcome in outcomes.items():
        print_table(name, outcome)

    slices = [
        s
        for outcome in outcomes.values()
        for s in outcome["metrics"].get("calibration_slice_ms", {}).get("samples", [])
    ]
    envelope = {
        "schema": SCHEMA,
        "meta": {
            "host": host_meta(),
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "seconds": args.seconds,
            "setups": args.setups,
            "repeats": {name: o["repeats"] for name, o in outcomes.items()},
            "calibration_s": statistics.median(slices) / 1e3 if slices else None,
        },
        "workloads": outcomes,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(envelope, indent=2) + "\n")

    declared_names = {
        e["name"] for e in declaration["per_layer" if args.trace else "end_to_end"]
    }
    single = len(names) == 1
    line = {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {
            (metric if single else f"{name}/{metric}"): {
                "value": entry["value"], "unit": entry["unit"],
            }
            for name, outcome in outcomes.items()
            for metric, entry in outcome["metrics"].items()
            if metric in declared_names
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
