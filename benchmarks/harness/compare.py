"""Compare two result envelopes of run.py under the benchmark's own bounds.

    python3 benchmarks/harness/compare.py A.json B.json

``A`` is the parent (or the first of two runs of the same code -- the A/A
check), ``B`` the change.  One row per (workload, end-to-end metric), with
the direction and bound taken from BENCHMARK.json:

* ``REGRESSION`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the repeats inside either run spread (IQR / median)
  wider than the bound, so the pair cannot tell; not reported as
  unchanged, unless every sample of B beats every sample of A;
* ``ok`` / ``better`` otherwise.

Exits 1 on a regression, on an incorrect run, or when B fails a larger
share of what it attempted than A.  Two envelopes are one pair: a gain
needs ten alternating pairs (see README.md), this only gates a loss.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def relative_spread(entry: dict) -> float:
    q1, _, q3 = entry["quartiles"]
    return abs(q3 - q1) / abs(entry["value"]) if entry["value"] else 0.0


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)`` with ``worse_by`` a share of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) + 0.0  # no -0.0
    if max(relative_spread(a), relative_spread(b)) > bound:
        if better == "lower":
            clear_win = max(b["samples"]) < min(a["samples"])
        else:
            clear_win = min(b["samples"]) > max(a["samples"])
        return ("better" if clear_win else "unresolved"), worse_by
    if worse_by > bound:
        return "REGRESSION", worse_by
    return ("better" if worse_by < -bound else "ok"), worse_by


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = False
    print(f"{'workload':<22} {'metric':<24} {'A':>12} {'B':>12} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for workload in declaration["workloads"]:
        name = workload["name"]
        a_run = a_doc["workloads"].get(name)
        b_run = b_doc["workloads"].get(name)
        if a_run is None or b_run is None:
            continue
        if not b_run["correct"]:
            print(f"{name:<22} output check FAILED in B: {b_run['problems']}")
            bad = True
        a_share = a_run["failed"] / a_run["attempted"]
        b_share = b_run["failed"] / b_run["attempted"]
        if b_share > a_share:
            print(f"{name:<22} failed share rose {a_share:.4f} -> {b_share:.4f}")
            bad = True
        for metric in declaration["end_to_end"]:
            a = a_run["metrics"].get(metric["name"])
            b = b_run["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            verdict, worse_by = judge(a, b, metric["better"], metric["bound"])
            bad = bad or verdict == "REGRESSION"
            print(f"{name:<22} {metric['name']:<24} {a['value']:>12.5g} "
                  f"{b['value']:>12.5g} {100 * worse_by:>8.1f}% "
                  f"{100 * metric['bound']:>5.0f}%  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
