"""Machine-speed calibration, host fingerprint and the stage clock.

The sandboxes this benchmark runs in change speed under it: identical
work takes 1.5 s in one minute and 2.8 s in the next (a noisy host, not
the program).  A raw wall-clock metric therefore spreads 15-30 % between
runs of the *same* code, which is wider than any regression bound worth
having.  So every timed section is bracketed by *calibration slices* --
one fixed, harness-owned kernel of ~20 ms (small-object churn, a sort, a
dict, a few numpy passes; the same mix of work the program does) -- and
times are reported in **reference seconds**::

    reference_s = raw_s * REFERENCE_SLICE_S / mean(slice seconds around it)

i.e. the time the section would take on a machine that runs the slice
in exactly :data:`REFERENCE_SLICE_S`.  Slices sit *between* calls into
the program, never inside them, and their own time is excluded.  Raw
seconds and the mean slice time are always reported next to the
reference value, so nothing is hidden.

The kernel is frozen: editing :func:`slice_s` breaks comparability with
every earlier result, so bump :data:`CALIBRATION_VERSION` if you must.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import sys
import time

import numpy as np

CALIBRATION_VERSION = 1

#: Slice time of the reference machine (this repo's sandbox at full
#: speed).  Only a scale factor: it makes reference seconds read like
#: seconds here.
REFERENCE_SLICE_S = 0.020

_SLICE_ARRAY = np.linspace(0.0, 1.0, 50_000)


class _Cell:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: float, d: bool) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.d = d


def slice_s() -> float:
    """Run the fixed calibration kernel once; returns its wall seconds.

    The collector is off for the duration (the kernel makes no cycles):
    a collection triggered by the slice's allocations would walk the
    *workload's* heap and charge that to the machine's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _slice_kernel()
    finally:
        if collecting:
            gc.enable()


def _slice_kernel() -> float:
    start = time.perf_counter()
    x = 12345
    cells = []
    for i in range(25_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cells.append(_Cell(i, x, x * 1e-9, (x & 255) == 0))
    cells.sort(key=lambda cell: cell.b)
    lookup = {cell.a: cell.c for cell in cells}
    total = 0.0
    for cell in cells:
        total += lookup[cell.a]
    kept = [(cell.a, cell.b, cell.c) for cell in cells if not cell.d]
    for _ in range(4):
        grown = np.exp(_SLICE_ARRAY)
        summed = np.cumsum(grown)
        np.argsort(summed[::5])
    if total < 0 or not kept:  # keep the results live
        raise AssertionError("calibration kernel produced nonsense")
    return time.perf_counter() - start


class StageClock:
    """Times one pass through a workload as a sequence of stages.

    ``with clock:`` brackets the pass; inside it the workload calls
    ``clock.stage(name, fn, *args)`` for every call into the program.
    A calibration slice runs on entry and after each stage.  With a
    ``recorder`` each stage is also recorded as a top-level span of that
    name (the traced run); without one nothing else happens.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.stages: list[tuple[str, float]] = []
        self.slices: list[float] = []
        self._inner_slice_s = 0.0
        self._closed_by_slice = False
        self._start = 0.0
        self.raw_s = 0.0

    def __enter__(self) -> "StageClock":
        self.slices.append(slice_s())
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self.raw_s = elapsed - self._inner_slice_s
        if not self._closed_by_slice:
            self.slices.append(slice_s())

    def stage(self, name: str, fn, *args, calibrate: bool = True, **kwargs):
        start = time.perf_counter()
        if self.recorder is not None:
            with self.recorder.span(name):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        self.stages.append((name, time.perf_counter() - start))
        self._closed_by_slice = calibrate
        if calibrate:
            before = time.perf_counter()
            self.slices.append(slice_s())
            self._inner_slice_s += time.perf_counter() - before
        return result

    @property
    def slice_mean_s(self) -> float:
        return statistics.fmean(self.slices)

    @property
    def speed(self) -> float:
        """How much slower than the reference machine this pass ran."""
        return self.slice_mean_s / REFERENCE_SLICE_S

    @property
    def reference_s(self) -> float:
        return self.raw_s / self.speed

    def stage_totals_s(self) -> dict[str, float]:
        """Raw seconds spent inside stages, summed per stage name."""
        totals: dict[str, float] = {}
        for name, seconds in self.stages:
            totals[name] = totals.get(name, 0.0) + seconds
        return totals


def numeric_fingerprint() -> str:
    """Hash of a few float results that vary between libm/SIMD builds.

    Golden digests are only comparable where the floating-point
    implementation agrees to the last bit (``np.exp`` does not across
    AVX2/AVX-512 builds), so ``golden.json`` records this fingerprint and
    a host that disagrees falls back to the invariant checks.
    """
    probe = np.linspace(0.001, 9.0, 4096)
    digest = hashlib.sha256()
    digest.update(np.exp(-probe).tobytes())
    digest.update(np.log1p(probe).tobytes())
    digest.update(repr(sum(0.1 * k for k in range(1000))).encode())
    return digest.hexdigest()[:16]


def host_meta() -> dict:
    """What a reader needs to place a result: cores, versions, machine."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    affinity = sorted(getaffinity(0)) if getaffinity is not None else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "executable": sys.executable,
        "numeric_fingerprint": numeric_fingerprint(),
        "calibration_version": CALIBRATION_VERSION,
    }
