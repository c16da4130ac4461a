"""A fixed calibration kernel that tracks the speed of a shared machine.

On a shared 2-core machine the speed of this process drifts, by up to
1.5x over seconds to tens of minutes, as other tenants come and go;
process CPU time drifts with wall time, so the cause is slower
execution, not waiting.  A whole 35 s run can sit in a slow spell, so
work per second and set-up time spread widely from one run to the next
however long the run is.

The kernel below uses nothing from srmec.  It is made of parts that
follow the code mix of the workloads: Fraction arithmetic and a plain
interpreter loop (the exact oracle, the sampler and the CLI), numpy
calls on tiny arrays (single-point solves) and one batched 5x5 LAPACK
solve with elementwise work on 2,640-long vectors (sweep grids).  The
`audit` and `points` workloads make no batched solves, so their kernel
leaves that part out, and so does the kernel a set-up probe runs once
it is ready.  The kernel runs between timed operations, never inside
one.  Each operation's time is divided by the mean kernel time of
the calibrations just before and just after it, which gives the
operation's cost in kernel runs: a figure that a change to srmec moves
exactly as it moves the wall time, while a slow spell of the machine
moves kernel and operation together.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel runs per calibration at least; the median of them is kept.
REPEATS = 3
# setup_s is reported in seconds of a machine on which the "setup" kernel
# takes this long in a set-up probe, about its time on the 2-core 2.1 GHz
# Xeon the benchmark was tuned on.  Changing it rescales every setup_s.
REFERENCE_S = 0.004

_rng = np.random.default_rng(20241101)
_SMALL_A = _rng.random((4, 5, 5)) + 5.0 * np.eye(5)
_SMALL_B = _rng.random((4, 5, 1))
_BIG_A = _rng.random((2640, 5, 5)) + 5.0 * np.eye(5)
_BIG_B = _rng.random((2640, 5, 1))
_X = np.sort(_rng.random(2640))


def _rational() -> None:
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(i, i + 7)
    acc = 0
    for i in range(16000):
        acc += i * i % 7


def _tiny_numpy() -> None:
    for _ in range(160):
        np.sqrt(np.linalg.solve(_SMALL_A, _SMALL_B) + 1.0)


def _batched() -> None:
    np.linalg.solve(_BIG_A, _BIG_B)
    np.exp(-_X) * np.interp(_X, _X[::26], _X[::26])


KERNELS = {
    "sweep": (_rational, _tiny_numpy, _batched),
    "audit": (_rational, _tiny_numpy),
    "points": (_rational, _tiny_numpy),
    "setup": (_rational, _tiny_numpy),
}


def kernel_seconds(workload: str, budget_s: float = 0.0) -> float:
    """Median wall time of the workload's kernel, run REPEATS times and
    then until the runs have taken `budget_s` seconds."""
    parts = KERNELS[workload]
    times: list[float] = []
    while len(times) < REPEATS or sum(times) < budget_s:
        start = time.perf_counter()
        for part in parts:
            part()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_units(op_ns: list[int], marks: list[tuple[int, float]]) -> list[float]:
    """Each operation's time in kernel runs.

    `marks` holds (operations done before it, kernel seconds) for each
    calibration, in order: the first before operation 0 and the last
    after the final operation.
    """
    units = []
    j = 0
    for i, ns in enumerate(op_ns):
        while marks[j + 1][0] <= i:
            j += 1
        units.append(ns / 1e9 / ((marks[j][1] + marks[j + 1][1]) / 2))
    return units
