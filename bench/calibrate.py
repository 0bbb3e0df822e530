"""Machine-speed calibration for the drs-inekf benchmark.

A shared machine's speed for identical work can change by 2x within a
minute, with CPU time equal to wall time, so raw wall times of two runs
half an hour apart compare the machine more than the program.  This
kernel does a fixed amount of work of the same kind the program does
(small dense numpy products and solves driven from a Python loop, plus
scalar Python) and uses none of the program's code.  Its time, divided by
REFERENCE_S, is the machine's speed index: 1 on the reference machine, 2
when the machine runs this kind of work half as fast.  The benchmark
measures the index next to every timed piece of work and divides that
work's time by it.

    python3 bench/calibrate.py      # prints a few speed indices
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 15000
# Kernel time at speed index 1: about the median measured on a 2-CPU x86-64
# machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 0.5


def _kernel(n: int) -> float:
    a = np.linspace(-0.1, 0.1, 225).reshape(15, 15)
    p = np.eye(15)
    x = 0.0
    for i in range(n):
        p = a @ p @ a.T + np.eye(15)
        p = 0.5 * (p + p.T)
        s = np.linalg.solve(p[:3, :3] + np.eye(3), p[:3, 3])
        x += float(s[0]) * 1e-3 + (i % 7) * 0.5
        d = {"k": i, "v": x}
        x -= d["v"] * 1e-9
    return x


def speed_index() -> float:
    """Time of one fixed kernel run over REFERENCE_S (higher is slower)."""
    _kernel(20)                          # first-call set-up stays untimed
    t0 = time.perf_counter()
    _kernel(ITERATIONS)
    return (time.perf_counter() - t0) / REFERENCE_S


if __name__ == "__main__":
    print(" ".join(f"{speed_index():.3f}" for _ in range(5)))
