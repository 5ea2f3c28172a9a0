"""A fixed reference task that measures how fast the host is running now.

On a shared host the speed of a vCPU changes by up to ~1.7x, for seconds
to minutes at a time, as other tenants load the same physical core, cache
and memory.  A run's median iteration time follows that drift, so runs of
the same code made a few minutes apart differ by more than a regression
worth catching.  The benchmark therefore runs this task between
iterations (and between set-up builds) and reports each iteration's time
relative to the mean of the two calibration times around it, scaled by
`REFERENCE_S` back to seconds:

    corrected = iteration_s / mean(calibration_s before, after) * REFERENCE_S

The task resembles the program's own work, so that interference slows it
by about the same factor: a CSV parse with float conversion and grouping
(the corpus loaders), ranks and correlations of small arrays (SRCC), small
least-squares fits (the linear regressors), and a Python loop of small
matrix-vector products (the GRU and the SVR solver).  Its inputs are fixed,
not drawn from the workload seed, so every run does identical work.  It
uses only the standard library and numpy, never `vidmem`, so a change to
the program cannot change it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# A round figure near the wall time of one `Calibration.run()` on a 2-vCPU
# Intel Xeon VM, where it takes 0.08-0.11 s.  Corrected times are in
# seconds of a host that runs the pass in exactly this time; the constant
# only scales them, so it must never change between compared runs.
REFERENCE_S = 0.100


class Calibration:
    """Fixed inputs built once; `run()` times one pass over them."""

    def __init__(self, lines=12000, groups=300, arrays=240, n=200, steps=2400):
        rng = np.random.default_rng(20210202)
        self.text = "\n".join(
            f"v{int(rng.integers(groups)):05d},{i},{float(rng.random())!r},"
            f"{float(rng.normal())!r}" for i in range(lines))
        self.arrays = rng.normal(size=(arrays, 2, n))
        self.design = rng.normal(size=(n, 8))
        self.weights = rng.normal(scale=0.3, size=(16, 16))
        self.steps = steps

    def _work(self):
        groups = {}
        for vid, idx, a, b in csv.reader(io.StringIO(self.text)):
            groups.setdefault(vid, []).append((int(idx), float(a), float(b)))
        acc = 0.0
        for rows in groups.values():
            acc += float(np.asarray(rows)[:, 1].mean())
        for x, y in self.arrays:
            rx, ry = np.empty(len(x)), np.empty(len(y))
            rx[np.argsort(x, kind="stable")] = np.arange(len(x))
            ry[np.argsort(y, kind="stable")] = np.arange(len(y))
            acc += float(np.corrcoef(rx, ry)[0, 1])
            coef = np.linalg.lstsq(self.design, y, rcond=None)[0]
            acc += float(coef[0])
        h = np.zeros(16)
        for _ in range(self.steps):
            h = np.tanh(self.weights @ h + 0.1)
        return acc + float(h.sum())

    def run(self):
        """(wall_s, cpu_s) of one pass."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._work()
        return time.perf_counter() - wall0, time.process_time() - cpu0


def corrected(times, indices, cal_times):
    """`times[j]`, taken by the `indices[j]`-th timed step, relative to the
    mean of `cal_times[k]` and `cal_times[k + 1]` (the passes just before
    and after step k), in seconds at the reference speed."""
    return [t / ((cal_times[k] + cal_times[k + 1]) / 2.0) * REFERENCE_S
            for t, k in zip(times, indices)]
