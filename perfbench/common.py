"""Paths, the thread budget and the environment record shared by every
benchmark entry point.

`pin_threads()` must run before numpy is imported: OpenBLAS reads its
thread count once, when the library loads.
"""

from __future__ import annotations

import contextlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS runs single-threaded in every process the benchmark starts.  The
# matrices here are small (at most a few thousand rows), so BLAS threads
# only add spin-wait CPU time, and a fixed count keeps float reductions in
# one order on any machine.  Compute threads are then the experiment's
# `workers`, which each workload keeps at or below nproc.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    """Fix the BLAS thread count and hash seed for this process and its
    children; returns the environment entries it set."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    pinned = {name: str(BLAS_THREADS) for name in _BLAS_ENV}
    pinned["PYTHONHASHSEED"] = "0"
    os.environ.update(pinned)
    return pinned


def import_vidmem():
    """Import the library from the checkout's `src/`; raise SystemExit with
    a message when the source tree is not there."""
    if not (SRC / "vidmem" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vidmem sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vidmem
    return vidmem


def nproc() -> int:
    return len(allowed_cpus())


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpus):
    """Keep this process on the set `cpus` inside the block; an empty set
    leaves it where it is."""
    allowed = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def env_record(workers: int) -> dict:
    """Versions and thread settings stored with every result."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "workers": workers,
        "machine": platform.machine(),
    }
