"""Facts about the machine a result was measured on, what was not controlled, and its speed."""

from __future__ import annotations

import bisect
import ctypes
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

UNCONTROLLED = [
    "no CPU pinning: the scheduler may move the process between cores",
    "no page-cache dropping: imports after the first read warm files",
    "shared host: load from other tenants is not controlled (see loadavg); times are "
    "scaled by the host speed read during the run (HostSpeed), which removes most of it",
    "CPU frequency scaling and turbo are not controlled",
]


def _openblas_threads() -> tuple[int | None, str | None]:
    """Thread count in effect and config string of the OpenBLAS numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            config = None
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                config = get_config().decode()
            return int(get_threads()), config
    return None, None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {}
    threads, config = _openblas_threads()
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads_in_effect": threads,
        "runtime_config": config,
        "env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "uncontrolled": UNCONTROLLED,
    }


# -- host speed ----------------------------------------------------------------

_CAL_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                        [0.1, 0.2, 1.0, 0.3], [0.0, 0.1, 0.3, 0.5]])


def calibration_loop() -> None:
    """Fixed work in the library's own mix: interpreted Python and small numpy calls."""
    x = 0
    for i in range(2_500):
        x += i
    m = _CAL_MATRIX
    for _ in range(20):
        np.linalg.eigvalsh(m)
        np.linalg.inv(m + m @ m)


class HostSpeed:
    """The host's speed over a run, read from ``calibration_loop`` on a timer.

    Other tenants switch this host between a fast state and a slow one about
    1.7x slower, in stretches of 50-500 ms, and the share of slow time drifts
    over minutes; any code in the library's mix slows alike.  While active,
    a ``SIGALRM`` handler runs the calibration loop every ``INTERVAL_S``, in
    the middle of library calls too (Python runs handlers between bytecodes).
    ``seconds`` turns an interval into the time its work would take where
    one loop takes ``REFERENCE_S``: readings inside the interval are
    subtracted from it, and the mean of the readings in and next to it sets
    the speed.
    """

    REFERENCE_S = 0.0005  # one calibration loop on the baseline host in its fast state
    INTERVAL_S = 0.02

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (start, end), in time order
        self._previous = None

    def read(self, *_signal) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.readings.append((t0, time.perf_counter()))

    def burst(self, n: int = 50) -> None:
        for _ in range(n):
            self.read()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def near(self, start: float, end: float) -> tuple[float, float]:
        """(time the readings inside [start, end] took, mean reading in and next to it).

        "Next to" is within a quarter of the interval's length, and at least
        50 ms, before or after it.
        """
        pad = max(0.05, 0.25 * (end - start))
        k = bisect.bisect_left(self.readings, (start - pad,))
        inside, near = 0.0, []
        for r0, r1 in self.readings[k:]:
            if r1 > end + pad:
                break
            near.append(r1 - r0)
            if r0 >= start and r1 <= end:
                inside += r1 - r0
        if not near:
            raise RuntimeError("no host-speed reading next to the interval")
        return inside, statistics.fmean(near)

    def seconds(self, start: float, end: float) -> float:
        """Time of [start, end] without the readings in it, at the reference speed."""
        inside, reading = self.near(start, end)
        return (end - start - inside) * self.REFERENCE_S / reading
