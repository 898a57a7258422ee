"""Machine-speed probe: scales measured times to a fixed reference speed.

On a small shared virtual machine, other tenants change how fast each vCPU
executes instructions, by up to 2x, in spells of milliseconds to minutes
(see README.md, "Noise").  CPU time slows down as much as wall time, so
neither removes it.  The benchmark therefore runs a fixed kernel, the
probe, next to every timed interval and multiplies the interval by

    factor = REF_PROBE_S / (the probe's CPU time now),

so that a timing reads what it would with the probe at its reference
speed.  The probe mixes the kinds of work a sweep row does: interpreted
Python arithmetic, numpy calls on short arrays, scalar scipy.special
calls and numpy arithmetic on arrays of 50,000 elements.  It never runs
program code, so a change to the program moves a scaled time by the same
proportion as the raw time.  The raw times are printed on the environment line
next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

# Probe time on the reference machine (Intel Xeon, 2.1 GHz, shared 2-vCPU
# VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) in a fast spell.
REF_PROBE_S = 2.0e-3
PROBES = 2                   # kernel runs per sample; their mean counts


def _kernel() -> float:
    """Fixed work of about 2 ms, in four parts of similar length."""
    # imported here, after run.py has set the BLAS thread variables
    import numpy as np
    from scipy.special import zeta

    acc = 0.0
    xs = [0.001 * i for i in range(64)]
    z = 0j
    for _ in range(35):                     # interpreted float/complex arithmetic
        for i in range(1, 63):
            a = xs[i - 1] * xs[i + 1] - 0.5 * xs[i]
            z = z * 0.5 + complex(a, xs[i])
            acc += abs(z) if a > 0.0 else -a
    for k in range(25):                     # numpy calls on short arrays
        nu = (0.37 + 0.01 * k) * np.arange(1, 129)
        den = (3.9 - nu**2) * (0.25 + nu**2)
        acc += float(np.sum(nu**2 / den)) + float(np.sum(nu / den))
    for a in range(65, 125):                # scalar scipy.special calls
        acc += zeta(2, a) + 0.5 * zeta(3, a) + zeta(4, a)
    for k in range(2):                      # numpy arithmetic on long arrays
        nu = (0.01 + 0.001 * k) * np.arange(1, 50_001)
        den = (3.9 - nu**2) * (0.25 + nu**2)
        acc += float(np.sum(nu**2 / den))
    return acc


def probe_seconds() -> float:
    """Mean thread CPU time of PROBES kernel runs."""
    t0 = time.thread_time()
    for _ in range(PROBES):
        _kernel()
    return (time.thread_time() - t0) / PROBES


def factor() -> float:
    """Reference probe time over the probe time now (< 1 on a slow machine)."""
    return REF_PROBE_S / probe_seconds()


@contextmanager
def one_cpu():
    """Pins the calling thread, and the threads and processes it starts, to one CPU.

    So that the probe measures the CPU that runs the timed code: the two
    vCPUs of a small VM slow down independently.  Does nothing where the
    affinity cannot be read or set.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Meter:
    """Speed samples at least every `interval` seconds.

    A sample is (start, end, probe CPU seconds) on the clock of
    time.perf_counter.  The first and last samples are taken in the calling
    thread, before the timed calls start and after they end.

    Without `cpus`, for calls made in the calling thread: between short
    calls the caller takes samples with tick(), and a background thread
    takes one whenever none has been taken for `interval` seconds, which
    happens during long calls.  With `cpus`, for intervals in which pool
    workers run on those CPUs: one background thread per CPU, pinned to it,
    samples every `interval` seconds.  The probe runs on its thread's own
    CPU time, so waiting for a CPU or for the GIL does not count as
    slowness.
    """

    def __init__(self, interval: float, cpus: set[int] | None = None):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._lock = threading.Lock()
        self._last = 0.0
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True)
                         for cpu in (sorted(cpus) if cpus else [None])]

    def _sample(self) -> None:
        t0 = time.perf_counter()
        p = probe_seconds()
        t1 = time.perf_counter()
        with self._lock:
            self.samples.append((t0, t1, p))
            self._last = t1

    def _due(self) -> bool:
        return time.perf_counter() - self._last >= self.interval

    def _loop(self, cpu: int | None) -> None:
        if cpu is None:
            while not self._stop.wait(self.interval / 4):
                if self._due():
                    self._sample()
            return
        try:
            os.sched_setaffinity(0, {cpu})      # this thread only
        except OSError:
            pass
        while not self._stop.wait(self.interval):
            self._sample()

    def tick(self) -> None:
        """Takes a sample in the calling thread if one is due."""
        if self._due():
            self._sample()

    def __enter__(self) -> "Meter":
        self._sample()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """Mean factor of the samples centred in [t0, t1]; if there are none,
        of the last sample before t0 and the first one after t1."""
        mids = [(0.5 * (a + b), p) for a, b, p in self.samples]
        inside = [p for m, p in mids if t0 <= m <= t1]
        if not inside:
            inside = [max((m, p) for m, p in mids if m < t0)[1],
                      min((m, p) for m, p in mids if m > t1)[1]]
        return statistics.fmean(REF_PROBE_S / p for p in inside)

    def probe_cpu(self, t0: float, t1: float) -> float:
        """Probe CPU seconds spent in [t0, t1], each sample pro rata of overlap."""
        cpu = 0.0
        for a, b, p in self.samples:
            overlap = min(b, t1) - max(a, t0)
            if overlap > 0.0:
                cpu += PROBES * p * overlap / (b - a)
        return cpu

    def scale(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed, less the probe's own
        CPU time in the interval: a call made in the calling thread shares
        its CPU and the GIL with the probe thread."""
        return (t1 - t0 - self.probe_cpu(t0, t1)) * self.factor(t0, t1)
