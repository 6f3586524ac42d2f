"""Scaling measured times to one machine speed.

The machine this benchmark was written on changes speed by up to ±25%
over seconds to minutes, independently on each CPU (see README).  A run
cannot outlast that drift, so the benchmark times a fixed reference task
of its own on the same CPU at the same moments as the program's work,
and scales each time by REF_NOMINAL_S / (interquartile mean of the
reference times).  During a pass the reference runs from a SIGALRM
handler every PERIOD_S of wall time; its own time is subtracted from
every measurement.  The interquartile mean leaves out samples that a
context switch stretched and samples that happened to find the caches
warm; with the plain mean, or every 0.2 s, formula-sweep and
exact-solvers spread more scaled than unscaled.  The
reference is timed cold, right after the program's work, on purpose:
the drift comes with contention for shared caches, which a warmed-up
reference that fits in the private caches would not see.  The scaled
times are what the result object reports; the raw ones are printed too.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 0.001  # reference() on the machine the bounds were set on
PERIOD_S = 0.1
MIN_SAMPLES = 5


def reference() -> int:
    """Fixed interpreter-bound work: calls, tuples, dict updates, small ints."""
    counts: dict = {}
    acc = 0
    rows = [(i, i * 3, i ^ 5) for i in range(64)]
    for _ in range(40):
        for a, b, c in rows:
            acc = ((acc * 31 + (a ^ c)) & 0xFFFF) + (b & 7)
            key = (a & 15, c & 7)
            counts[key] = counts.get(key, 0) + 1
    return acc


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half of the samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def time_reference() -> float:
    """Time of one reference() call, now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Sampler:
    """Times reference() every PERIOD_S from a signal handler in the main
    thread while the program runs; ``spent`` is the total time it took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self) -> float:
        """REF_NOMINAL_S over the interquartile mean reference time
        during the run."""
        samples = self.samples
        if len(samples) < MIN_SAMPLES:  # a very short run: time it now
            samples = samples + [time_reference() for _ in range(MIN_SAMPLES)]
        return REF_NOMINAL_S / interquartile_mean(samples)
