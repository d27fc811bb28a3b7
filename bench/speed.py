"""Machine speed, sampled by a fixed kernel between and during the timed work.

On a shared virtual machine the speed of small-array numpy work drifts by
tens of percent over seconds to minutes (one toy solve repeated in a loop
took 117 ms to 209 ms in 5-second stretches of one minute), while the same
code runs at the same speed within a stretch.  Timing a fixed kernel of
the same kind of operations in the same process, every ``INTERVAL_S``
seconds, tracks that drift: the toy solve divided by the kernel's time
varied by +-5% over the same minute.  ``SpeedProbe`` samples the kernel on
a SIGALRM timer and rescales each stretch of work between two samples to
the reference speed ``REFERENCE_S`` (the kernel's time in the slower of the
two speed states a shared 2-vCPU x86-64 virtual machine was seen to
alternate between: 0.8-0.95 ms and 1.45-1.57 ms), so that timings of the
same work agree between runs.

The kernel is numpy only and shares no code with the program, so a change
to the program cannot change the yardstick.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 1.5e-3

_RNG = np.random.default_rng(0)
_KERNEL = _RNG.random((7, 5))
_ROWS = np.full(7, 1.0 / 7.0)
_COLUMNS = np.full(5, 0.2)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds.

    A short scaling loop on a 7 x 5 matrix that keeps its intermediates and
    sums them back in reverse, like a recorded tape and its backward pass.
    """
    start = time.perf_counter()
    v = np.ones(5)
    kept = []
    for _ in range(100):
        u = _ROWS / (_KERNEL @ v)
        v = _COLUMNS / (u @ _KERNEL)
        kept.append(np.exp(-_KERNEL * v[None, :]) * u[:, None])
    total = np.zeros_like(_KERNEL)
    for x in reversed(kept):
        total = total + 0.5 * x
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples (start, seconds) taken on a timer during timed work."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append((start, kernel()))

    def __enter__(self):
        kernel()                                 # warm the kernel's code paths
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def work_s(self) -> float:
        """Wall time between the first and the last sample, kernels excluded."""
        return sum(t1 - t0 - c0 for (t0, c0), (t1, _) in
                   zip(self.samples, self.samples[1:]))

    def scaled_s(self) -> float:
        """That work time rescaled to the reference speed, stretch by stretch."""
        return sum((t1 - t0 - c0) * 2.0 * REFERENCE_S / (c0 + c1)
                   for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:]))
