"""Machine-speed calibration of the benchmark's timings.

The benchmark shares its machine with other tenants, and the machine's
speed drifts by 20-40% over seconds to minutes, even for a fixed kernel in
an otherwise idle container.  A plain wall-clock median over one run
inherits that drift.  So every timed step is bracketed by a fixed
calibration kernel, and its time is reported in *reference seconds*:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where ``kernel seconds`` is the mean of the kernel timed just before and
just after the step.  The kernel is the benchmark's own code and mixes the
kinds of work ctrlgap does: interpreted Python, numpy calls on short
vectors, products with a 7-row matrix on long vectors, and float
formatting.  A change to ctrlgap cannot change the kernel's time, so it
shows in full; a slower or faster machine moves both and cancels.  The raw
wall seconds and the kernel times are kept in each run's ``result.json``.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds that define one reference second's worth of machine speed:
# about the kernel's time on the 2-core x86_64 machine the baseline in
# README.md was measured on.
REFERENCE_S = 0.010


class Calibrator:
    """Times the calibration kernel; the inputs are built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._G = rng.random((7, 10_000))
        self._v = rng.random(10_000)
        self._short = rng.random(1_000)
        self._floats = rng.random(5_000).tolist()
        self.kernel()  # first call pays numpy's lazy initialisation

    def kernel(self) -> float:
        """Seconds of one run of the fixed kernel."""
        start = time.perf_counter()
        acc = 0.0
        values = []
        for i in range(15_000):
            acc += i * 0.5
            values.append(acc)
        for _ in range(300):
            acc += float(self._short @ self._short)
            np.clip(self._short, 0.1, 0.9)
        for _ in range(30):
            w = self._G @ self._v
            acc += float((self._v - self._G.T @ w)[0])
        ",".join("%.17g" % x for x in self._floats)
        return time.perf_counter() - start

    @staticmethod
    def factor(kernel_seconds: float) -> float:
        """Multiplier from wall seconds to reference seconds."""
        return REFERENCE_S / kernel_seconds
