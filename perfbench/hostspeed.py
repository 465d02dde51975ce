"""Host-speed reference for the benchmark's end-to-end timings.

On a shared 2-CPU host the speed of the processor changes by up to +-25%
over a few seconds, and every op slows or speeds up together; that moved
whole runs by 20-35% and swamped differences between seeds.  A fixed
reference kernel, owned by the benchmark and sharing no code with npshell,
runs between ops for about 4% of the op time.  Each op's latency is reported
scaled to the speed at which the kernel takes REFERENCE_S:
scaled = measured * REFERENCE_S / median(kernel times around the op), and
the raw figures go on the run's ``detail`` line.  In 4.5 s blocks the
kernel-to-op time ratio varied half as much as op time alone (cv 0.067
against 0.128); over six seeds, scaling cut the quartile spread of
`op_p50_ms` from 0.13-0.18 to 0.03-0.15 and of `ops_per_s` from 0.14-0.24
to 0.02-0.11.

Set-up samples are scaled the same way, by three kernel calls run right
after each one.  Over eight `sweep` runs that cut the quartile spread of
`setup_s` (the median of 11 samples) from 0.124 to 0.045.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Median time of one reference() call on the host the benchmark was built
# on (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4): the speed scaled to.
REFERENCE_S = 0.007
REF_EVERY_S = 0.25  # one kernel call per this much op time


def _reference_kernel():
    """The harmonics layer's two kinds of work: an interpreted three-term
    recurrence over small arrays, and einsum over an 8192-node kernel block."""
    theta = np.linspace(0.1, 3.0, 2000)
    ct, st = np.cos(theta), np.sin(theta)
    rng = np.random.default_rng(0)
    block, vec = rng.normal(size=(8192, 3, 3)), rng.normal(size=(8192, 3))

    def kernel() -> float:
        acc = 0.0
        for m in range(12):
            pmm = np.full_like(ct, 0.28)
            for k in range(1, m + 1):
                pmm = -math.sqrt((2 * k + 1) / (2.0 * k)) * st * pmm
            p1, p0 = math.sqrt(2 * m + 3.0) * ct * pmm, pmm
            for k in range(m + 2, 60):
                a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
                b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
                p0, p1 = p1, a * (ct * p1 - b * p0)
            acc += float(p1.sum())
        for _ in range(6):
            acc += float(np.einsum("aij,aj->ai", block, vec).sum())
        return acc

    return kernel


class HostSpeed:
    """Samples the reference kernel after every op (and once before the
    first); an op's speed is measured by the samples on both sides of it."""

    def __init__(self):
        self._kernel = _reference_kernel()
        self.batches: list[list[float]] = []

    def sample(self, op_seconds: float) -> None:
        """Run the kernel once per REF_EVERY_S of the op just finished."""
        batch = []
        for _ in range(max(1, round(op_seconds / REF_EVERY_S))):
            t0 = perf_counter()
            self._kernel()
            batch.append(perf_counter() - t0)
        self.batches.append(batch)

    def speed(self, calls: int = 3) -> float:
        """REFERENCE_S / the median of `calls` kernel times taken now."""
        times = []
        for _ in range(calls):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return REFERENCE_S / statistics.median(times)

    def op_speeds(self) -> list[float]:
        """Per op, REFERENCE_S / the median kernel time around it; > 1 means
        a host faster than the reference."""
        return [REFERENCE_S / statistics.median(before + after)
                for before, after in zip(self.batches, self.batches[1:])]
