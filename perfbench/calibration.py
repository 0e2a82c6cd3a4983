"""A fixed computation whose duration tracks how fast the host runs right now.

On a shared virtual machine the same code can run 40% slower for
minutes at a time when neighbours are busy.  The benchmark times this
calibration next to every workload run and reports timings scaled to
``REFERENCE_S``, the calibration's duration on the reference machine, so
that host slowdowns cancel and changes to the package do not.

The work mixes what the workloads do: interpreter-bound Python calls,
many small numpy calls (per-call overhead), and vector passes over a
2 MiB array.  It allocates nothing after construction, so its duration
does not depend on the allocator state the measured code leaves behind.
"""

from __future__ import annotations

import time

import numpy as np

# Median duration of one calibration on a 2-core Intel Xeon KVM guest
# (CPython 3.11, numpy 2.4).  Any fixed value works: it sets the unit.
REFERENCE_S = 0.02


def _mix(a: float, b: float) -> float:
    return a * b + 1.0


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(1024)
        self._small_out = np.empty_like(self._small)
        self._big = rng.random(1 << 18)
        self._big_out = np.empty_like(self._big)
        self.seconds()  # first-call costs stay out of the readings

    def _work(self) -> float:
        acc = 0.0
        for i in range(18_000):
            acc += _mix(float(i), 0.5)
        for _ in range(1_800):
            np.log(self._small, out=self._small_out)
            acc += float(self._small_out[0])
        for _ in range(30):
            np.negative(self._big, out=self._big_out)
            np.exp(self._big_out, out=self._big_out)
            acc += float(self._big_out[-1])
        return acc

    def seconds(self) -> float:
        """Duration of one calibration."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def to_reference(seconds: float, calibration_s: float) -> float:
    """``seconds`` as they would read on the reference machine."""
    return seconds * REFERENCE_S / calibration_s
