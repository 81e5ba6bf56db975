"""Machine-speed reference: a fixed kernel timed next to every measurement.

The benchmark runs on shared virtual machines whose effective CPU speed
drifts: on a 2-vCPU machine the same 100-step private fit took 1.6–2.0 s
for minutes at a time and 2.6–3.4 s for the minutes in between, with no
steal time reported and CPU time tracking wall time, and this kernel
flips between ≈ 10.5 and ≈ 14 ms within seconds.  A spread like that
between runs hides every change smaller than itself.

So each setup repetition and each stage of a round is bracketed by
timings of a fixed kernel that uses none of the library's code: a Gaussian fill, a
scatter-add, a gather, a sort (numpy, memory-bound like the training
step) and a pure-Python loop (interpreter-bound like graph building).
End-to-end times are reported in *reference seconds*: wall seconds times
``NOMINAL_S`` over the kernel's time around the measurement (rates are
divided by the same factor).  On a machine running the kernel in
``NOMINAL_S`` they are wall seconds; when the machine slows down, the
kernel slows with it and the ratio stays put.  A change to the library
moves the measurement and not the kernel, so it still shows in full.
The raw wall values are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's median time on an unloaded 2-vCPU machine of the kind the
#: benchmark was calibrated on; it only sets the unit
NOMINAL_S = 0.0125
#: kernel runs per reference sample (the median is taken)
REPEATS = 7


class SpeedReference:
    """Times the reference kernel; owns its buffers."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self._draws = np.empty(400_000)
        self._index = self._rng.integers(0, 200_000, 100_000)
        self._totals = np.zeros(200_000)

    def _kernel(self) -> None:
        self._rng.standard_normal(out=self._draws)
        np.add.at(self._totals, self._index, self._draws[: self._index.size])
        np.take(self._draws, self._index, out=self._totals[: self._index.size])
        np.sort(self._draws[:100_000])
        sum(i * i for i in range(50_000))

    def sample(self) -> float:
        """Median kernel time in seconds over ``REPEATS`` runs."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Wall-to-reference scale for a measurement between two samples."""
    return NOMINAL_S / ((before + after) / 2)
