"""Host-speed correction: a fixed reference loop, timed between operations.

The reference machine shares its cores with other tenants, and its speed
drifts by tens of percent over minutes, so a 30-s run cannot average the
drift away. The benchmark therefore times this loop, which never changes,
between operations, and scales each pass's times by

    (REFERENCE_S / median loop time during the pass) ** sensitivity

A scaled time reads as it would at the host speed at which the loop takes
``REFERENCE_S``. ``sensitivity`` is how strongly the timed work follows the
loop: the slope of log(pass wall time) on log(loop time), fitted over the
passes of 5 runs of each workload at the commit that added the benchmark.
The loop mixes interpreted float arithmetic (as in ``special_functions``,
the CLI and the reports) with a numpy ``searchsorted`` (as in the
inverse-CDF sampler). The raw times stay on the info line.
"""

from statistics import median
from time import perf_counter

import numpy as np

# The loop's typical time on the reference machine (2 vCPUs of an Intel Xeon,
# Python 3.11, numpy 2.4), over 30-s runs of every workload.
REFERENCE_S = 0.010
# One loop (about 10 ms) per quarter second of work: about 4 % of a run.
EVERY_S = 0.25

_TABLE = np.cumsum(np.linspace(1.0, 2.0, 4096))
_POINTS = np.linspace(0.0, float(_TABLE[-1]), 160_000)


def loop_s() -> float:
    """Wall time of one run of the reference loop."""
    start = perf_counter()
    acc = 0.0
    for i in range(80_000):
        acc += (i % 7) * 1.5
    np.searchsorted(_TABLE, _POINTS)
    return perf_counter() - start


class HostSpeed:
    """Samples the reference loop at most every ``EVERY_S`` and gives a pass's scale factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._pass: list[float] = []
        self._last = float("-inf")

    def begin_pass(self, count: int = 1) -> None:
        """Start a pass with ``count`` fresh samples."""
        self._pass = []
        for _ in range(count):
            self._sample()

    def between_ops(self) -> float:
        """Sample if the last sample is ``EVERY_S`` old; returns the time spent sampling."""
        if perf_counter() - self._last < EVERY_S:
            return 0.0
        return self._sample()

    def end_pass(self, sensitivity: float, count: int = 1) -> float:
        """After ``count`` more samples, the factor that scales the pass's times to the
        reference host speed."""
        for _ in range(count):
            self._sample()
        return (REFERENCE_S / median(self._pass)) ** sensitivity

    def _sample(self) -> float:
        start = perf_counter()
        self._pass.append(loop_s())
        self.samples.append(self._pass[-1])
        self._last = perf_counter()
        return self._last - start
