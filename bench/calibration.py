"""Machine-speed calibration for timings on a shared, noisy host.

On a host shared with other tenants the same code can run up to twice as
slow, in regimes that switch within a fraction of a second, and the fastest
repeat slows too. A short kernel that does the same kind of work as a
workload, but no code of the package, is timed 20 times a second while the
workload runs: a SIGALRM handler runs it between the workload's bytecodes.
The machine's speed at that moment is REFERENCE_S over the kernel's time. A
unit's normalised time is its own time, with the handler's time taken out,
times the mean speed of the samples around it: the time the unit would take
at the speed where the kernel takes REFERENCE_S. A kernel timed only between
units tracks the unit poorly, because the regime changes while the unit runs.
A kernel that does other work than the unit tracks it poorly too, so each
workload names its kernel.
"""

import bisect
import signal
import statistics
import time

# About the time of each kernel on an unloaded 2-core x86_64 host (Python
# 3.11, numpy 2.4), so that normalised times read close to real ones there:
# the speed that normalised times refer to.
REFERENCE_S = {"interpreted": 0.00025, "vectorised": 0.0006, "imports": 0.1}
PERIOD_S = 0.05   # time between samples
WINDOW_S = 0.4    # shortest window of samples that sets a unit's speed


def _interpreted():
    """Python loop driving 3x3 complex products, like the RK4 integrator
    and the per-point CLI code."""
    import numpy as np   # here, so that run.py can import this without numpy

    m = np.full((3, 3), 0.1 + 0.05j)
    v = np.ones(3, dtype=complex)
    acc = 0.0
    start = time.perf_counter()
    for i in range(100):
        v = v + 0.001 * (m @ v)
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - start


def _vectorised():
    """Counter-based normals and complex exponentials on an 8192-sample
    array, like one Monte Carlo chunk."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    x = rng.standard_normal(8192)
    abs(np.exp(1j * x).sum())
    return time.perf_counter() - start


KERNELS = {"interpreted": _interpreted, "vectorised": _vectorised}

# Set-up is timed in fresh interpreters, so its kernel is a script run in a
# fresh interpreter too. It imports standard-library modules the package does
# not use: the same kind of work (find, read, unmarshal and run modules, load
# extensions), which the interpreted kernel tracks poorly. It prints its time.
IMPORTS_KERNEL = """
import time
t0 = time.perf_counter()
import asyncio, concurrent.futures, ctypes, decimal, doctest, email.parser, fractions
import http.client, logging, pydoc, sqlite3, ssl, statistics, tarfile, unittest
import xml.etree.ElementTree, zipfile
print(time.perf_counter() - t0)
"""


class Sampler:
    """Samples the machine's speed every PERIOD_S while it is entered.

    ``spent`` is the total time the samples took; a caller subtracts the
    part taken during a unit from that unit's time.
    """

    def __init__(self, kernel):
        self.kernel = KERNELS[kernel]
        self.reference = REFERENCE_S[kernel]
        self.stamps = []
        self.speeds = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:   # a late signal while the kernel runs
            return
        self._busy = True
        start = time.perf_counter()
        self.speeds.append(self.reference / self.kernel())
        self.stamps.append(start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start, end):
        """Mean speed of the samples taken from ``start`` to ``end``, the
        window widened about its middle to at least WINDOW_S."""
        middle = (start + end) / 2.0
        half = max(end - start, WINDOW_S) / 2.0
        window = self.speeds[bisect.bisect_left(self.stamps, middle - half):
                             bisect.bisect_right(self.stamps, middle + half)]
        if not window:
            raise RuntimeError(f"no speed sample within {half:.3g} s of a unit")
        return statistics.fmean(window)
