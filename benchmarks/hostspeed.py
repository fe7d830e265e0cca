"""Host-speed probe for timing on a shared machine.

On the 2-CPU host this benchmark was built on, the speed of a whole
process drops to about half for seconds to minutes at a time, with CPU
time tracking wall time (no steal).  A fixed kernel of the solver's kind
of work (small dense eigen- and singular-value problems, a cubic's roots,
scalar Python arithmetic) slows down by the same factor, so a solver time
divided by a nearby kernel time is steady across those swings.

Timings are reported at reference speed: ``ms * REFERENCE_MS / kernel_ms``,
where ``REFERENCE_MS`` is the kernel's time with the host at full speed.
The kernel never calls the solver, so a change to the solver cannot move
it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Fastest kernel time, in ms, on the reference host (2 vCPUs, Python 3.11,
#: numpy 2.4 with OpenBLAS 0.3.31 on one thread).
REFERENCE_MS = 2.8

PROBE_REPS = 2          # kernel runs per probe; the fastest counts
INTERVAL_S = 0.1        # a call probes first if the last probe is older

_rng = np.random.default_rng(20261017)
_HERM = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_HERM = _HERM + _HERM.conj().T
_RECT = _rng.normal(size=(8, 5)) + 1j * _rng.normal(size=(8, 5))


def kernel() -> float:
    s = 0.0
    for i in range(60):
        w, _ = np.linalg.eigh(_HERM)
        s += float(w[0])
        s += float(np.linalg.svd(_RECT, compute_uv=False)[-1])
        s += abs(np.roots([1.0, 2.0, 3.0, float(i)])[0])
        for j in range(50):
            s += math.sqrt(j + 1.0) * 1e-9
    return s


class HostClock:
    """Kernel probes taken between solver calls, at most every INTERVAL_S."""

    def __init__(self):
        self.samples = []       # (perf_counter at probe, kernel ms)

    def probe(self) -> int:
        best = math.inf
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), best * 1e3))
        return len(self.samples) - 1

    def before_call(self) -> int:
        """Index of the probe that opens the bracket of the next call."""
        if not self.samples or \
                time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            return self.probe()
        return len(self.samples) - 1

    def scale(self, idx: int) -> float:
        """Factor to reference speed for a call after probe ``idx``.

        Uses the median of the two probes on either side of the call, so
        one noisy probe does not move it; until the probes after a call
        exist, fewer count, and the last call of a run needs one closing
        ``probe()``.
        """
        near = [ms for _, ms in self.samples[max(idx - 1, 0):idx + 3]]
        return REFERENCE_MS / statistics.median(near)
