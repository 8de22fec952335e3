"""Host-speed calibration.

On a shared host the speed of one process drifts by tens of percent from
minute to minute: the same solve measured in separate processes ranged
over a factor of 1.8 on the reference host, while its ratio to the
reference kernel below stayed within +-8%.  Every end-to-end host time
is therefore reported in *reference seconds*: the measured seconds scaled
by ``REFERENCE_S / t_ref``, where ``t_ref`` is the median of the
reference-kernel samples taken nearest in time to the call (the speed
drifts within a run too).  That is the time the call would take on a
host where the reference kernel takes ``REFERENCE_S``.  The raw seconds
and the run's median factor are kept in the results file.

The kernel uses only numpy and scipy, never the program, so a change to
the program cannot move it.  It mixes the same kinds of work as the
program: sparse matrix-vector products, small vector updates and Python
interpreter work.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp

#: Median time of one reference kernel call on the reference host (a
#: shared 2-core host; see README.md).
REFERENCE_S = 4.5e-3
#: Reference samples a call is scaled by: the ones nearest in time.
NEAREST = 9


def _poisson2d(n: int) -> sp.csr_matrix:
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()


class Calibration:
    """Reference-kernel samples taken between the benchmark's steps."""

    def __init__(self) -> None:
        self.a = _poisson2d(48)
        self.b = np.ones(self.a.shape[0])
        #: (start time, seconds) per kernel call, in time order
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> float:
        a, b = self.a, self.b
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(120):
            q = a @ p
            alpha = rr / float(p @ q)
            x += alpha * p
            r -= alpha * q
            rn = float(r @ r)
            p = r + (rn / rr) * p
            rr = rn
            _ = {i: (i, alpha) for i in range(24)}
        return float(x[0])

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            t0 = perf_counter()
            self._kernel()
            self.samples.append((t0, perf_counter() - t0))

    def scale_at(self, when: float) -> float:
        """Scale from measured to reference seconds for a call that
        started at *when*: from the ``NEAREST`` samples closest in time."""
        times = [t for t, _ in self.samples]
        i = bisect.bisect_left(times, when)
        lo = max(0, min(i - NEAREST // 2, len(times) - NEAREST))
        window = [d for _, d in self.samples[lo:lo + NEAREST]]
        return REFERENCE_S / statistics.median(window)

    def describe(self) -> dict:
        if not self.samples:
            return {"reference_s": REFERENCE_S, "samples": 0}
        median = statistics.median(d for _, d in self.samples)
        return {"reference_s": REFERENCE_S, "median_s": median,
                "factor": REFERENCE_S / median,
                "samples": len(self.samples)}
