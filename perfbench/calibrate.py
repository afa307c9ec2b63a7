"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared host the same job's CPU time drifts by 40% over tens of seconds,
and whole runs are fast or slow together, so no estimator inside a run can
remove that drift. The kernel below never touches the library: interpreter
work, small numpy operations, long-double arithmetic and one LAPACK
factorization, the mix the library spends its time on. It runs between
jobs, outside their timing, about once per ``EVERY_S`` of job time. Run
metrics in seconds are scaled by ``REFERENCE_S / seconds per call``, which
states them in seconds at the speed where one call takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla

# One call's time on the 2-vCPU x86_64 VM where the benchmark was written.
REFERENCE_S = 0.0028
EVERY_S = 0.1


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((200, 200))
        self._b = rng.standard_normal(200)
        self._ld = rng.standard_normal(4000).astype(np.longdouble)
        self.calls = 0
        self.seconds = 0.0

    def _kernel(self) -> float:
        acc = {}
        for i in range(3000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        x = sla.lu_solve(sla.lu_factor(self._a), self._b)
        total = float(x[0])
        for _ in range(20):
            total += float((self._ld * self._ld).sum())
        v = np.ones(50)
        for _ in range(200):
            v = v + 0.5 * v
        return total + acc[0] + float(v[0])

    def after_job(self, job_s: float) -> None:
        """Run the kernel in proportion to the job time just spent."""
        n = max(1, round(job_s / EVERY_S))
        t0 = time.perf_counter()
        for _ in range(n):
            self._kernel()
        self.seconds += time.perf_counter() - t0
        self.calls += n

    @property
    def scale(self) -> float:
        """Factor that turns seconds measured in this run into reference seconds."""
        return REFERENCE_S * self.calls / self.seconds
