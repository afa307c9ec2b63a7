"""Test-session setup: one BLAS thread, as in perfbench/run.py.

The solver's matrices are small, so a second BLAS thread only adds
synchronisation; with one thread the suite runs faster and uses less CPU.
The pins must be set before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
