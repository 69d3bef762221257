"""Test-session settings. OpenBLAS splits a large product between its
threads by size, and a row's bits depend on that split, so the suite runs
BLAS on one thread, as the benchmark and ``tools/equivalence.py`` do. The
variables are set before numpy is first imported, and the CLI tests'
subprocesses inherit them."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
