"""Pin BLAS to one thread for the whole suite, before numpy loads.

OpenBLAS reads its thread count once, when numpy first loads it.  Beside
one CPU-bound process on a 2-core host, its threads spin waiting for the
busy core: the suite took 156 s with the default thread count and 40 s
with one thread (57 s and 39 s on an idle host).  Worker processes of the
sweep tests inherit the pin.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
