"""Pin BLAS to one thread before numpy loads, so test timings do not swing with host load."""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# test modules import the shared reference helpers (oracle_helpers.py) by
# name, whatever import mode pytest runs in
sys.path.insert(0, os.path.dirname(__file__))
