"""filicoh: exact cohomology of restricted filiform Lie algebras over GF(p)."""

import os

# filicoh makes no BLAS call: all its arithmetic is int64, which numpy does
# without BLAS.  So numpy, imported by the submodules below this point,
# need not start OpenBLAS worker threads that would only spin; a value the
# user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
