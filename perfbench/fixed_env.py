"""Fixed environment: BLAS on one thread.  Import before numpy is first imported."""
import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
