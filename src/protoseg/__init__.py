"""protoseg: few-shot surface-defect segmentation at desk scale.

BLAS runs one thread per process: `train` and `evaluate` already run two
processes, one per CPU, and extra BLAS threads only fight them for the
cores (on 2 vCPUs, 2 threads made a desk `train` 4-7x slower). So importing
protoseg sets every unset variable in _BLAS_VARS to 1, which takes effect
only if numpy has not loaded yet; a variable already set is left alone. If
numpy loaded first, a RuntimeWarning fires unless the count OpenBLAS read
is "1": OPENBLAS_NUM_THREADS, or OMP_NUM_THREADS when that is unset.
"""

import os as _os
import sys as _sys
import warnings as _warnings

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

if "numpy" in _sys.modules and _os.environ.get(
        "OPENBLAS_NUM_THREADS", _os.environ.get("OMP_NUM_THREADS")) != "1":
    _warnings.warn(
        "numpy was imported before protoseg without OPENBLAS_NUM_THREADS=1 "
        "(or OMP_NUM_THREADS=1), so BLAS may run several threads per "
        "process; import protoseg first or set OPENBLAS_NUM_THREADS=1",
        RuntimeWarning, stacklevel=2)
for _var in _BLAS_VARS:
    _os.environ.setdefault(_var, "1")
