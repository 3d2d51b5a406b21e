"""protoseg: few-shot surface-defect segmentation at desk scale.

BLAS runs one thread per process: `train` and `evaluate` already run two
processes, one per CPU, and extra BLAS threads only fight them for the
cores (on 2 vCPUs, 2 threads made a desk `train` 4-7x slower). So importing
protoseg sets every unset variable in _BLAS_VARS to 1, which takes effect
only if numpy has not loaded yet; a variable already set is left alone. If
numpy loaded first, a RuntimeWarning fires unless numpy's bundled OpenBLAS
says it runs 1 thread; it also fires when that library cannot be asked.
"""

import os as _os
import sys as _sys
import warnings as _warnings

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _openblas(symbol: str, restype):
    """Call scipy_openblas_<symbol>64_ of numpy's bundled OpenBLAS and
    return its result, or None without that library or symbol."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:  # dlopen hands back the copy numpy has loaded
            fn = getattr(ctypes.CDLL(str(path)),
                         "scipy_openblas_%s64_" % symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], restype
        return fn()
    return None


if "numpy" in _sys.modules:
    import ctypes as _ctypes

    _threads = _openblas("get_num_threads", _ctypes.c_int)
    if _threads != 1:
        _warnings.warn(
            "numpy was imported before protoseg and its OpenBLAS runs %s "
            "threads per process; import protoseg first or set "
            "OPENBLAS_NUM_THREADS=1"
            % ("an unknown number of" if _threads is None else _threads),
            RuntimeWarning, stacklevel=2)
for _var in _BLAS_VARS:
    _os.environ.setdefault(_var, "1")
