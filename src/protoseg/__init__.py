"""protoseg: few-shot surface-defect segmentation at desk scale.

PROTOSEG_THREADS caps the BLAS worker count (default 1, for bit-reproducible
runs). It must take effect before numpy first loads, which is why it is
handled here at package import; a value that is not a positive integer
raises ConfigError. When numpy is already loaded and no BLAS variable is
set, the cap cannot take effect, and a RuntimeWarning says so.
"""

import os as _os
import sys as _sys
import warnings as _warnings

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

if "numpy" in _sys.modules and not any(v in _os.environ for v in _BLAS_VARS):
    _warnings.warn(
        "numpy was imported before protoseg with no BLAS thread variable set, "
        "so PROTOSEG_THREADS cannot cap the BLAS threads; import protoseg "
        "first or set OPENBLAS_NUM_THREADS before numpy loads",
        RuntimeWarning, stacklevel=2)

_threads = _os.environ.get("PROTOSEG_THREADS", "1")
if not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
    from .errors import ConfigError
    raise ConfigError("PROTOSEG_THREADS must be a positive integer, got %r"
                      % _threads)
for _var in _BLAS_VARS:
    _os.environ.setdefault(_var, _threads)
