"""protoseg: few-shot surface-defect segmentation at desk scale.

PROTOSEG_THREADS caps the BLAS worker count (default 1, for bit-reproducible
runs). It must take effect before numpy first loads, which is why it is
handled here at package import.
"""

import os as _os

_threads = _os.environ.get("PROTOSEG_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)
