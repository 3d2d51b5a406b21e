"""Bilinear resampling weights, shared by the corpus renderer and the
segmentation head's upsampling."""

from __future__ import annotations

import numpy as np


def bilinear_matrix(dst: int, src: int, dtype=np.float64) -> np.ndarray:
    """(dst, src) interpolation weights; each row sums to 1 exactly for the
    edge rows and to within an ulp elsewhere. Half-pixel centers, edges clamp."""
    m = np.zeros((dst, src), dtype=dtype)
    scale = src / dst
    for i in range(dst):
        s = (i + 0.5) * scale - 0.5
        if s <= 0.0:
            m[i, 0] = 1.0
        elif s >= src - 1:
            m[i, src - 1] = 1.0
        else:
            i0 = int(np.floor(s))
            lam = s - i0
            m[i, i0] = 1.0 - lam
            m[i, i0 + 1] = lam
    return m
