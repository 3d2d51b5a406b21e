"""Fusion segmentation head: merge the two descriptor branches, refine with
residual conv blocks, classify per cell, and upsample to image resolution."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor
from .bilinear import bilinear_matrix
from .encoder import check_binary
from .errors import DimensionError, ValidationError

CLAMP_EPS = 1e-7


def binarize(probabilities: Tensor) -> np.ndarray:
    """Threshold probabilities at 0.5; ties go to foreground."""
    p = probabilities.data
    # Written so that NaN, which fails every comparison, fails it too.
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValidationError("probabilities must be finite and lie in [0, 1]")
    return (p >= 0.5).astype(p.dtype)


def bce_loss(probabilities: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over pixels, probabilities clamped to
    [eps, 1-eps] so saturated outputs keep a finite loss."""
    target = check_binary(target, "target mask")
    if probabilities.shape != target.shape:
        raise DimensionError("prediction %s and target %s differ"
                             % (probabilities.shape, target.shape))
    p = ad.clamp(probabilities, CLAMP_EPS, 1.0 - CLAMP_EPS)
    hit = ad.mul(target, ad.log(p))
    miss = ad.mul(ad.add(ad.mul(target, -1.0), 1.0),
                  ad.log(ad.add(ad.mul(p, -1.0), 1.0)))
    ll = ad.add(hit, miss)
    return ad.mul(ad.tensor_mean(ll), -1.0)


class FusionHead(Module):
    """Two residual 3x3 blocks over the concatenated branches, a pointwise
    classifier, and bilinear upsampling back to image resolution."""

    def __init__(self, channels: int, grid: int, size: int, seed: int,
                 dtype=np.float32):
        super().__init__(seed, dtype)
        self.channels = channels
        self.grid = grid
        c2 = 2 * channels
        self.convs: list[tuple[Parameter, Parameter]] = []
        for i in range(4):  # two blocks, two convs each
            name = "fusion.res%d" % i
            # Second conv of each block starts at zero: blocks begin as the
            # identity, which keeps activation scale seed-independent.
            w = (self.zeros(name + ".weight", (c2, c2, 3, 3)) if i % 2
                 else self.he_weight(name, (c2, c2, 3, 3)))
            self.convs.append((w, self.zeros(name + ".bias", (c2,))))
        # Zero classifier: every run opens at probability 0.5 per pixel, so
        # the first loss is ln 2 and no seed starts saturated.
        self.cls_w = self.zeros("fusion.cls.weight", (1, c2))
        self.cls_b = self.zeros("fusion.cls.bias", (1,))
        self.rows = bilinear_matrix(size, grid, dtype)
        self.cols_t = self.rows.T.copy()

    def __call__(self, main: Tensor, aux: Tensor) -> Tensor:
        """Two (c, l) branches -> (size, size) foreground probabilities."""
        cells = self.grid * self.grid
        if main.shape != aux.shape or main.shape != (self.channels, cells):
            raise DimensionError("branch shapes %s / %s do not match head "
                                 "geometry (c=%d, l=%d)"
                                 % (main.shape, aux.shape, self.channels, cells))
        x = ad.reshape(ad.concat([main, aux]),
                       2 * self.channels, self.grid, self.grid)
        for i in (0, 2):
            wa, ba = self.convs[i]
            wb, bb = self.convs[i + 1]
            inner = ad.conv2d(ad.relu(ad.conv2d(x, wa, ba)), wb, bb)
            x = ad.add(x, inner)
        cell_logits = ad.conv1d(ad.reshape(x, 2 * self.channels, cells),
                                self.cls_w, self.cls_b)
        logits_grid = ad.reshape(cell_logits, self.grid, self.grid)
        logits = ad.matmul(ad.matmul(self.rows, logits_grid), self.cols_t)
        return ad.sigmoid(logits)
