"""Shared convolutional feature extractor and feature/descriptor utilities.

Feature maps are rank-3 tensors (c, h, w). Descriptors are the same data
flattened to a (c, l) tensor with l = h * w in row-major order. The model's
grid is square, `image_size // STRIDE` on a side, and the modules that read
descriptors know it from construction, so the flattening is exact.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor
from .errors import DegenerateEpisodeError, DimensionError, ValidationError


def to_descriptors(fmap: Tensor) -> Tensor:
    """Flatten (c, h, w) -> (c, h*w), row-major."""
    if fmap.data.ndim != 3:
        raise DimensionError("feature map must be (c, h, w), got %s" % (fmap.shape,))
    c, h, w = fmap.shape
    return ad.reshape(fmap, c, h * w)


def from_descriptors(x: Tensor, grid: int) -> Tensor:
    """Inverse of to_descriptors onto a grid x grid map; exact round-trip."""
    if x.data.ndim != 2:
        raise DimensionError("descriptor set must be (c, l), got %s" % (x.shape,))
    if x.shape[1] != grid * grid:
        raise DimensionError("descriptor count %d does not tile a %dx%d grid"
                             % (x.shape[1], grid, grid))
    return ad.reshape(x, x.shape[0], grid, grid)


STRIDE = 4  # blocks 1 and 3 stride by 2: one feature cell per 4x4 pixels


class Encoder(Module):
    """Stack of 3x3 conv+relu blocks; blocks 1 and 3 use stride 2."""

    def __init__(self, in_channels: int, out_channels: int, width: int,
                 depth: int, seed: int, dtype=np.float32):
        super().__init__("encoder", seed, dtype)
        self.in_channels = in_channels
        # (weight, bias, stride) per block
        self.blocks: list[tuple[Parameter, Parameter, int]] = []
        c_prev = in_channels
        for i in range(depth):
            c_next = out_channels if i == depth - 1 else width
            self.blocks.append((*self.layer("block%d" % i, (c_next, c_prev, 3, 3)),
                                2 if i in (1, 3) else 1))
            c_prev = c_next

    def __call__(self, image: np.ndarray) -> Tensor:
        """(3, H, W) image -> (c, H/STRIDE, W/STRIDE) feature map."""
        if image.ndim != 3 or image.shape[0] != self.in_channels:
            raise DimensionError("encoder expects (%d, H, W), got %s"
                                 % (self.in_channels, image.shape))
        if image.shape[1] % STRIDE or image.shape[2] % STRIDE:
            raise DimensionError("encoder input extents must be divisible by "
                                 "%d, got %s" % (STRIDE, image.shape))
        x = image
        for w, b, s in self.blocks:
            x = ad.relu(ad.conv2d(x, w, b, stride=s))
        return x


def check_binary(x, what: str) -> np.ndarray:
    """Return x as an array after checking it is numeric with 0/1 values."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValidationError("%s must be a numeric array, got %s"
                              % (what, type(x).__name__))
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError("%s must be binary (0/1 values only)" % what)
    return arr


@functools.cache
def _run_sums(grid: int, cell: int) -> np.ndarray:
    """(grid, grid * cell) matrix whose row i sums entries i*cell to
    (i+1)*cell - 1 of a vector."""
    m = np.kron(np.eye(grid), np.ones(cell))
    m.flags.writeable = False
    return m


def mask_to_feature_grid(mask: np.ndarray, grid: int) -> np.ndarray:
    """Downsample a binary (S, S) mask to (grid, grid) by mean pooling, then
    re-binarize at 0.5 with ties rounding up."""
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1] or len(mask) % grid:
        raise DimensionError("mask %s is not square or does not pool evenly "
                             "onto a %dx%d grid" % (mask.shape, grid, grid))
    check_binary(mask, "mask")
    cell = len(mask) // grid
    # Each cell's count of set pixels, as two products with a 0/1 matrix
    # that sums runs of `cell` pixels: exact for 0/1 values whatever the
    # summation order, and several times faster than a mean over two
    # non-adjacent axes. A mean of at least 0.5 is a count of at least half
    # the cell.
    runs = _run_sums(grid, cell)
    counts = runs @ mask.astype(np.float64) @ runs.T
    return (2 * counts >= cell * cell).astype(mask.dtype)


def apply_mask(fmap: Tensor, grid: np.ndarray) -> Tensor:
    """Zero background positions of a (c, h, w) map with an (h, w) binary grid."""
    if grid.ndim != 2 or fmap.data.ndim != 3 or fmap.shape[1:] != grid.shape:
        raise DimensionError("grid %s does not match feature map %s"
                             % (grid.shape, fmap.shape))
    check_binary(grid, "feature grid")
    return ad.mul(fmap, grid.reshape(1, *grid.shape))


def kshot_average(features: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of K same-shape tensors."""
    feats = list(features)
    if not feats:
        raise DimensionError("kshot_average over an empty sequence")
    shape = feats[0].shape
    for f in feats[1:]:
        if f.shape != shape:
            raise DimensionError("kshot_average shape mismatch: %s vs %s"
                                 % (shape, f.shape))
    total = feats[0]
    for f in feats[1:]:
        total = ad.add(total, f)
    return ad.mul(total, 1.0 / len(feats))


def masked_avg_pool(x: Tensor, grid: np.ndarray) -> Tensor:
    """Average (c, l) foreground descriptors into a (c, 1) guidance vector:
    the sum over foreground cells divided by the foreground cell count."""
    if grid.ndim != 2 or grid.size != x.shape[1]:
        raise DimensionError("grid %s does not match descriptors %s"
                             % (grid.shape, x.shape))
    check_binary(grid, "feature grid")
    fg = float(grid.sum())
    if fg == 0.0:
        raise DegenerateEpisodeError("support mask has no foreground at feature "
                                     "resolution")
    summed = ad.tensor_sum(ad.mul(x, grid.reshape(1, grid.size)), axis=1,
                           keepdims=True)
    return ad.mul(summed, 1.0 / fg)
