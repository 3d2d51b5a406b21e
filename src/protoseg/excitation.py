"""Feature-space excitation of query descriptors by support guidance.

The query is gated channel-wise by the (c, 1) guidance vector it is given,
which the network pools from the support foreground. The gated map then
passes channel and spatial attention. Optionally an edge route concatenates
the global query/support cosine field and fuses it back down to c channels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .encoder import from_descriptors, to_descriptors
from .errors import ConfigError, DimensionError
from .reasoning import COSINE_EPS, NORM_SQ_EPS

SPATIAL_KERNEL = 7          # width of the spatial attention conv


def guide(pooled: Tensor, x_q: Tensor) -> Tensor:
    """Gate (c, l) query descriptors channel-wise by the guidance vector."""
    if pooled.shape != (x_q.shape[0], 1):
        raise DimensionError("guidance must be (c, 1), got %s" % (pooled.shape,))
    return ad.mul(x_q, pooled)


def edge_similarity(x_q: Tensor, x_s: Tensor) -> Tensor:
    """Cosine similarity between every query/support descriptor pair,
    shaped (l_q, l_s). Zero descriptors (masked background) score 0, and the
    floored norms keep their gradients finite instead of inf * 0."""
    if x_q.shape[0] != x_s.shape[0]:
        raise DimensionError("descriptor channel mismatch: %s vs %s"
                             % (x_q.shape, x_s.shape))
    inner = ad.matmul(ad.transpose(x_q), x_s)
    nq = ad.power(ad.clamp(ad.tensor_sum(ad.mul(x_q, x_q), axis=0, keepdims=True),
                           lo=NORM_SQ_EPS), 0.5)
    ns = ad.power(ad.clamp(ad.tensor_sum(ad.mul(x_s, x_s), axis=0, keepdims=True),
                           lo=NORM_SQ_EPS), 0.5)
    denom = ad.matmul(ad.transpose(nq), ns)
    return ad.mul(inner, ad.power(ad.clamp(denom, lo=COSINE_EPS), -1.0))


class FeatureExcitation(Module):
    """Channel + spatial attention over guided (c, l) query descriptors of a
    fixed grid x grid map, with an optional global-edge fusion route."""

    def __init__(self, channels: int, reduction: int, grid: int,
                 edge_fusion: bool, seed: int, dtype=np.float32):
        super().__init__("excitation", seed, dtype)
        self.channels = channels
        self.hidden = channels // reduction
        self.grid = grid
        self.edge_fusion = edge_fusion

        k = SPATIAL_KERNEL
        self.squeeze_w, self.squeeze_b = self.layer("squeeze", (self.hidden, channels))
        self.expand_w, self.expand_b = self.layer("expand", (channels, self.hidden))
        self.spatial_w, self.spatial_b = self.layer("spatial", (1, channels, k, k))
        if edge_fusion:
            self.fuse_w, self.fuse_b = self.layer(
                "fuse_edges", (channels, channels + grid * grid))

    def channel_attention(self, p: Tensor) -> Tensor:
        """Bottleneck over the pooled channel vector; sigmoid gate on (c, l).
        All-zero weights reduce to scaling by one half."""
        if p.data.ndim != 2 or p.shape[0] != self.channels:
            raise DimensionError("expected (c, l) with c=%d, got %s"
                                 % (self.channels, p.shape))
        pooled = ad.avg_pool_global(p)
        h = ad.relu(ad.conv1d(pooled, self.squeeze_w, self.squeeze_b))
        gate = ad.sigmoid(ad.conv1d(h, self.expand_w, self.expand_b))
        return ad.mul(p, gate)

    def spatial_attention(self, p: Tensor) -> Tensor:
        """Single-channel conv gate over the (h, w) layout of p."""
        fmap = from_descriptors(p, self.grid)
        gate = ad.sigmoid(ad.conv2d(fmap, self.spatial_w, self.spatial_b))
        return to_descriptors(ad.mul(fmap, gate))

    def fuse_edges(self, p_e: Tensor, d: Tensor) -> Tensor:
        """Concatenate the edge field below the excited descriptors and mix
        back down to c channels with a pointwise conv."""
        if not self.edge_fusion:
            raise ConfigError("edge fusion route was disabled at construction")
        if d.shape != (self.grid * self.grid, p_e.shape[1]):
            raise DimensionError("edge field %s does not match descriptors %s"
                                 % (d.shape, p_e.shape))
        stacked = ad.concat([p_e, d])
        return ad.conv1d(stacked, self.fuse_w, self.fuse_b)

    def __call__(self, x_s: Tensor, guidance: Tensor, x_q: Tensor) -> Tensor:
        excited = self.channel_attention(guide(guidance, x_q))
        excited = self.spatial_attention(excited)
        if self.edge_fusion:
            return self.fuse_edges(excited, edge_similarity(x_q, x_s))
        return excited
