"""Graph reasoning over local-descriptor prototypes.

Support and query descriptor sets are projected to r prototypes along two
routes (a node route and a channel route), crossed into relation matrices,
fused to one r x r relation map, and refined by a small graph convolution
whose adjacency is the relu-cosine similarity between relation rows. The
refined relations then re-weight the query prototypes and are reflected back
to feature space as a residual on the query descriptors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .encoder import from_descriptors, to_descriptors
from .errors import DimensionError, ValidationError

STANDARDIZE_EPS = 1e-5

# Zero vectors must score cosine 0 with finite gradients: the squared norms
# are floored before the square root (else its backward is inf at 0) and the
# norm product is floored before dividing. Clamping only ever shrinks the
# magnitude, so |cos| <= 1 still holds.
NORM_SQ_EPS = 1e-16
COSINE_EPS = 1e-8


def _cosine_rows(g: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows; zero rows score 0, not NaN."""
    inner = ad.matmul(g, ad.transpose(g))
    sq = ad.clamp(ad.tensor_sum(ad.mul(g, g), axis=1, keepdims=True),
                  lo=NORM_SQ_EPS)
    norms = ad.power(sq, 0.5)                      # (r, 1)
    denom = ad.matmul(norms, ad.transpose(norms))  # (r, r)
    return ad.mul(inner, ad.power(ad.clamp(denom, lo=COSINE_EPS), -1.0))


def build_adjacency(g: Tensor) -> Tensor:
    """relu(cosine) between relation rows, zero diagonal, exactly symmetric."""
    if g.data.ndim != 2:
        raise DimensionError("adjacency input must be rank 2, got %s" % (g.shape,))
    r = g.shape[0]
    sim = ad.relu(_cosine_rows(g))
    masked = ad.mul(sim, 1.0 - np.eye(r, dtype=g.data.dtype))
    # Cosine is symmetric mathematically; enforce it bitwise.
    return ad.mul(ad.add(masked, ad.transpose(masked)), 0.5)


def normalized_laplacian(a: Tensor) -> Tensor:
    """D^-1/2 (A + I) D^-1/2 with D the degree of A + I.

    Self-loops keep every degree >= 1, so isolated nodes stay well defined
    and an all-zero adjacency maps to the identity exactly.
    """
    if a.data.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("adjacency must be square, got %s" % (a.shape,))
    # A NaN would fail the symmetry check below with a misleading message,
    # and an inf on the diagonal would pass every check.
    if not np.isfinite(a.data).all():
        raise ValidationError("adjacency must be finite")
    if np.any(a.data < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    if not np.allclose(a.data, a.data.T, atol=1e-8):
        raise ValidationError("adjacency must be symmetric")
    r = a.shape[0]
    a_tilde = ad.add(a, np.eye(r, dtype=a.data.dtype))
    degree = ad.tensor_sum(a_tilde, axis=1, keepdims=True)   # (r, 1)
    inv_sqrt = ad.power(degree, -0.5)
    return ad.mul(ad.mul(a_tilde, inv_sqrt), ad.transpose(inv_sqrt))


def gcn_forward(h: Tensor, lap: Tensor, thetas: list[Tensor]) -> Tensor:
    """Stacked propagation layers: H <- relu(L H theta). No biases."""
    for theta in thetas:
        h = ad.relu(ad.matmul(ad.matmul(lap, h), theta))
    return h


class GraphReasoning(Module):
    """Parameterized branch over (c, l) descriptors of a fixed
    grid x grid map: project, relate, propagate, reflect."""

    def __init__(self, channels: int, proto_dim: int, gcn_depth: int,
                 grid: int, seed: int, dtype=np.float32):
        super().__init__(seed, dtype)
        self.channels = channels
        self.grid = grid
        c, r = channels, proto_dim
        self.node_w = self.he_weight("reasoning.project_node", (r, c))
        self.node_b = self.zeros("reasoning.project_node.bias", (r,))
        self.channel_w = self.he_weight("reasoning.project_channel", (r, c))
        self.channel_b = self.zeros("reasoning.project_channel.bias", (r,))
        self.fuse_w = self.he_weight("reasoning.fuse_relations", (r, 2 * r))
        self.fuse_b = self.zeros("reasoning.fuse_relations.bias", (r,))
        self.thetas = [self.he_weight("reasoning.gcn%d" % i, (r, r))
                       for i in range(gcn_depth)]
        self.reflect_w = self.he_weight("reasoning.reflect", (c, r, 3, 3))
        self.reflect_b = self.zeros("reasoning.reflect.bias", (c,))

    def project(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """(c, l) descriptors -> (node, channel) prototype sets, each (r, l)."""
        if x.shape != (self.channels, self.grid * self.grid):
            raise DimensionError("descriptors %s do not match branch geometry "
                                 "(c=%d, l=%d)" % (x.shape, self.channels,
                                                   self.grid * self.grid))
        return (ad.conv1d(x, self.node_w, self.node_b),
                ad.conv1d(x, self.channel_w, self.channel_b))

    def relation_matrices(self, support: tuple[Tensor, Tensor],
                          query: tuple[Tensor, Tensor]) -> Tensor:
        """Cross the two routes and fuse the stacked pair down to (r, r)."""
        s_node, s_channel = support
        q_node, q_channel = query
        g_node = ad.matmul(q_node, ad.transpose(s_channel))
        g_channel = ad.matmul(q_channel, ad.transpose(s_node))
        stacked = ad.concat([g_node, ad.transpose(g_channel)])  # (2r, r)
        return ad.conv1d(stacked, self.fuse_w, self.fuse_b)

    def reflect(self, relations: Tensor, query_node: Tensor,
                x_q: Tensor) -> Tensor:
        """Re-weight query prototypes by the refined relations, map back to
        c channels, standardize per channel, add onto the query descriptors."""
        weighted = ad.matmul(relations, query_node)            # (r, l)
        fmap = from_descriptors(weighted, self.grid)
        mapped = ad.conv2d(fmap, self.reflect_w, self.reflect_b)
        mu = ad.tensor_mean(mapped, axis=(1, 2), keepdims=True)
        centered = ad.add(mapped, ad.mul(mu, -1.0))
        var = ad.tensor_mean(ad.mul(centered, centered), axis=(1, 2), keepdims=True)
        standardized = ad.mul(centered, ad.power(ad.add(var, STANDARDIZE_EPS), -0.5))
        return ad.add(x_q, to_descriptors(standardized))

    def __call__(self, x_s: Tensor, x_q: Tensor) -> Tensor:
        support = self.project(x_s)
        query = self.project(x_q)
        g = self.relation_matrices(support, query)
        lap = normalized_laplacian(build_adjacency(g))
        refined = gcn_forward(g, lap, self.thetas)
        return self.reflect(refined, query[0], x_q)
