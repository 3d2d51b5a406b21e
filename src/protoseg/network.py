"""Whole-model assembly: encoder, optional branches, fusion head.

Either branch can be switched off; a disabled branch's slot in the fusion
head is filled with the raw query descriptors, so the head geometry never
changes and ablation rows stay weight-compatible where modules are shared.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor
from .config import Config
from .encoder import (STRIDE, Encoder, apply_mask, kshot_average,
                      mask_to_feature_grid, masked_avg_pool, to_descriptors)
from .episodes import Episode
from .errors import DegenerateEpisodeError, DimensionError
from .excitation import FeatureExcitation
from .fusion import FusionHead, bce_loss
from .reasoning import GraphReasoning


class FewShotSegmenter:
    """1-way K-shot segmentation network driven by a Config."""

    def __init__(self, config: Config, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.grid = g = config.image_size // STRIDE
        seed = config.seed
        self.encoder = Encoder(3, config.channels, config.encoder_width,
                               config.encoder_depth, seed, dtype)
        self.reasoning = (GraphReasoning(config.channels, config.proto_dim,
                                         config.gcn_depth, g, seed, dtype)
                          if config.graph_reasoning else None)
        self.excitation = (FeatureExcitation(config.channels, config.reduction,
                                             g, config.edge_fusion, seed, dtype)
                           if config.excitation else None)
        self.head = FusionHead(config.channels, g, config.image_size, seed,
                               dtype)

    # -- parameter bookkeeping ----------------------------------------------

    def parameters(self) -> list[Parameter]:
        modules = (self.encoder, self.reasoning, self.excitation, self.head)
        return [p for m in modules if m is not None for p in m.parameters()]

    def parameter_dict(self) -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for p in self.parameters():
            if p.name in out:
                raise DimensionError("duplicate parameter name %r" % p.name)
            out[p.name] = p
        return out

    def parameter_count(self) -> int:
        return sum(self.module_parameter_counts().values())

    def module_parameter_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for p in self.parameters():
            module = p.name.split(".", 1)[0]
            counts[module] = counts.get(module, 0) + p.size
        return counts

    def load_parameter_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameter_dict()
        if set(arrays) != set(params):
            missing = sorted(set(params) - set(arrays))
            extra = sorted(set(arrays) - set(params))
            raise DimensionError("parameter sets differ (missing %s, extra %s)"
                                 % (missing, extra))
        for name, p in params.items():
            arr = arrays[name]
            if arr.shape != p.shape:
                raise DimensionError("parameter %r shape %s does not match %s"
                                     % (name, arr.shape, p.shape))
            p.data = arr.astype(self.dtype, copy=True)

    # -- forward -------------------------------------------------------------

    def encode_support(self, episode: Episode) -> tuple[Tensor, np.ndarray]:
        """K-averaged masked support descriptors plus the union feature grid."""
        masked = []
        grids = []
        for img, msk in zip(episode.images[:-1], episode.masks[:-1]):
            fmap = self.encoder(img.astype(self.dtype, copy=False))
            grid = mask_to_feature_grid(msk.astype(self.dtype, copy=False),
                                        self.grid)
            masked.append(apply_mask(fmap, grid))
            grids.append(grid)
        union = np.clip(np.sum(grids, axis=0), 0.0, 1.0).astype(self.dtype)
        if not np.any(union):
            raise DegenerateEpisodeError("support masks vanish at feature "
                                         "resolution (episode seed %d)"
                                         % episode.seed)
        return to_descriptors(kshot_average(masked)), union

    def forward(self, episode: Episode) -> Tensor:
        """Foreground probabilities of the query image, (H, W)."""
        # K is free at inference; config.k_shot only steers episode sampling.
        image = episode.images[-1].astype(self.dtype, copy=False)
        x_q = to_descriptors(self.encoder(image))
        x_s, union = self.encode_support(episode)
        main = self.reasoning(x_s, x_q) if self.reasoning is not None else x_q
        aux = (self.excitation(x_s, masked_avg_pool(x_s, union), x_q)
               if self.excitation is not None else x_q)
        return self.head(main, aux)

    def episode_loss(self, episode: Episode) -> Tensor:
        return bce_loss(self.forward(episode),
                        episode.masks[-1].astype(self.dtype, copy=False))

    __call__ = forward
