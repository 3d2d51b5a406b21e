"""Segmentation metrics and the evaluation report.

mIoU is the mean of per-class means: episode IoUs are grouped by class,
averaged within each class, then averaged across classes. Pooling all
episodes into one mean would weight classes by how often they were drawn,
which is not the same number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoder import check_binary
from .errors import DimensionError, IncompleteEvaluationError


def _counts(pred, target) -> tuple[int, np.int64, np.int64]:
    """Pixel count, intersection and union of two binary masks of one
    shape."""
    p = check_binary(pred, "prediction") != 0
    t = check_binary(target, "target") != 0
    if p.shape != t.shape:
        raise DimensionError("prediction %s and target %s differ"
                             % (p.shape, t.shape))
    return p.size, np.logical_and(p, t).sum(), np.logical_or(p, t).sum()


def _ratio(intersection, union) -> float:
    """IoU from counts; two empty masks agree perfectly (1.0)."""
    if union == 0:
        return 1.0
    return float(intersection / union)


def iou(pred, target) -> float:
    """Intersection over union; two empty masks agree perfectly (1.0)."""
    _, intersection, union = _counts(pred, target)
    return _ratio(intersection, union)


def fb_iou(pred, target) -> float:
    """Mean of the foreground IoU and the background IoU. The background
    pixels both masks share are the ones outside the foreground union, and
    those either one marks are the ones outside the intersection."""
    n, intersection, union = _counts(pred, target)
    return 0.5 * (_ratio(intersection, union)
                  + _ratio(n - union, n - intersection))


def miou(per_episode: Iterable[tuple[int, float]],
         class_ids: Sequence[int]) -> float:
    """Class-balanced mean IoU over (class_id, iou) pairs.

    Every id in class_ids must appear at least once; anything less is an
    incomplete evaluation, not a zero.
    """
    buckets: dict[int, list[float]] = {int(c): [] for c in class_ids}
    for cid, value in per_episode:
        if int(cid) in buckets:
            buckets[int(cid)].append(float(value))
    missing = sorted(c for c, vals in buckets.items() if not vals)
    if missing:
        raise IncompleteEvaluationError("no episodes for class ids %s" % missing)
    return float(np.mean([np.mean(vals) for vals in buckets.values()]))


@dataclass
class EvalReport:
    fold: int
    k_shot: int
    episodes: int
    miou: float
    fb_iou: float
    parameter_count: int
    mean_loss: float
    per_class_iou: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "k_shot": self.k_shot,
            "episodes": self.episodes,
            "miou": self.miou,
            "fb_iou": self.fb_iou,
            "parameter_count": self.parameter_count,
            "per_class_iou": {str(k): v for k, v in
                              sorted(self.per_class_iou.items())},
            "mean_loss": self.mean_loss,
        }

    def to_text(self) -> str:
        lines = [
            "fold = %d" % self.fold,
            "k_shot = %d" % self.k_shot,
            "episodes = %d" % self.episodes,
            "parameter_count = %d" % self.parameter_count,
            "miou = %.6f" % self.miou,
            "fb_iou = %.6f" % self.fb_iou,
            "mean_loss = %.6f" % self.mean_loss,
        ]
        for cid in sorted(self.per_class_iou):
            lines.append("class_%d_iou = %.6f" % (cid, self.per_class_iou[cid]))
        lines.append("json = %s" % json.dumps(self.to_dict(), sort_keys=True))
        return "\n".join(lines)
