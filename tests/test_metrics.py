"""IoU family and the evaluation report."""

import json

import numpy as np
import pytest

from protoseg.autodiff import Tensor
from protoseg.errors import (DimensionError, IncompleteEvaluationError,
                             ValidationError)
from protoseg.metrics import EvalReport, fb_iou, iou, miou

from oracles import naive_iou


def m(rows):
    return np.array(rows, dtype=np.float64)


def test_iou_hand_cases():
    a = m([[1, 1], [0, 0]])
    b = m([[1, 0], [1, 0]])
    assert iou(a, a) == 1.0
    assert iou(a, b) == pytest.approx(1.0 / 3.0)
    assert iou(a, 1 - a) == 0.0


def test_iou_empty_empty_is_one():
    z = np.zeros((4, 4))
    assert iou(z, z) == 1.0


def test_iou_empty_vs_nonempty_is_zero():
    z = np.zeros((4, 4))
    o = np.zeros((4, 4))
    o[0, 0] = 1
    assert iou(z, o) == 0.0
    assert iou(o, z) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_iou_matches_naive(seed):
    rng = np.random.default_rng(seed)
    p = (rng.random((6, 6)) > 0.5).astype(float)
    t = (rng.random((6, 6)) > 0.5).astype(float)
    assert iou(p, t) == pytest.approx(naive_iou(p, t), abs=1e-12)
    assert fb_iou(p, t) == pytest.approx(
        0.5 * (naive_iou(p, t) + naive_iou(1 - p, 1 - t)), abs=1e-12)


def test_iou_validation():
    with pytest.raises(ValidationError):
        iou(m([[0.5]]), m([[1]]))
    with pytest.raises(DimensionError):
        iou(np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("score", [iou, fb_iou])
def test_scores_reject_tensor_masks_by_type(score):
    # A Tensor is not an array of 0/1 values: name the type, not the values.
    mask = np.eye(3)
    with pytest.raises(ValidationError, match="prediction must be a numeric "
                                              "array, got Tensor"):
        score(Tensor(mask), mask)
    with pytest.raises(ValidationError, match="target must be a numeric "
                                              "array, got Tensor"):
        score(mask, Tensor(mask))


def test_fb_iou_all_background():
    z = np.zeros((4, 4))
    assert fb_iou(z, z) == 1.0


def test_miou_is_class_balanced_not_pooled():
    # class 1: episodes 1.0 and 0.0 -> 0.5; class 2: one episode 0.0 -> 0.0
    # nested mean = 0.25; a pooled mean over episodes would say 1/3.
    pairs = [(1, 1.0), (1, 0.0), (2, 0.0)]
    got = miou(pairs, [1, 2])
    assert got == pytest.approx(0.25)
    pooled = np.mean([v for _, v in pairs])
    assert pooled == pytest.approx(1.0 / 3.0)
    assert got != pytest.approx(pooled)


def test_miou_missing_class_raises():
    with pytest.raises(IncompleteEvaluationError) as err:
        miou([(1, 0.8)], [1, 2])
    assert "2" in str(err.value)


def test_miou_ignores_unlisted_classes():
    got = miou([(1, 0.4), (9, 1.0)], [1])
    assert got == pytest.approx(0.4)


def test_eval_report_text_and_json():
    rep = EvalReport(fold=1, k_shot=5, episodes=60, miou=0.5, fb_iou=0.6,
                     parameter_count=1234, per_class_iou={3: 0.5, 1: 0.4},
                     mean_loss=0.25)
    text = rep.to_text()
    assert "fold = 1" in text
    assert "k_shot = 5" in text
    assert "miou = 0.500000" in text
    assert "class_1_iou = 0.400000" in text
    assert "mean_loss = 0.250000" in text
    last = text.splitlines()[-1]
    assert last.startswith("json = ")
    payload = json.loads(last[len("json = "):])
    assert payload["parameter_count"] == 1234
    assert payload["per_class_iou"] == {"1": 0.4, "3": 0.5}
    assert payload["mean_loss"] == 0.25
