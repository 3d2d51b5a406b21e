"""Fusion head, bilinear upsampling, BCE, binarization."""

import numpy as np
import pytest

import protoseg.autodiff as ad
from protoseg.autodiff import Parameter, Tensor, grad_check
from protoseg.errors import DimensionError, ValidationError
from protoseg.bilinear import bilinear_matrix
from protoseg.fusion import FusionHead, bce_loss, binarize


# ---------------------------------------------------------------------------
# bilinear matrices


@pytest.mark.parametrize("dst,src", [(8, 2), (16, 4), (7, 3), (5, 5), (12, 4)])
def test_bilinear_rows_sum_to_one(dst, src):
    m = bilinear_matrix(dst, src)
    assert m.shape == (dst, src)
    assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-12
    assert m.min() >= 0.0


def test_bilinear_identity_when_same_size():
    assert np.allclose(bilinear_matrix(6, 6), np.eye(6), atol=1e-12)


def test_bilinear_constant_maps_to_constant():
    m = bilinear_matrix(16, 4)
    up = m @ np.full((4, 4), 3.7) @ m.T
    assert np.abs(up - 3.7).max() < 1e-12


def test_bilinear_preserves_linear_ramp_interior():
    # Away from the clamped borders the interpolation is exact on affine maps.
    src = np.arange(6, dtype=np.float64)
    m = bilinear_matrix(12, 6)
    up = m @ src
    centers = (np.arange(12) + 0.5) * 6 / 12 - 0.5
    inside = (centers >= 0) & (centers <= 5)
    assert np.abs(up[inside] - centers[inside]).max() < 1e-12


# ---------------------------------------------------------------------------
# binarize / bce


def test_binarize_threshold_and_ties():
    p = Tensor(np.array([[0.2, 0.5], [0.51, 0.49]]))
    out = binarize(p)
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_binarize_rejects_out_of_range():
    with pytest.raises(ValidationError):
        binarize(Tensor(np.array([[1.2]])))
    with pytest.raises(ValidationError):
        binarize(Tensor(np.array([[-0.1]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_binarize_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        binarize(Tensor(np.array([[0.5, bad]])))


def probs_from_logits(z):
    return ad.sigmoid(Tensor(np.asarray(z, dtype=np.float64)))


def test_bce_at_half_is_ln2():
    pred = probs_from_logits(np.zeros((4, 4)))
    target = np.random.default_rng(0).integers(0, 2, (4, 4)).astype(np.float64)
    assert abs(bce_loss(pred, target).item() - np.log(2.0)) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_bce_matches_naive(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=2.0, size=(3, 5))
    t = rng.integers(0, 2, (3, 5)).astype(np.float64)
    got = bce_loss(probs_from_logits(z), t).item()
    p = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-7, 1.0 - 1e-7)
    want = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean()
    assert abs(got - want) < 1e-12


def test_bce_saturated_logits_stay_finite():
    pred = probs_from_logits(np.array([[40.0, -40.0]]))
    target = np.array([[0.0, 1.0]])
    value = bce_loss(pred, target).item()
    assert np.isfinite(value)
    assert abs(value - (-np.log(1e-7))) < 1e-6


def test_bce_shape_and_binary_validation():
    pred = probs_from_logits(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        bce_loss(pred, np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        bce_loss(pred, np.full((2, 2), 0.4))


def test_bce_accepts_nested_list_target():
    pred = probs_from_logits(np.array([[1.5, -0.5], [0.25, -2.0]]))
    listed = bce_loss(pred, [[0, 1], [1, 0]]).item()
    assert listed == bce_loss(pred, np.array([[0.0, 1.0], [1.0, 0.0]])).item()
    with pytest.raises(DimensionError):
        bce_loss(pred, [[0, 1]])


def test_bce_rejects_tensor_target_by_type():
    pred = probs_from_logits(np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="target mask must be a numeric "
                                              "array, got Tensor"):
        bce_loss(pred, Tensor(np.eye(2)))


def test_bce_gradient():
    z = Parameter("z", np.random.default_rng(1).normal(size=(3, 3)))
    t = np.random.default_rng(2).integers(0, 2, (3, 3)).astype(np.float64)

    def f():
        return bce_loss(ad.sigmoid(z), t)

    assert grad_check(f, [z], eps=1e-6) < 1e-8


# ---------------------------------------------------------------------------
# head


def make_head(channels=4, grid=3, out=12, seed=0):
    return FusionHead(channels, grid, out, seed, dtype=np.float64)


def rand_branch(channels, count, seed):
    return Tensor(np.random.default_rng(seed).normal(size=(channels, count)))


def test_head_output_geometry_and_prob_invariant():
    head = make_head()
    probs = head(rand_branch(4, 9, 3), rand_branch(4, 9, 4))
    assert probs.shape == (12, 12)
    assert np.all((probs.data > 0.0) & (probs.data < 1.0))


def test_head_opens_at_exactly_half():
    # Zero classifier init: before any training the head must emit logit 0,
    # so exactly p = sigmoid(0) = 0.5, for every pixel regardless of seed or
    # inputs.
    for seed in (0, 1, 17):
        head = make_head(seed=seed)
        probs = head(rand_branch(4, 9, seed), rand_branch(4, 9, seed + 50))
        assert np.array_equal(probs.data, np.full((12, 12), 0.5))


def test_head_residual_zero_weight_identity():
    head = make_head()
    for w, b in head.convs:
        w.data[:] = 0.0
        b.data[:] = 0.0
    head.cls_w.data[:] = 0.0
    head.cls_b.data[:] = 1.3
    probs = head(rand_branch(4, 9, 5), rand_branch(4, 9, 6))
    assert np.abs(probs.data - 1.0 / (1.0 + np.exp(-1.3))).max() < 1e-12


def test_head_rejects_branch_mismatch():
    head = make_head()
    with pytest.raises(DimensionError):
        head(rand_branch(4, 9, 7), rand_branch(4, 8, 8))
    with pytest.raises(DimensionError):
        head(rand_branch(3, 9, 9), rand_branch(3, 9, 10))


def test_head_gradients():
    head = make_head(channels=3, grid=2, out=4, seed=2)
    # zero-init layers hide gradient paths; audit at a generic point
    rng = np.random.default_rng(11)
    for p in head.parameters():
        p.data[:] = rng.normal(0.0, 0.1, size=p.shape)
    main = rand_branch(3, 4, 12)
    aux = rand_branch(3, 4, 13)
    target = np.random.default_rng(14).integers(0, 2, (4, 4)).astype(np.float64)

    def f():
        return bce_loss(head(main, aux), target)

    assert grad_check(f, head.parameters(), eps=1e-6, max_coords_per_param=8) < 1e-6
