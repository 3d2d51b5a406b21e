"""Backbone, descriptor layout, mask plumbing, K-shot identities."""

import numpy as np
import pytest

import protoseg.autodiff as ad
from protoseg.autodiff import Tensor
from protoseg.encoder import (Encoder, apply_mask, from_descriptors,
                              kshot_average, mask_to_feature_grid,
                              to_descriptors)
from protoseg.errors import DimensionError, ValidationError


def rand_image(size=16, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(3, size, size)).astype(dtype)


def test_encoder_output_geometry():
    enc = Encoder(3, 8, width=4, depth=4, seed=0)
    fmap = enc(rand_image(16))
    assert fmap.shape == (8, 4, 4)  # two stride-2 blocks: 16 -> 8 -> 4


def test_encoder_rejects_indivisible_input():
    enc = Encoder(3, 8, width=4, depth=4, seed=0)
    with pytest.raises(DimensionError):
        enc(np.zeros((3, 15, 16), dtype=np.float32))


def test_encoder_deterministic_init():
    a = Encoder(3, 8, width=4, depth=4, seed=5)
    b = Encoder(3, 8, width=4, depth=4, seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)


def test_encoder_extra_depth_keeps_geometry():
    enc = Encoder(3, 8, width=4, depth=6, seed=0)
    assert enc(rand_image(16)).shape == (8, 4, 4)


# ---------------------------------------------------------------------------
# descriptor layout


def test_descriptor_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    fmap = Tensor(rng.normal(size=(5, 6, 6)).astype(np.float32))
    ds = to_descriptors(fmap)
    assert ds.shape == (5, 36)
    back = from_descriptors(ds, 6)
    assert back.data.dtype == fmap.data.dtype
    assert np.array_equal(back.data, fmap.data)


def test_descriptor_order_is_row_major():
    fmap = Tensor(np.arange(12, dtype=np.float32).reshape(1, 3, 4))
    ds = to_descriptors(fmap)
    assert np.array_equal(ds.data[0], np.arange(12, dtype=np.float32))


def test_descriptor_round_trip_differentiable():
    from protoseg.autodiff import Parameter, Tape, backward

    p = Parameter("f", np.ones((2, 3, 3)))
    with Tape() as tape:
        ds = to_descriptors(p)
        out = ad.tensor_sum(ad.mul(ds, 2.0))
    backward(tape, out)
    assert np.allclose(p.grad, 2.0)


# ---------------------------------------------------------------------------
# mask plumbing


def test_mask_to_feature_grid_majority_pool():
    mask = np.zeros((8, 8), dtype=np.float32)
    mask[0:4, 0:4] = 1.0          # cell (0,0) fully on
    mask[0:2, 4:8] = 1.0          # cell (0,1) exactly half: ties go up
    mask[4, 0] = 1.0              # cell (1,0) 1/16 on
    grid = mask_to_feature_grid(mask, 2)
    assert np.array_equal(grid, np.array([[1, 1], [0, 0]], dtype=np.float32))


def test_mask_grid_rejects_indivisible():
    with pytest.raises(DimensionError):
        mask_to_feature_grid(np.zeros((9, 8), dtype=np.float32), 2)


def test_mask_grid_rejects_non_square():
    # Both sides divide by the grid, but the feature grid is square.
    with pytest.raises(DimensionError):
        mask_to_feature_grid(np.zeros((8, 4), dtype=np.float32), 2)


def test_mask_grid_rejects_non_binary():
    with pytest.raises(ValidationError):
        mask_to_feature_grid(np.full((8, 8), 0.3, dtype=np.float32), 2)


def test_apply_mask_zeroes_background():
    rng = np.random.default_rng(4)
    fmap = Tensor(rng.normal(size=(3, 2, 4)).astype(np.float32))
    grid = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.float32)
    masked = apply_mask(fmap, grid)
    off = grid == 0
    assert np.all(masked.data[:, off] == 0.0)
    assert np.array_equal(masked.data[:, ~off], fmap.data[:, ~off])


def test_apply_mask_idempotent_bit_exact():
    rng = np.random.default_rng(5)
    fmap = Tensor(rng.normal(size=(3, 2, 2)).astype(np.float32))
    grid = np.array([[1, 0], [0, 1]], dtype=np.float32)
    once = apply_mask(fmap, grid)
    twice = apply_mask(once, grid)
    assert np.array_equal(once.data, twice.data)


def test_apply_mask_rejects_non_binary_grid():
    fmap = Tensor(np.ones((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValidationError):
        apply_mask(fmap, np.full((2, 2), 0.5, dtype=np.float32))


# ---------------------------------------------------------------------------
# K-shot averaging


def test_kshot_single_is_identity():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    out = kshot_average([x])
    assert np.array_equal(out.data, x.data)


def test_kshot_identical_shots_average_to_self():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float64))
    out = kshot_average([x, x, x, x])
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_kshot_mean_matches_numpy():
    rng = np.random.default_rng(8)
    shots = [Tensor(rng.normal(size=(3, 4))) for _ in range(5)]
    out = kshot_average(shots)
    want = np.mean([s.data for s in shots], axis=0)
    assert np.allclose(out.data, want, atol=1e-12)


def test_kshot_rejects_empty():
    with pytest.raises(DimensionError):
        kshot_average([])
