"""Excitation branch: masked pooling, gates, edge field, fusion."""

import numpy as np
import pytest

import protoseg.autodiff as ad
from protoseg.autodiff import Parameter, Tensor, grad_check
from protoseg.errors import (ConfigError, DegenerateEpisodeError,
                             DimensionError, ValidationError)
from protoseg.encoder import masked_avg_pool
from protoseg.excitation import FeatureExcitation, edge_similarity, guide

from oracles import naive_edge_cosine, naive_masked_pool


def rand_ds(channels, h, w, seed, dtype=np.float64, grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(channels, h * w)).astype(dtype),
                  requires_grad=grad)


# ---------------------------------------------------------------------------
# masked pooling


@pytest.mark.parametrize("seed", range(10))
def test_masked_pool_matches_naive(seed):
    rng = np.random.default_rng(seed)
    ds = rand_ds(4, 3, 3, seed)
    grid = (rng.random((3, 3)) > 0.4).astype(np.float64)
    if grid.sum() == 0:
        grid[1, 1] = 1.0
    got = masked_avg_pool(ds, grid).data
    want = naive_masked_pool(ds.data, grid)
    assert got.shape == (4, 1)
    assert np.abs(got - want).max() < 1e-12


def test_masked_pool_full_grid_is_plain_mean():
    ds = rand_ds(3, 2, 2, 1)
    got = masked_avg_pool(ds, np.ones((2, 2))).data
    assert np.allclose(got, ds.data.mean(axis=1, keepdims=True), atol=1e-12)


def test_masked_pool_empty_grid_raises():
    ds = rand_ds(3, 2, 2, 2)
    with pytest.raises(DegenerateEpisodeError):
        masked_avg_pool(ds, np.zeros((2, 2)))


def test_masked_pool_rejects_non_binary():
    ds = rand_ds(3, 2, 2, 3)
    with pytest.raises(ValidationError):
        masked_avg_pool(ds, np.full((2, 2), 0.7))


def test_masked_pool_rejects_size_mismatch():
    ds = rand_ds(3, 2, 2, 4)
    with pytest.raises(DimensionError):
        masked_avg_pool(ds, np.ones((3, 2)))


def test_guide_broadcasts_channelwise():
    ds = rand_ds(3, 2, 2, 5)
    pooled = Tensor(np.array([[2.0], [0.0], [-1.0]]))
    out = guide(pooled, ds).data
    assert np.allclose(out[0], 2.0 * ds.data[0])
    assert np.all(out[1] == 0.0)
    with pytest.raises(DimensionError):
        guide(Tensor(np.ones((4, 1))), ds)


# ---------------------------------------------------------------------------
# edge field


@pytest.mark.parametrize("seed", range(20))
def test_edge_similarity_matches_naive(seed):
    xq = rand_ds(4, 2, 3, 600 + seed)
    xs = rand_ds(4, 2, 2, 700 + seed)
    got = edge_similarity(xq, xs).data
    want = naive_edge_cosine(xq.data, xs.data)
    assert got.shape == (6, 4)
    assert np.abs(got - want).max() < 1e-7


def test_edge_similarity_range_and_zero_column():
    xq = rand_ds(4, 2, 2, 8)
    xs_data = np.random.default_rng(9).normal(size=(4, 4))
    xs_data[:, 2] = 0.0  # masked background descriptor
    xs = Tensor(xs_data)
    got = edge_similarity(xq, xs).data
    assert np.abs(got).max() <= 1.0 + 1e-9
    assert np.all(got[:, 2] == 0.0)


def test_edge_similarity_rejects_channel_mismatch():
    with pytest.raises(DimensionError):
        edge_similarity(rand_ds(4, 2, 2, 0), rand_ds(3, 2, 2, 1))


# ---------------------------------------------------------------------------
# attention gates


def make_branch(channels=8, reduction=4, grid=4, edges=True, seed=0):
    return FeatureExcitation(channels, reduction, grid, edges, seed,
                             dtype=np.float64)


def test_construction_validates_reduction():
    with pytest.raises(ConfigError):
        make_branch(channels=6, reduction=4)


def test_channel_attention_zero_weights_halve():
    br = make_branch()
    for p in (br.squeeze_w, br.squeeze_b, br.expand_w, br.expand_b):
        p.data[:] = 0.0
    x = rand_ds(8, 4, 4, 10)
    out = br.channel_attention(x).data
    assert np.array_equal(out, 0.5 * x.data)


def test_spatial_attention_zero_weights_halve():
    br = make_branch()
    br.spatial_w.data[:] = 0.0
    br.spatial_b.data[:] = 0.0
    x = rand_ds(8, 4, 4, 11)
    out = br.spatial_attention(x).data
    assert np.allclose(out, 0.5 * x.data, atol=1e-15)


def test_channel_attention_gate_bounds():
    br = make_branch(seed=3)
    x = rand_ds(8, 4, 4, 12)
    out = br.channel_attention(x).data
    ratio = out / np.where(x.data == 0.0, 1.0, x.data)
    assert ratio.min() >= 0.0 - 1e-12 and ratio.max() <= 1.0 + 1e-12


def test_fuse_edges_identity_projection_case():
    # Weight = [I | 0] with zero bias must pass the excited block through
    # untouched, ignoring the edge columns.
    br = make_branch(channels=4, reduction=2, grid=3, edges=True)
    br.fuse_w.data[:] = 0.0
    for i in range(4):
        br.fuse_w.data[i, i] = 1.0
    br.fuse_b.data[:] = 0.0
    p_e = rand_ds(4, 3, 3, 13)
    d = Tensor(np.random.default_rng(14).normal(size=(9, 9)))
    out = br.fuse_edges(p_e, d).data
    assert np.array_equal(out, p_e.data)


def test_fuse_edges_disabled_raises():
    br = make_branch(edges=False)
    with pytest.raises(ConfigError):
        br.fuse_edges(rand_ds(8, 4, 4, 15), Tensor(np.zeros((16, 16))))


def test_fuse_edges_rejects_bad_field_shape():
    br = make_branch(channels=4, reduction=2, grid=3, edges=True)
    with pytest.raises(DimensionError):
        br.fuse_edges(rand_ds(4, 3, 3, 16), Tensor(np.zeros((4, 9))))


def test_call_routes_both_configurations():
    xs = rand_ds(8, 4, 4, 17)
    xq = rand_ds(8, 4, 4, 18)
    grid = (np.random.default_rng(19).random((4, 4)) > 0.5).astype(np.float64)
    if grid.sum() == 0:
        grid[0, 0] = 1.0
    guidance = masked_avg_pool(xs, grid)
    with_edges = make_branch(edges=True)(xs, guidance, xq)
    without = make_branch(edges=False)(xs, guidance, xq)
    assert with_edges.shape == (8, 16)
    assert without.shape == (8, 16)
    assert not np.array_equal(with_edges.data, without.data)


def test_call_gates_by_the_given_guidance():
    # Zero weights make both attention gates sigmoid(0) = 0.5, so the
    # output is the query scaled channel-wise by the guidance, then by 1/4.
    br = make_branch(edges=False)
    for p in br.parameters():
        p.data[:] = 0.0
    xs = rand_ds(8, 4, 4, 23)
    xq = rand_ds(8, 4, 4, 24)
    g = Tensor(np.random.default_rng(25).normal(size=(8, 1)))
    assert np.array_equal(br(xs, g, xq).data, xq.data * g.data * 0.25)


# ---------------------------------------------------------------------------
# gradients


def test_branch_gradients():
    br = make_branch(channels=6, reduction=3, grid=2, edges=True, seed=5)
    xs = rand_ds(6, 2, 2, 20)
    xq = rand_ds(6, 2, 2, 21)
    grid = np.array([[1.0, 0.0], [1.0, 1.0]])

    def f():
        out = br(xs, masked_avg_pool(xs, grid), xq)
        return ad.tensor_mean(ad.mul(out, out))

    err = grad_check(f, br.parameters(), eps=1e-6, max_coords_per_param=6)
    assert err < 1e-4


def test_masked_pool_gradient():
    data = Parameter("x", np.random.default_rng(22).normal(size=(3, 4)))
    grid = np.array([[1.0, 0.0], [0.0, 1.0]])

    def f():
        pooled = masked_avg_pool(data, grid)
        return ad.tensor_sum(ad.mul(pooled, pooled))

    assert grad_check(f, [data], eps=1e-6) < 1e-8
