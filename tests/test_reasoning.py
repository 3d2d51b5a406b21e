"""Graph branch: adjacency, Laplacian spectrum, GCN, reflect residual."""

import numpy as np
import pytest

import protoseg.autodiff as ad
from protoseg.autodiff import Parameter, Tensor, grad_check
from protoseg.errors import ConfigError, DimensionError, ValidationError
from protoseg.reasoning import (GraphReasoning, build_adjacency, gcn_forward,
                                normalized_laplacian)

from oracles import naive_cosine_rows


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# adjacency


@pytest.mark.parametrize("seed", range(20))
def test_adjacency_matches_relu_cosine_oracle(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(6, 4))
    got = build_adjacency(t64(g)).data
    want = np.maximum(naive_cosine_rows(g), 0.0)
    np.fill_diagonal(want, 0.0)
    want = 0.5 * (want + want.T)
    assert np.abs(got - want).max() < 1e-10


def test_adjacency_properties():
    rng = np.random.default_rng(42)
    g = rng.normal(size=(8, 5))
    a = build_adjacency(t64(g)).data
    assert np.array_equal(a, a.T)          # symmetrized bitwise
    assert np.all(np.diag(a) == 0.0)
    assert a.min() >= 0.0 and a.max() <= 1.0 + 1e-12


def test_adjacency_zero_row_scores_zero():
    g = np.zeros((4, 3))
    g[0] = [1.0, 0.0, 0.0]
    g[1] = [1.0, 1.0, 0.0]
    a = build_adjacency(t64(g)).data
    assert np.all(a[2] == 0.0) and np.all(a[:, 3] == 0.0)


def test_adjacency_gradient_finite_with_zero_rows():
    # Cosine is discontinuous at a zero row; the norm floors must block the
    # gradient there instead of producing inf/nan (0**-0.5 style blowups).
    from protoseg.autodiff import Tape, backward

    g = Parameter("g", np.vstack([np.zeros(3), np.ones(3), [1.0, -2.0, 0.5]]))
    with Tape() as tape:
        out = ad.tensor_sum(build_adjacency(g))
    backward(tape, out)
    assert np.all(np.isfinite(g.grad))
    assert np.all(g.grad[0] == 0.0)  # clamped-off row contributes nothing


def test_adjacency_gradient_check_away_from_zero_rows():
    rng = np.random.default_rng(77)
    g = Parameter("g", rng.normal(size=(5, 4)) + 0.5)

    def f():
        return ad.tensor_sum(build_adjacency(g))

    assert grad_check(f, [g], eps=1e-6) < 1e-7


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_of_zero_adjacency_is_identity_exactly():
    lap = normalized_laplacian(Tensor(np.zeros((5, 5)))).data
    assert np.array_equal(lap, np.eye(5))


def test_laplacian_two_node_hand_case():
    # A = [[0, .5], [.5, 0]]: degrees 1.5, L = (A + I) / 1.5
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    lap = normalized_laplacian(t64(a)).data
    want = (a + np.eye(2)) / 1.5
    assert np.abs(lap - want).max() < 1e-12


@pytest.mark.parametrize("seed", range(100))
def test_laplacian_spectrum_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    m = np.abs(rng.normal(size=(n, n)))
    a = 0.5 * (m + m.T)
    np.fill_diagonal(a, 0.0)
    lap = normalized_laplacian(t64(a)).data
    assert np.abs(lap - lap.T).max() < 1e-6
    eig = np.linalg.eigvalsh(lap)
    assert eig.min() >= -1.0 - 1e-6
    assert eig.max() <= 1.0 + 1e-6


def test_laplacian_rejects_negative_entries():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = -0.1
    with pytest.raises(ValidationError):
        normalized_laplacian(t64(a))


def test_laplacian_rejects_asymmetry():
    a = np.zeros((3, 3))
    a[0, 1] = 0.9
    with pytest.raises(ValidationError):
        normalized_laplacian(t64(a))


def test_laplacian_rejects_non_square():
    with pytest.raises(DimensionError):
        normalized_laplacian(Tensor(np.zeros((3, 4))))


# ---------------------------------------------------------------------------
# GCN


def test_gcn_identity_setup_is_inert():
    rng = np.random.default_rng(1)
    h = np.abs(rng.normal(size=(4, 4)))  # nonneg so relu is transparent
    out = gcn_forward(t64(h), Tensor(np.eye(4)), [Tensor(np.eye(4))])
    assert np.array_equal(out.data, h)


def test_gcn_matches_manual_two_layers():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(3, 3))
    lap = normalized_laplacian(t64(build_adjacency(t64(rng.normal(size=(3, 5)))).data))
    t0, t1 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    got = gcn_forward(t64(h), lap, [t64(t0), t64(t1)]).data
    step1 = np.maximum(lap.data @ h @ t0, 0.0)
    want = np.maximum(lap.data @ step1 @ t1, 0.0)
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# branch wiring


def rand_ds(channels, h, w, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(channels, h * w)).astype(dtype),
                  requires_grad=True)


def test_branch_shapes_and_param_names():
    br = GraphReasoning(channels=8, proto_dim=4, gcn_depth=2, grid=4,
                        seed=0, dtype=np.float64)
    names = [p.name for p in br.parameters()]
    assert all(n.startswith("reasoning.") for n in names)
    assert len(names) == len(set(names))
    out = br(rand_ds(8, 4, 4, 1), rand_ds(8, 4, 4, 2))
    assert out.shape == (8, 16)


def test_branch_rejects_bad_dims():
    with pytest.raises(ConfigError):
        GraphReasoning(channels=8, proto_dim=1, gcn_depth=2, grid=2, seed=0)
    with pytest.raises(ConfigError):
        GraphReasoning(channels=8, proto_dim=4, gcn_depth=0, grid=2, seed=0)
    br = GraphReasoning(channels=8, proto_dim=4, gcn_depth=1, grid=2, seed=0)
    with pytest.raises(DimensionError):
        br.project(rand_ds(4, 2, 2, 0))


def test_reflect_zero_relations_residual_identity():
    # With G = 0 the standardized reflection is exactly zero (constants are
    # killed by centering), so the branch must return the query bit-exact.
    br = GraphReasoning(channels=8, proto_dim=4, gcn_depth=1, grid=4,
                        seed=3, dtype=np.float64)
    x_q = rand_ds(8, 4, 4, 9)
    node, _ = br.project(x_q)
    zero_rel = Tensor(np.zeros((4, 4)))
    out = br.reflect(zero_rel, node, x_q)
    assert np.array_equal(out.data, x_q.data)


def test_reflect_zero_relations_identity_with_nonzero_bias():
    br = GraphReasoning(channels=8, proto_dim=4, gcn_depth=1, grid=4,
                        seed=3, dtype=np.float64)
    br.reflect_b.data[:] = 1.7  # constant shift; centering removes it
    x_q = rand_ds(8, 4, 4, 10)
    node, _ = br.project(x_q)
    out = br.reflect(Tensor(np.zeros((4, 4))), node, x_q)
    assert np.array_equal(out.data, x_q.data)


def test_branch_gradients():
    br = GraphReasoning(channels=6, proto_dim=3, gcn_depth=2, grid=3,
                        seed=4, dtype=np.float64)
    x_s = rand_ds(6, 3, 3, 11)
    x_q = rand_ds(6, 3, 3, 12)

    def f():
        out = br(x_s, x_q)
        return ad.tensor_mean(ad.mul(out, out))

    err = grad_check(f, br.parameters(), eps=1e-6, max_coords_per_param=6)
    assert err < 1e-4
