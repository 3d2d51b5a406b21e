"""Engine tests: ops against naive-loop oracles, tape protocol, grad_check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import protoseg.autodiff as ad
from protoseg.autodiff import Tensor, Tape, Parameter, backward, grad_check
from protoseg.errors import ConfigError, DimensionError, UsageError

from oracles import (naive_conv1d, naive_conv2d, naive_matmul,
                     scatter_conv2d_input_grad)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def param(name, arr):
    return Parameter(name, t64(arr))


@pytest.mark.parametrize("seed", range(20))
def test_matmul_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n, k, m = rng.integers(1, 7, size=3)
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, m))
    got = ad.matmul(t64(a), t64(b)).data
    assert np.abs(got - naive_matmul(a, b)).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_conv1d_matches_naive(seed):
    rng = np.random.default_rng(100 + seed)
    c_in, c_out = rng.integers(1, 5, size=2)
    length = int(rng.integers(3, 12))
    k = int(rng.choice([1, 3, 5]))
    x = rng.normal(size=(c_in, length))
    w = rng.normal(size=(c_out, c_in, k))
    b = rng.normal(size=c_out)
    got = ad.conv1d(t64(x), t64(w), t64(b)).data
    assert np.abs(got - naive_conv1d(x, w, b)).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_conv2d_matches_naive(seed):
    rng = np.random.default_rng(200 + seed)
    c_in, c_out = rng.integers(1, 4, size=2)
    h, w_ = rng.integers(3, 9, size=2)
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    x = rng.normal(size=(c_in, h, w_))
    w = rng.normal(size=(c_out, c_in, k, k))
    b = rng.normal(size=c_out)
    got = ad.conv2d(t64(x), t64(w), t64(b), stride=stride).data
    assert np.abs(got - naive_conv2d(x, w, b, stride)).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_avg_pool_matches_naive(seed):
    rng = np.random.default_rng(300 + seed)
    c, l = rng.integers(1, 8, size=2)
    x = rng.normal(size=(c, l))
    got = ad.avg_pool_global(t64(x)).data
    want = x.mean(axis=1, keepdims=True)
    assert got.shape == (c, 1)
    assert np.abs(got - want).max() < 1e-12


def test_conv_rejects_even_kernel():
    x = t64(np.zeros((2, 5)))
    w = t64(np.zeros((3, 2, 4)))
    with pytest.raises(ConfigError):
        ad.conv1d(x, w)


def test_matmul_rejects_non_rank2():
    with pytest.raises(DimensionError):
        ad.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# broadcasting


def test_broadcast_right_aligned_stretch():
    a = t64(np.ones((3, 4)))
    b = t64(np.arange(4.0))
    out = ad.add(a, b)
    assert out.shape == (3, 4)
    assert np.allclose(out.data, 1.0 + np.arange(4.0))


def test_broadcast_rejects_mismatch():
    with pytest.raises(DimensionError):
        ad.add(t64(np.ones((3, 4))), t64(np.ones((2, 4))))


def test_broadcast_grad_unreduces():
    a = param("a", np.ones((3, 4)))
    b = param("b", np.ones((1, 4)))
    with Tape() as tape:
        out = ad.tensor_sum(ad.mul(a.value, b.value))
    backward(tape, out)
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    assert np.allclose(b.grad, 3.0)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_broadcast_shape_matches_numpy(n, m, k):
    shapes = [(n, 1), (1, m), (n, m), (k, n, m), (m,)]
    for sa in shapes:
        for sb in shapes:
            try:
                want = np.broadcast_shapes(sa, sb)
            except ValueError:
                want = None
            if want is None:
                with pytest.raises(DimensionError):
                    ad._broadcast_shape(sa, sb)
            else:
                assert ad._broadcast_shape(sa, sb) == want


# ---------------------------------------------------------------------------
# tape protocol


def test_backward_requires_scalar():
    x = param("x", np.ones(3))
    with Tape() as tape:
        y = ad.mul(x.value, 2.0)
    with pytest.raises(UsageError):
        backward(tape, y)


def test_backward_rejects_foreign_tape():
    x = param("x", np.ones(3))
    with Tape():
        y = ad.tensor_sum(x.value)
    with Tape() as other:
        pass
    with pytest.raises(UsageError):
        backward(other, y)


def test_backward_consumes_tape():
    x = param("x", np.ones(3))
    with Tape() as tape:
        y = ad.tensor_sum(x.value)
    backward(tape, y)
    with pytest.raises(UsageError):
        backward(tape, y)


def test_no_recording_outside_tape():
    x = param("x", np.ones(3))
    y = ad.tensor_sum(ad.mul(x.value, x.value))
    assert y._backward is None
    with Tape() as tape:
        z = ad.tensor_sum(x.value)
    assert len(tape) > 0
    backward(tape, z)


def test_grads_accumulate_across_tapes():
    x = param("x", np.full(3, 2.0))
    for _ in range(2):
        with Tape() as tape:
            y = ad.tensor_sum(ad.mul(x.value, x.value))
        backward(tape, y)
    assert np.allclose(x.grad, 2 * (2.0 * x.value.data))
    x.zero_grad()
    assert np.allclose(x.grad, 0.0)


def test_shared_subexpression_accumulates():
    x = param("x", np.array([3.0]))
    with Tape() as tape:
        y = ad.mul(x.value, x.value)
        z = ad.tensor_sum(ad.add(y, y))
    backward(tape, z)
    assert np.allclose(x.grad, 12.0)


def test_accumulate_rejects_mismatched_gradient_shape():
    # A (4,) gradient would broadcast silently onto a (3, 4) tensor.
    x = t64(np.zeros((3, 4)))
    for g in (np.ones(4), np.ones((1, 4)), np.ones((3, 4, 1))):
        with pytest.raises(DimensionError):
            ad._accumulate(x, g)
    assert x.grad is None
    ad._accumulate(x, np.ones((3, 4)))
    with pytest.raises(DimensionError):
        ad._accumulate(x, np.ones(4))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_constant_branch_gets_no_grad():
    x = param("x", np.ones(2))
    c = Tensor(np.ones(2))
    with Tape() as tape:
        y = ad.tensor_sum(ad.add(x.value, c))
    backward(tape, y)
    assert c.grad is None


# ---------------------------------------------------------------------------
# per-op gradient checks


OPS = {
    "add": lambda x: ad.tensor_sum(ad.add(x, x)),
    "mul": lambda x: ad.tensor_sum(ad.mul(x, x)),
    "power": lambda x: ad.tensor_sum(ad.power(x, 3.0)),
    "relu": lambda x: ad.tensor_sum(ad.relu(x)),
    "sigmoid": lambda x: ad.tensor_sum(ad.sigmoid(x)),
    "exp": lambda x: ad.tensor_sum(ad.exp(x)),
    "log": lambda x: ad.tensor_sum(ad.log(ad.add(ad.mul(x, x), 1.0))),
    "clamp": lambda x: ad.tensor_sum(ad.clamp(x, lo=-0.5, hi=0.5)),
    "mean": lambda x: ad.tensor_mean(x),
    "sum_axis": lambda x: ad.tensor_sum(ad.tensor_sum(x, axis=0, keepdims=True)),
    "reshape": lambda x: ad.tensor_sum(ad.mul(ad.reshape(x, -1), 2.0)),
    "transpose": lambda x: ad.tensor_sum(ad.transpose(x)),
    "sigmoid_chain": lambda x: ad.tensor_mean(ad.sigmoid(ad.mul(x, 3.0))),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1])
def test_op_gradients(name, seed):
    rng = np.random.default_rng(hash(name) % 1000 + seed)
    # keep points away from relu/clamp kinks so central differences are clean
    x = param("x", rng.normal(size=(3, 4)) + 0.1 * np.sign(rng.normal(size=(3, 4))))
    fn = OPS[name]
    assert grad_check(lambda: fn(x.value), [x], eps=1e-6) < 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients(seed):
    rng = np.random.default_rng(400 + seed)
    a = param("a", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=(4, 2)))
    c = param("c", rng.normal(size=(1, 2)))

    def f():
        h = ad.matmul(a.value, b.value)
        h = ad.add(h, c.value)
        return ad.tensor_mean(ad.mul(ad.sigmoid(h), h))

    assert grad_check(f, [a, b, c], eps=1e-6) < 1e-8


def test_conv_gradients():
    rng = np.random.default_rng(7)
    x = param("x", rng.normal(size=(2, 5, 5)))
    w = param("w", rng.normal(size=(3, 2, 3, 3)))
    b = param("b", rng.normal(size=(3,)))

    def f():
        return ad.tensor_mean(ad.power(ad.conv2d(x.value, w.value, b.value, stride=2), 2.0))

    assert grad_check(f, [x, w, b], eps=1e-6) < 1e-8


def test_conv1d_gradients():
    rng = np.random.default_rng(8)
    x = param("x", rng.normal(size=(3, 7)))
    w = param("w", rng.normal(size=(2, 3, 5)))
    b = param("b", rng.normal(size=(2, 1)))

    def f():
        return ad.tensor_mean(ad.power(ad.conv1d(x.value, w.value, b.value), 2.0))

    assert grad_check(f, [x, w, b], eps=1e-6) < 1e-8


@pytest.mark.parametrize("conv,x_shape,w_shape,stride", [
    ("conv2d", (2, 5, 5), (3, 2, 3, 3), 2),
    ("conv2d", (2, 6, 6), (3, 2, 1, 1), 1),
    ("conv1d", (3, 7), (2, 3, 5), None),
])
def test_conv_parameter_grads_independent_of_input_grad(conv, x_shape, w_shape,
                                                        stride):
    # An input without requires_grad (an image) gets no gradient; the
    # weight and bias gradients are the same bits either way.
    rng = np.random.default_rng(11)
    x = rng.normal(size=x_shape)
    w = param("w", rng.normal(size=w_shape))
    b = param("b", rng.normal(size=w_shape[:1]))
    kwargs = {} if stride is None else {"stride": stride}
    grads = {}
    for x_grad in (True, False):
        w.zero_grad()
        b.zero_grad()
        xt = t64(x, grad=x_grad)
        with Tape() as tape:
            y = getattr(ad, conv)(xt, w.value, b.value, **kwargs)
            out = ad.tensor_mean(ad.power(y, 2.0))
        backward(tape, out)
        assert (xt.grad is not None) == x_grad
        grads[x_grad] = (w.grad.copy(), b.grad.copy())
    for with_x, without_x in zip(grads[True], grads[False]):
        assert np.array_equal(with_x, without_x)


# Every conv2d shape of a desk training episode, then strides and extents
# the model does not use. Shapes: x (c_in, h, w), weight (c_out, c_in, k, k).
COL2IM_CASES = [
    ((3, 64, 64), (16, 3, 3, 3), 1, np.float32),      # encoder block 0
    ((16, 64, 64), (16, 16, 3, 3), 2, np.float32),    # encoder, stride 2
    ((16, 32, 32), (16, 16, 3, 3), 1, np.float32),    # encoder
    ((16, 32, 32), (32, 16, 3, 3), 2, np.float32),    # encoder, stride 2
    ((16, 16, 16), (32, 16, 3, 3), 1, np.float32),    # reasoning reflect
    ((64, 16, 16), (64, 64, 3, 3), 1, np.float32),    # fusion head
    ((32, 16, 16), (1, 32, 7, 7), 1, np.float32),     # spatial gate
    ((64, 16, 16), (1, 64, 1, 1), 1, np.float32),     # classifier
    ((3, 11, 10), (4, 3, 5, 5), 3, np.float32),
    ((2, 7, 9), (3, 2, 3, 3), 2, np.float64),
    ((3, 8, 13), (2, 3, 5, 5), 3, np.float64),
    ((5, 9, 6), (1, 5, 7, 7), 2, np.float64),
    ((4, 6, 5), (3, 4, 1, 1), 2, np.float64),
    ((6, 12, 12), (5, 6, 3, 3), 1, np.float64),
    # A 1-position output grid.
    ((2, 1, 1), (3, 2, 3, 3), 1, np.float64),
    ((3, 2, 2), (2, 3, 3, 3), 2, np.float64),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,dtype", COL2IM_CASES)
def test_conv2d_input_grad_matches_scatter_oracle(x_shape, w_shape, stride,
                                                  dtype):
    # The phase-plane col2im adds the same taps in the same (di, dj) order
    # as the k*k scatter it replaced, so the bytes must agree, signed zeros
    # included.
    rng = np.random.default_rng(sum(x_shape) + 10 * sum(w_shape) + stride)
    x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape).astype(dtype), requires_grad=True)
    with Tape() as tape:
        y = ad.conv2d(x, w, stride=stride)
        g = rng.normal(size=y.shape).astype(dtype)
        out = ad.tensor_sum(ad.mul(y, Tensor(g)))
    backward(tape, out)
    want = np.ascontiguousarray(scatter_conv2d_input_grad(x.data, w.data, g,
                                                          stride))
    assert x.grad.dtype == want.dtype and x.grad.shape == want.shape
    if y.shape[1:] == (1, 1):
        # With one output position the scatter's column product was a BLAS
        # matrix-vector call, whose summation order need not match the
        # matrix-matrix product; float64 results may differ in the last bit.
        assert np.abs(x.grad - want).max() <= 1e-12 * np.abs(want).max()
    else:
        assert x.grad.tobytes() == want.tobytes()


def test_concat_gradients():
    rng = np.random.default_rng(9)
    a = param("a", rng.normal(size=(2, 3)))
    b = param("b", rng.normal(size=(4, 3)))

    def f():
        return ad.tensor_mean(ad.power(ad.concat([a.value, b.value], axis=0), 2.0))

    assert grad_check(f, [a, b], eps=1e-6) < 1e-8


# ---------------------------------------------------------------------------
# grad_check contract


def test_grad_check_rejects_bad_eps():
    x = param("x", np.ones(2))
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x.value), [x], eps=1e-2)
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x.value), [x], eps=1e-9)


def test_grad_check_rejects_f32():
    x = Parameter("x", Tensor(np.ones(2, dtype=np.float32), requires_grad=True))
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x.value), [x], eps=1e-6)


def test_grad_check_flags_wrong_gradient():
    # A deliberately broken backward must be caught, otherwise the whole
    # suite proves nothing.
    x = param("x", np.array([1.3, -0.7]))

    def f():
        out = ad.mul(x.value, x.value)
        broken = ad.Tensor(out.data.copy(), requires_grad=True)
        tape = ad._active_tape()
        if tape is not None:
            ad._record(broken, [x.value], lambda g: ad._accumulate(x.value, 0.5 * g))
        return ad.tensor_sum(broken)

    assert grad_check(f, [x], eps=1e-6) > 1e-2


def test_grad_check_coordinate_sampling():
    rng = np.random.default_rng(11)
    x = param("x", rng.normal(size=(10, 10)))
    err = grad_check(lambda: ad.tensor_mean(ad.power(x.value, 2.0)), [x],
                     eps=1e-6, max_coords_per_param=5, seed=3)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# numeric hygiene


def test_float_add_associativity_tolerance():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=100)
    a = ad.tensor_sum(t64(vals)).item()
    b = ad.tensor_sum(t64(vals[::-1].copy())).item()
    assert abs(a - b) < 1e-12


def test_dtype_preserved_through_ops():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = ad.sigmoid(ad.add(ad.mul(x, 2.0), 1.0))
    assert y.data.dtype == np.float32
    z = ad.matmul(x, x)
    assert z.data.dtype == np.float32


def test_sigmoid_extreme_inputs_finite():
    x = t64([-500.0, -30.0, 0.0, 30.0, 500.0])
    y = ad.sigmoid(x)
    assert np.all(np.isfinite(y.data))
    assert y.data[0] >= 0.0 and y.data[-1] <= 1.0


def test_item_rejects_non_scalar():
    with pytest.raises(UsageError):
        t64(np.ones(3)).item()


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_reshape_round_trip(shape):
    rng = np.random.default_rng(sum(shape))
    x = t64(rng.normal(size=tuple(shape)))
    flat = ad.reshape(x, -1)
    back = ad.reshape(flat, *shape)
    assert back.shape == tuple(shape)
    assert np.array_equal(back.data, x.data)


def test_reshape_rejects_wrong_size():
    with pytest.raises(DimensionError):
        ad.reshape(t64(np.ones((2, 3))), 4, 2)
