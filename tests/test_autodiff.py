"""Engine tests: ops against naive-loop oracles, tape protocol, grad_check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import protoseg.autodiff as ad
from protoseg.autodiff import Tensor, Tape, Parameter, backward, grad_check
from protoseg.errors import ConfigError, DimensionError, UsageError
from protoseg.harness import SGD

from oracles import (naive_conv1d, naive_conv2d, naive_matmul,
                     scatter_conv2d_input_grad)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def param(name, arr):
    return Parameter(name, np.asarray(arr, dtype=np.float64))


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
    x = rng.normal(size=(c_in, length))
    w = rng.normal(size=(c_out, c_in))
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
    x = t64(np.zeros((2, 5, 5)))
    w = t64(np.zeros((3, 2, 4, 4)))
    with pytest.raises(ConfigError):
        ad.conv2d(x, w, t64(np.zeros(3)))


def test_conv1d_rejects_weight_not_of_rank_2():
    # (3, 2, 1) is the pointwise weight layout of checkpoint version 2.
    for shape in [(3, 2, 1), (3, 2, 3), (2,), (1, 3, 2, 1)]:
        with pytest.raises(DimensionError, match=r"weight \(c_out, c_in\)"):
            ad.conv1d(t64(np.zeros((2, 5))), t64(np.zeros(shape)),
                      t64(np.zeros(3)))


@pytest.mark.parametrize("bias_shape", [(3, 1), (3, 1, 1)])
@pytest.mark.parametrize("conv,x_shape,w_shape", [
    ("conv1d", (2, 5), (3, 2)),
    ("conv2d", (2, 5, 5), (3, 2, 3, 3)),
])
def test_conv_rejects_bias_other_than_c_out(conv, x_shape, w_shape, bias_shape):
    with pytest.raises(DimensionError, match=r"is not \(3,\)"):
        getattr(ad, conv)(t64(np.zeros(x_shape)), t64(np.zeros(w_shape)),
                          t64(np.zeros(bias_shape)))


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
        out = ad.tensor_sum(ad.mul(a, b))
    backward(tape, out)
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    assert np.allclose(b.grad, 3.0)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
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
        y = ad.mul(x, 2.0)
    with pytest.raises(UsageError):
        backward(tape, y)


def test_backward_rejects_foreign_tape():
    x = param("x", np.ones(3))
    with Tape():
        y = ad.tensor_sum(x)
    with Tape() as other:
        pass
    with pytest.raises(UsageError):
        backward(other, y)


def test_backward_consumes_tape():
    x = param("x", np.ones(3))
    with Tape() as tape:
        y = ad.tensor_sum(x)
    backward(tape, y)
    with pytest.raises(UsageError):
        backward(tape, y)


def test_no_recording_outside_tape():
    x = param("x", np.ones(3))
    y = ad.tensor_sum(ad.mul(x, x))
    assert y._backward is None
    with Tape() as tape:
        z = ad.tensor_sum(x)
    assert len(tape) > 0
    backward(tape, z)


def test_grads_accumulate_across_tapes():
    x = param("x", np.full(3, 2.0))
    for _ in range(2):
        with Tape() as tape:
            y = ad.tensor_sum(ad.mul(x, x))
        backward(tape, y)
    assert np.allclose(x.grad, 2 * (2.0 * x.data))
    SGD([x], learning_rate=0.1).zero_grad()
    assert x.grad is None


def test_shared_subexpression_accumulates():
    x = param("x", np.array([3.0]))
    with Tape() as tape:
        y = ad.mul(x, x)
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
        y = ad.tensor_sum(ad.add(x, c))
    backward(tape, y)
    assert c.grad is None


def assert_released(tape, recorded):
    assert tape._consumed and len(tape) == 0
    for node in recorded:
        assert node.grad is None
        assert node._backward is None and node._tape is None


def test_backward_releases_every_recorded_node():
    # Only leaves keep .grad: a Parameter and a caller-made tensor.
    w = param("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = t64(np.array([[0.5], [-1.0]]))
    with Tape() as tape:
        h = ad.relu(ad.matmul(w, x))
        out = ad.tensor_sum(ad.mul(h, h))
    recorded = list(tape._nodes)
    assert len(recorded) == 4
    backward(tape, out)
    assert_released(tape, recorded)
    assert np.array_equal(w.grad, [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(x.grad, [[0.0], [0.0]])
    with Tape() as tape:
        out = ad.tensor_sum(ad.mul(ad.matmul(w, x), 2.0))
    recorded = list(tape._nodes)
    backward(tape, out)
    assert_released(tape, recorded)
    assert np.array_equal(w.grad, [[1.0, -2.0], [1.0, -2.0]])
    assert np.array_equal(x.grad, [[8.0], [12.0]])


def test_backward_releases_the_tape_when_a_closure_raises():
    x = param("x", np.ones(3))
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        # A closure that hands y a gradient of the wrong shape.
        bad = ad._record(Tensor(y.data.copy()), (y,),
                         lambda g: ad._accumulate(y, np.ones(4)))
        out = ad.tensor_sum(ad.mul(bad, bad))
    recorded = list(tape._nodes)
    with pytest.raises(DimensionError):
        backward(tape, out)
    assert_released(tape, recorded)
    assert x.grad is None
    with pytest.raises(UsageError):
        backward(tape, out)


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
    assert grad_check(lambda: fn(x), [x], eps=1e-6) < 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients(seed):
    rng = np.random.default_rng(400 + seed)
    a = param("a", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=(4, 2)))
    c = param("c", rng.normal(size=(1, 2)))

    def f():
        h = ad.matmul(a, b)
        h = ad.add(h, c)
        return ad.tensor_mean(ad.mul(ad.sigmoid(h), h))

    assert grad_check(f, [a, b, c], eps=1e-6) < 1e-8


def test_conv_gradients():
    rng = np.random.default_rng(7)
    x = param("x", rng.normal(size=(2, 5, 5)))
    w = param("w", rng.normal(size=(3, 2, 3, 3)))
    b = param("b", rng.normal(size=(3,)))

    def f():
        return ad.tensor_mean(ad.power(ad.conv2d(x, w, b, stride=2), 2.0))

    assert grad_check(f, [x, w, b], eps=1e-6) < 1e-8


def test_conv1d_gradients():
    rng = np.random.default_rng(8)
    x = param("x", rng.normal(size=(3, 7)))
    w = param("w", rng.normal(size=(2, 3)))
    b = param("b", rng.normal(size=(2,)))

    def f():
        return ad.tensor_mean(ad.power(ad.conv1d(x, w, b), 2.0))

    assert grad_check(f, [x, w, b], eps=1e-6) < 1e-8


@pytest.mark.parametrize("conv,x_shape,w_shape,stride", [
    ("conv2d", (2, 5, 5), (3, 2, 3, 3), 2),
    ("conv2d", (2, 6, 6), (3, 2, 1, 1), 1),
    ("conv1d", (3, 7), (2, 3), None),
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
        w.grad = b.grad = None
        xt = t64(x, grad=x_grad)
        with Tape() as tape:
            y = getattr(ad, conv)(xt, w, b, **kwargs)
            out = ad.tensor_mean(ad.power(y, 2.0))
        backward(tape, out)
        assert (xt.grad is not None) == x_grad
        grads[x_grad] = (w.grad.copy(), b.grad.copy())
    for with_x, without_x in zip(grads[True], grads[False]):
        assert np.array_equal(with_x, without_x)


def _linear_grads(layer, dtype, x_shape, c_out, seed):
    """Output and the x, weight and bias gradients of layer(x, w, b) under
    a random upstream gradient, as bytes."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
    w = Parameter("w", rng.normal(size=(c_out, x_shape[0])).astype(dtype))
    b = Parameter("b", rng.normal(size=c_out).astype(dtype))
    with Tape() as tape:
        y = layer(x, w, b)
        g = rng.normal(size=y.shape).astype(dtype)
        out = ad.tensor_sum(ad.mul(y, g))
    result = [y.data.tobytes()]
    backward(tape, out)
    return result + [t.grad.tobytes() for t in (x, w, b)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_out", [1, 5])
def test_conv1d_is_matmul_plus_bias(dtype, c_out):
    # Byte for byte a matmul plus a broadcast bias: the same GEMMs and, for
    # the bias gradient, the same row sums.
    def matmul_add(x, w, b):
        return ad.add(ad.matmul(w, x), ad.reshape(b, c_out, 1))

    for length in (1, 7):
        want = _linear_grads(matmul_add, dtype, (6, length), c_out, length)
        assert _linear_grads(ad.conv1d, dtype, (6, length), c_out,
                             length) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_out", [1, 5])
def test_conv1d_on_a_flattened_map_is_a_1x1_conv2d(dtype, c_out):
    # A 1x1 conv2d's columns are the map itself and its input gradient adds
    # one tap onto +0.0, so conv1d over the flattened map gives its bytes.
    def flat(x, w, b):
        y = ad.conv1d(ad.reshape(x, x.shape[0], -1), w, b)
        return ad.reshape(y, c_out, *x.shape[1:])

    def conv2d_1x1(x, w, b):
        return ad.conv2d(x, ad.reshape(w, *w.shape, 1, 1), b)

    want = _linear_grads(conv2d_1x1, dtype, (6, 5, 4), c_out, 3)
    assert _linear_grads(flat, dtype, (6, 5, 4), c_out, 3) == want


def test_recorded_conv2d_keeps_only_its_output():
    # Backward cuts the columns again from x, which the tape holds anyway,
    # so recording keeps neither them nor the zero-padded copy of x.
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=(8, 32, 32)))
    w = param("w", rng.normal(size=(4, 8, 3, 3)))
    b = param("b", rng.normal(size=4))
    out_bytes = 4 * 32 * 32 * 8
    padded_bytes = 8 * 34 * 34 * 8
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = ad.conv2d(x, w, b)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.data.nbytes == out_bytes and len(tape) == 1
    assert out_bytes <= kept < out_bytes + padded_bytes // 2


def forward_time_columns(x, k, stride):
    """Columns (c_in * k * k, hh * ww) of the zero-padded x, cut tap by tap
    before the tape is replayed."""
    c_in, h, w = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    hh = (h + 2 * pad - k) // stride + 1
    ww = (w + 2 * pad - k) // stride + 1
    cols = np.empty((c_in, k, k, hh, ww), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = xp[:, di:di + stride * hh:stride,
                                 dj:dj + stride * ww:stride]
    return cols.reshape(c_in * k * k, hh * ww)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("c_out", [1, 5])
def test_conv2d_parameter_grads_match_forward_time_columns(stride, k, c_out):
    # The weight and bias gradients from columns recut in backward are the
    # bytes that the columns of the forward give.
    rng = np.random.default_rng(100 * stride + 10 * k + c_out)
    x = Tensor(rng.normal(size=(3, 11, 9)).astype(np.float32))
    w = Parameter("w", rng.normal(size=(c_out, 3, k, k)).astype(np.float32))
    b = Parameter("b", rng.normal(size=c_out).astype(np.float32))
    cols = forward_time_columns(x.data, k, stride)
    with Tape() as tape:
        y = ad.conv2d(x, w, b, stride=stride)
        g = rng.normal(size=y.shape).astype(np.float32)
        out = ad.tensor_sum(ad.mul(y, Tensor(g)))
    backward(tape, out)
    g2 = g.reshape(c_out, -1)
    want_w = np.add(g2 @ cols.T, 0).reshape(w.shape)
    want_b = np.add(g2.sum(axis=1), 0)
    assert w.grad.tobytes() == want_w.tobytes()
    assert b.grad.tobytes() == want_b.tobytes()


# Every conv2d shape of a desk training episode, then a 1x1 to one channel
# and strides and extents the model does not use. Shapes: x (c_in, h, w),
# weight (c_out, c_in, k, k).
COL2IM_CASES = [
    ((3, 64, 64), (16, 3, 3, 3), 1, np.float32),      # encoder block 0
    ((16, 64, 64), (16, 16, 3, 3), 2, np.float32),    # encoder, stride 2
    ((16, 32, 32), (16, 16, 3, 3), 1, np.float32),    # encoder
    ((16, 32, 32), (32, 16, 3, 3), 2, np.float32),    # encoder, stride 2
    ((16, 16, 16), (32, 16, 3, 3), 1, np.float32),    # reasoning reflect
    ((64, 16, 16), (64, 64, 3, 3), 1, np.float32),    # fusion head
    ((32, 16, 16), (1, 32, 7, 7), 1, np.float32),     # spatial gate
    ((64, 16, 16), (1, 64, 1, 1), 1, np.float32),     # 1x1, one channel
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
    # A bias does not change x.grad, which is all the oracle compares.
    b = Tensor(np.zeros(w_shape[0], dtype=dtype), requires_grad=True)
    with Tape() as tape:
        y = ad.conv2d(x, w, b, stride=stride)
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
        return ad.tensor_mean(ad.power(ad.concat([a, b]), 2.0))

    assert grad_check(f, [a, b], eps=1e-6) < 1e-8


# ---------------------------------------------------------------------------
# grad_check contract


def test_grad_check_rejects_bad_eps():
    x = param("x", np.ones(2))
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x), [x], eps=1e-2)
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x), [x], eps=1e-9)


def test_grad_check_rejects_f32():
    x = Parameter("x", np.ones(2, dtype=np.float32))
    with pytest.raises(ConfigError):
        grad_check(lambda: ad.tensor_sum(x), [x], eps=1e-6)


def test_grad_check_flags_wrong_gradient():
    # A deliberately broken backward must be caught, otherwise the whole
    # suite proves nothing.
    x = param("x", np.array([1.3, -0.7]))

    def f():
        out = ad.mul(x, x)
        broken = ad.Tensor(out.data.copy(), requires_grad=True)
        tape = ad._active_tape()
        if tape is not None:
            ad._record(broken, [x], lambda g: ad._accumulate(x, 0.5 * g))
        return ad.tensor_sum(broken)

    assert grad_check(f, [x], eps=1e-6) > 1e-2


def test_grad_check_coordinate_sampling():
    rng = np.random.default_rng(11)
    x = param("x", rng.normal(size=(10, 10)))
    err = grad_check(lambda: ad.tensor_mean(ad.power(x, 2.0)), [x],
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


def test_reshape_rejects_bad_extents():
    # Negative extents other than one -1 are numpy's ValueError underneath.
    with pytest.raises(DimensionError):
        ad.reshape(t64(np.ones((2, 3))), -2, -3)
    with pytest.raises(DimensionError):
        ad.reshape(t64(np.ones((2, 3))), -1, -1)


def test_concat_shape_errors():
    a, b = t64(np.ones((2, 3))), t64(np.ones((2, 4)))
    with pytest.raises(DimensionError):
        ad.concat([a, t64(np.ones(3))])       # rank mismatch
    with pytest.raises(DimensionError):
        ad.concat([a, b])                     # extent mismatch off axis 0
    with pytest.raises(UsageError):
        ad.concat([])
