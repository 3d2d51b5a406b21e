"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is define-by-run: a Tape is opened as a context manager, every
operation executed inside it appends a node with a closure that scatters the
output gradient back onto its inputs, and backward() replays the tape in
reverse. Without an active tape the same ops run as plain numpy, so inference
pays nothing for the machinery.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .seeding import derive_rng

_FLOAT_DTYPES = (np.float32, np.float64)

# Innermost entry receives new nodes; empty stack means no recording.
_TAPE_STACK: list["Tape"] = []


def _active_tape() -> Optional["Tape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float array that can sit on the tape, plus its accumulated
    gradient (None until a backward pass reaches it). Data that never
    needs a gradient stays a plain ndarray; the ops take it as a constant."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._tape: Optional[Tape] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor, got shape %s" % (self.shape,))
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return "%s(shape=%s, dtype=%s, requires_grad=%s)" % (
            type(self).__name__, self.shape, self.data.dtype.name,
            self.requires_grad)


class Tape:
    """Ordered record of one forward pass; consumed by a single backward()."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)


class Parameter(Tensor):
    """A named leaf tensor. Gradients accumulate across tapes until zeroed."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name


class Module:
    """Owner of one model part's parameters.

    Weights are He-normal, std sqrt(2 / fan_in) with fan_in the product of
    every axis but the first, drawn from the (seed, "init", prefix) stream.
    Biases and zero-started weights are zeros. `parameters()` lists them in
    declaration order, which is the checkpoint order.
    """

    def __init__(self, seed: int, dtype):
        self.seed = seed
        self.dtype = dtype
        self._parameters: list[Parameter] = []

    def _declare(self, name: str, data: np.ndarray) -> Parameter:
        p = Parameter(name, data)
        self._parameters.append(p)
        return p

    def he_weight(self, prefix: str, shape: tuple[int, ...]) -> Parameter:
        fan_in = math.prod(shape[1:])
        rng = derive_rng(self.seed, "init", prefix)
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(self.dtype)
        return self._declare(prefix + ".weight", w)

    def zeros(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._declare(name, np.zeros(shape, dtype=self.dtype))

    def parameters(self) -> list[Parameter]:
        return list(self._parameters)


# ---------------------------------------------------------------------------
# recording plumbing


def _coerce(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out: Tensor, parents: Sequence[Tensor],
            grads: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Put out on the active tape if any parent needs a gradient. grads[i]
    maps out's gradient to parents[i]'s piece; backward adds the pieces in
    parents order and computes none for a parent that needs no gradient."""
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        def backward(g: np.ndarray) -> None:
            for p, grad in zip(parents, grads):
                if p.requires_grad:
                    _accumulate(p, grad(g))

        out.requires_grad = True
        out._backward = backward
        out._tape = tape
        tape._nodes.append(out)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if g.shape != t.data.shape:
        raise DimensionError("gradient of shape %s for a tensor of shape %s"
                             % (g.shape, t.data.shape))
    if t.grad is None:
        # One pass, and the same bits as adding g onto zeros: x + 0 turns
        # -0.0 into +0.0. The result never aliases g.
        t.grad = np.add(g, 0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _broadcast_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        raise DimensionError("cannot broadcast shapes %s and %s" % (a, b)) from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, a)
    _broadcast_shape(a.shape, b.shape)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), (lambda g: _unbroadcast(g, a.shape),
                                 lambda g: _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, a)
    _broadcast_shape(a.shape, b.shape)
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape),
                                 lambda g: _unbroadcast(g * a.data, b.shape)))


def power(a, exponent: float) -> Tensor:
    a = _coerce(a)
    exponent = float(exponent)
    out = Tensor(a.data ** exponent)
    return _record(out, (a,),
                   (lambda g: g * exponent * a.data ** (exponent - 1.0),))


def relu(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.maximum(a.data, 0))
    return _record(out, (a,), (lambda g: g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # Split by sign so neither branch exponentiates a large positive number.
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(x.dtype, copy=False)
    return _record(Tensor(s), (a,), (lambda g: g * s * (1.0 - s),))


def exp(a) -> Tensor:
    a = _coerce(a)
    y = np.exp(a.data)
    return _record(Tensor(y), (a,), (lambda g: g * y,))


def log(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.log(a.data))
    return _record(out, (a,), (lambda g: g / a.data,))


def clamp(a, lo, hi=None) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.clip(a.data, lo, hi))

    def grad(g: np.ndarray) -> np.ndarray:
        inside = a.data >= lo
        if hi is not None:
            inside &= a.data <= hi
        return g * inside

    return _record(out, (a,), (grad,))


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    axes = _normalize_axes(axis, a.data.ndim)

    def grad(g: np.ndarray) -> np.ndarray:
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape)

    return _record(out, (a,), (grad,))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    axes = _normalize_axes(axis, a.data.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def _normalize_axes(axis, ndim: int) -> Optional[tuple[int, ...]]:
    if axis is None:
        return None if ndim == 0 else tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, *shape) -> Tensor:
    a = _coerce(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise DimensionError("cannot reshape %s into %s" % (a.shape, shape)) from None
    return _record(out, (a,), (lambda g: g.reshape(a.shape),))


def transpose(a) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2:
        raise DimensionError("transpose expects a rank-2 tensor, got %s" % (a.shape,))
    out = Tensor(a.data.T.copy())
    return _record(out, (a,), (lambda g: g.T,))


def concat(tensors: Iterable) -> Tensor:
    """Join tensors along axis 0."""
    parts = [_coerce(t) for t in tensors]
    if not parts:
        raise UsageError("concat of an empty sequence")
    try:
        out = Tensor(np.concatenate([p.data for p in parts]))
    except ValueError:
        raise DimensionError("cannot concat %s along axis 0"
                             % [p.shape for p in parts]) from None
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    return _record(out, parts, [lambda g, lo=lo, hi=hi: g[lo:hi]
                                for lo, hi in zip(offsets[:-1], offsets[1:])])


# ---------------------------------------------------------------------------
# linear algebra and convolution


def matmul(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, a)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects rank-2 operands, got %s and %s"
                             % (a.shape, b.shape))
    if a.shape[1] != b.shape[0]:
        raise DimensionError("matmul inner extents differ: %s vs %s" % (a.shape, b.shape))
    out = Tensor(a.data @ b.data)
    return _record(out, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def _check_kernel(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ConfigError("kernel width must be odd and positive, got %d" % k)


def conv1d(x, weight, bias) -> Tensor:
    """Pointwise 1-D convolution, the model's one linear layer: y = W x + b.
    x: (c_in, l), weight: (c_out, c_in), bias: (c_out,)."""
    x = _coerce(x)
    weight = _coerce(weight, x)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError("conv1d expects x (c_in, l) and weight (c_out, c_in), "
                             "got %s and %s" % (x.shape, weight.shape))
    c_out, c_in = weight.shape
    if x.shape[0] != c_in:
        raise DimensionError("conv1d channel mismatch: x has %d, weight expects %d"
                             % (x.shape[0], c_in))
    bias = _coerce(bias, x)
    if bias.shape != (c_out,):
        raise DimensionError("conv1d bias shape %s is not (%d,)"
                             % (bias.shape, c_out))
    y = weight.data @ x.data
    y += bias.data.reshape(c_out, 1)
    return _record(Tensor(y), (weight, bias, x),
                   (lambda g: g @ x.data.T, lambda g: g.sum(axis=1),
                    lambda g: weight.data.T @ g))


def conv2d(x, weight, bias, stride: int = 1) -> Tensor:
    """Same-padded 2-D convolution. x: (c_in, h, w), weight: (c_out, c_in,
    k, k), bias: (c_out,)."""
    x = _coerce(x)
    weight = _coerce(weight, x)
    if x.data.ndim != 3 or weight.data.ndim != 4:
        raise DimensionError("conv2d expects x (c_in, h, w) and weight (c_out, c_in, k, k)")
    c_out, c_in, kh, kw = weight.shape
    if kh != kw:
        raise DimensionError("conv2d kernels must be square, got %dx%d" % (kh, kw))
    if x.shape[0] != c_in:
        raise DimensionError("conv2d channel mismatch: x has %d, weight expects %d"
                             % (x.shape[0], c_in))
    _check_kernel(kh)
    if stride < 1:
        raise ConfigError("stride must be >= 1, got %d" % stride)
    bias = _coerce(bias, x)
    if bias.shape != (c_out,):
        raise DimensionError("conv2d bias shape %s is not (%d,)"
                             % (bias.shape, c_out))
    k = kh
    _, h, w = x.shape
    pad = (k - 1) // 2
    hh = (h + 2 * pad - k) // stride + 1
    ww = (w + 2 * pad - k) // stride + 1
    w2 = weight.data.reshape(c_out, c_in * k * k)
    y = w2 @ _im2col(x.data, k, stride, hh, ww)
    y += bias.data.reshape(c_out, 1)
    # Backward cuts the columns again from x, not kept from the forward;
    # they and the product are temporaries, freed before col2im runs.
    return _record(Tensor(y.reshape(c_out, hh, ww)), (weight, bias, x), (
        lambda g: (g.reshape(c_out, hh * ww)
                   @ _im2col(x.data, k, stride, hh, ww).T).reshape(weight.shape),
        lambda g: g.reshape(c_out, hh * ww).sum(axis=1),
        lambda g: _col2im(g, weight.data, x.shape, x.data.dtype, stride)))


def _im2col(x: np.ndarray, k: int, stride: int, hh: int,
            ww: int) -> np.ndarray:
    """conv2d's columns of x (c_in, h, w): (c_in * k * k, hh * ww), one
    column per output position. Tap (di, dj) of output (i, j) reads the
    zero-padded x at (stride * i + di, stride * j + dj)."""
    c_in, h, w = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    sc, sy, sx = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (c_in, k, k, hh, ww), (sc, sy, sx, stride * sy, stride * sx),
        writeable=False)
    return np.ascontiguousarray(win).reshape(c_in * k * k, hh * ww)


def _col2im(g: np.ndarray, weight: np.ndarray, x_shape: tuple[int, int, int],
            dtype, stride: int) -> np.ndarray:
    """conv2d's input gradient, (c_in, h, w), from the output gradient g.

    Tap (di, dj) of output (i, j) adds weight[:, :, di, dj].T @ g[:, i, j]
    to the padded input at (stride*i + di, stride*j + dj). Padded (y, x)
    lives in phase plane (y % s, x % s) at (y // s, x // s), with row pitch
    wq. Laid out on that pitch, with every channel rows * wq long, tap
    (di, dj) of all outputs and channels is one contiguous run starting
    (di // s) * wq + dj // s into its plane, so each tap is a single add.

    Every element receives its taps in (di, dj) order onto +0.0, as a
    tap-by-tap scatter adds them. For finite weights the layout's padding
    columns add signed zeros, and a sum started at +0.0 never turns into
    -0.0, so they change no bit; likewise the outer product that einsum
    forms for c_out == 1 (a K=1 GEMM in BLAS), one multiply per element,
    differs from the GEMM only in the sign of zeros.
    """
    c_out, c_in, k, _ = weight.shape
    _, hh, ww = g.shape
    _, h, w = x_shape
    pad = (k - 1) // 2
    s = stride
    wq = -(-(w + 2 * pad) // s)
    reach = (k - 1) // s
    rows = hh + reach + 1          # every plane covers the padded input
    n = c_in * rows * wq
    gq = np.zeros((c_out, rows, wq), dtype=g.dtype)
    gq[:, :hh, :ww] = g
    gq = gq.reshape(c_out, rows * wq)
    wt = weight.transpose(2, 3, 1, 0).reshape(k, k * c_in, c_out)
    # A run starts up to reach * wq + reach in, so it ends that far past
    # the n elements of its plane; that tail receives only padding.
    planes = np.zeros((s, s, n + reach * wq + reach), dtype=dtype)
    # One kernel row of taps at a time, into one reused buffer.
    taps = np.empty((k * c_in, rows * wq), dtype=np.result_type(wt, gq))
    runs = taps.reshape(k, n)
    for di in range(k):
        if c_out == 1:
            np.einsum("i,j->ij", wt[di, :, 0], gq[0], out=taps)
        else:
            np.matmul(wt[di], gq, out=taps)
        for dj in range(k):
            at = (di // s) * wq + dj // s
            planes[di % s, dj % s, at:at + n] += runs[dj]
    if s == 1:
        # One plane, already in the padded layout: crop it, no copy.
        plane = planes[0, 0, :n].reshape(c_in, rows, wq)
        return plane[:, pad:pad + h, pad:pad + w]
    padded = np.empty((c_in, rows * s, wq * s), dtype=dtype)
    for a in range(s):
        for b in range(s):
            padded[:, a::s, b::s] = planes[a, b, :n].reshape(c_in, rows, wq)
    return padded[:, pad:pad + h, pad:pad + w]


def avg_pool_global(x) -> Tensor:
    """Mean over every non-channel axis: (c, ...) -> (c, 1)."""
    x = _coerce(x)
    if x.data.ndim < 2:
        raise DimensionError("avg_pool_global expects (c, ...), got %s" % (x.shape,))
    c = x.shape[0]
    n = x.data.size // c
    if n == 0:
        raise DimensionError("avg_pool_global over an empty spatial extent")
    axes = tuple(range(1, x.data.ndim))
    out = Tensor(x.data.mean(axis=axes).reshape(c, 1))
    shape = (c,) + (1,) * (x.data.ndim - 1)
    return _record(out, (x,),
                   (lambda g: np.broadcast_to(g.reshape(shape) / n, x.shape),))


# ---------------------------------------------------------------------------
# backward driver


def backward(tape: Tape, output: Tensor) -> None:
    """Propagate d(output)/d(leaf) for every leaf reached by the tape."""
    if not isinstance(tape, Tape):
        raise UsageError("backward needs the Tape the output was recorded on")
    if tape._consumed:
        raise UsageError("this tape was already consumed by a previous backward")
    if output.data.size != 1:
        raise UsageError("backward requires a scalar output, got shape %s" % (output.shape,))
    if output._tape is not tape:
        raise UsageError("output was not recorded on the given tape")
    tape._consumed = True
    output.grad = np.ones_like(output.data)
    nodes = tape._nodes
    # Tape order is execution order, so the reverse is a valid topological
    # order: every consumer of a node runs before the node itself. A node
    # is released as its closure runs, so the activations and gradients
    # only it holds are freed one by one; only leaves keep .grad.
    try:
        while nodes:
            node = nodes.pop()
            g, fn = node.grad, node._backward
            node.grad = node._backward = node._tape = None
            if g is not None and fn is not None:
                fn(g)
    finally:
        for node in nodes:
            node.grad = node._backward = node._tape = None
        nodes.clear()


def grad_check(function: Callable[[], Tensor], params: Sequence[Parameter],
               eps: float = 1e-5, max_coords_per_param: Optional[int] = None,
               seed: int = 0) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the worst relative error  |analytic - numeric| / max(1, |analytic|,
    |numeric|)  over every checked coordinate. Parameters must be float64;
    eps outside [1e-7, 1e-4] is rejected as meaningless at that precision.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ConfigError("grad_check eps must lie in [1e-7, 1e-4], got %g" % eps)
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigError("grad_check requires float64 parameters, %r is %s"
                              % (p.name, p.data.dtype.name))
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = function()
    if out.data.size != 1:
        raise UsageError("grad_check function must return a scalar")
    backward(tape, out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        else:
            coords = range(flat.size)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = function().item()
            flat[i] = saved - eps
            f_minus = function().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
