"""Naive reference implementations used by the oracle and acceptance suites.

Triple loops on purpose: slow, obvious, and structurally unrelated to the
vectorized code under test.
"""

import numpy as np


def naive_matmul(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def naive_conv1d(x, w, b):
    """Pointwise: w is (c_out, c_in)."""
    c_in, length = x.shape
    c_out = w.shape[0]
    out = np.zeros((c_out, length))
    for o in range(c_out):
        for pos in range(length):
            acc = 0.0
            for ci in range(c_in):
                acc += x[ci, pos] * w[o, ci]
            out[o, pos] = acc + (b[o] if b is not None else 0.0)
    return out


def naive_conv2d(x, w, b, stride=1):
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    pad = k // 2
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            y = i * stride + ky - pad
                            x_ = j * stride + kx - pad
                            if 0 <= y < h and 0 <= x_ < wd:
                                acc += x[ci, y, x_] * w[o, ci, ky, kx]
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def naive_masked_pool(x, grid):
    c, l = x.shape
    flat = grid.reshape(-1)
    acc = np.zeros(c)
    for i in range(c):
        for j in range(l):
            if flat[j] == 1.0:
                acc[i] += x[i, j]
    return (acc / flat.sum()).reshape(c, 1)


def naive_cosine_rows(g):
    n = g.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            denom = np.linalg.norm(g[i]) * np.linalg.norm(g[j])
            out[i, j] = g[i] @ g[j] / denom if denom > 0 else 0.0
    return out


def naive_edge_cosine(xq, xs):
    lq, ls = xq.shape[1], xs.shape[1]
    out = np.zeros((lq, ls))
    for i in range(lq):
        for j in range(ls):
            d = np.linalg.norm(xq[:, i]) * np.linalg.norm(xs[:, j])
            out[i, j] = xq[:, i] @ xs[:, j] / d if d > 0 else 0.0
    return out


def naive_bce(p, t, eps=1e-7):
    total = 0.0
    for pi, ti in zip(p.flat, t.flat):
        pc = min(max(pi, eps), 1.0 - eps)
        total += ti * np.log(pc) + (1.0 - ti) * np.log(1.0 - pc)
    return -total / p.size


def naive_iou(p, t):
    inter = sum(int(a and b) for a, b in zip(p.flat, t.flat))
    union = sum(int(a or b) for a, b in zip(p.flat, t.flat))
    return 1.0 if union == 0 else inter / union


def naive_paint_discs(size, centers, radii):
    mask = np.zeros((size, size), dtype=bool)
    for y in range(size):
        for x in range(size):
            for (cy, cx), r in zip(centers, radii):
                if (y - cy) ** 2 + (x - cx) ** 2 <= r * r:
                    mask[y, x] = True
    return mask


def scatter_conv2d_input_grad(x, weight, g, stride):
    """Input gradient of a same-padded conv2d as one GEMM to columns and a
    k*k-tap scatter-add onto a zero-initialised padded canvas: the col2im
    that `autodiff.conv2d` used before its phase-plane rewrite, kept
    verbatim as the bit-identity reference."""
    c_out, c_in, k, _ = weight.shape
    _, h, w = x.shape
    pad = (k - 1) // 2
    hh = (h + 2 * pad - k) // stride + 1
    ww = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    w2 = weight.reshape(c_out, c_in * k * k)
    g2 = g.reshape(c_out, hh * ww)
    gcols = (w2.T @ g2).reshape(c_in, k, k, hh, ww)
    gxp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            gxp[:, di:di + stride * hh:stride, dj:dj + stride * ww:stride] \
                += gcols[:, di, dj]
    return gxp[:, pad:pad + h, pad:pad + w] if pad else gxp
