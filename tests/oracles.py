"""Naive reference implementations used by the oracle and acceptance suites.

Triple loops on purpose: slow, obvious, and structurally unrelated to the
vectorized code under test. Two references instead pin a faster rewrite
bit for bit: `scatter_conv2d_input_grad`, the scatter col2im the rewrite
replaced, and the sample renderer at the end, a verbatim copy.
"""

import functools
from typing import Mapping

import numpy as np

from protoseg.bilinear import bilinear_matrix
from protoseg.episodes import (FG_MAX, FG_MIN, _SHAPE_RETRIES, DefectClass,
                               DistortionParams)
from protoseg.errors import ConfigError, DegenerateEpisodeError
from protoseg.seeding import derive_rng


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
    """Input gradient of a same-padded conv2d as a k*k-tap scatter-add onto
    a zero-initialised padded canvas, the col2im that `autodiff.conv2d`
    used before its phase-plane rewrite.

    Each kernel row di's taps come from the GEMM that `autodiff._col2im`
    runs, wt[di] (k*c_in, c_out) @ gq (c_out, rows*wq), with g zero-padded
    on the phase pitch wq. A BLAS kernel may sum GEMMs of other shapes in
    another order, so the same product keeps the comparison to the bit
    on every kernel; what the oracle checks is where each tap lands.
    """
    c_out, c_in, k, _ = weight.shape
    _, h, w = x.shape
    pad = (k - 1) // 2
    hh = (h + 2 * pad - k) // stride + 1
    ww = (w + 2 * pad - k) // stride + 1
    wq = -(-(w + 2 * pad) // stride)
    rows = hh + (k - 1) // stride + 1
    gq = np.zeros((c_out, rows, wq), dtype=g.dtype)
    gq[:, :hh, :ww] = g
    gq = gq.reshape(c_out, rows * wq)
    wt = weight.transpose(2, 3, 1, 0).reshape(k, k * c_in, c_out)
    gxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    for di in range(k):
        taps = (wt[di] @ gq).reshape(k, c_in, rows, wq)
        for dj in range(k):
            gxp[:, di:di + stride * hh:stride, dj:dj + stride * ww:stride] \
                += taps[dj, :, :hh, :ww]
    return gxp[:, pad:pad + h, pad:pad + w]


# ---------------------------------------------------------------------------
# The sample renderer as it was before its array-work rewrite, kept verbatim
# (renamed `reference_generate_sample` and `reference_warp_mask`) as the
# bit-identity reference for `protoseg.episodes.generate_sample`.

@functools.cache
def _noise_matrix(size: int, src: int) -> np.ndarray:
    m = bilinear_matrix(size, src)
    m.flags.writeable = False
    return m


def _value_noise(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    coarse = rng.uniform(-1.0, 1.0, size=(cells + 1, cells + 1))
    m = _noise_matrix(size, cells + 1)
    return m @ coarse @ m.T


def _texture(rng: np.random.Generator, cls: DefectClass, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size] / size
    phase = rng.uniform(0, 2 * np.pi)
    ca, sa = np.cos(cls.stripe_angle), np.sin(cls.stripe_angle)
    stripes = cls.stripe_amp * np.sin(2 * np.pi * cls.stripe_freq * (ca * xx + sa * yy)
                                      + phase)
    gray = cls.base_level + stripes + cls.noise_amp * _value_noise(rng, size,
                                                                   cls.noise_cells)
    img = np.stack([gray + t for t in cls.tint])
    return np.clip(img, 0.02, 0.98)


def _paint_discs(mask: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> None:
    """Set every pixel (y, x) with (y - cy)**2 + (x - cx)**2 <= r*r for some
    disc, all discs at once.

    Each disc tests a square window of pixels around its center, truncated
    toward zero. A pixel within r of a center lies within ceil(r) + 1 of
    its truncation, so a window of reach ceil(max r) + 1 holds every hit.
    """
    size = mask.shape[0]
    reach = int(np.ceil(radii.max())) + 1
    offsets = np.arange(-reach, reach + 1)
    ys = centers[:, 0].astype(int)[:, None] + offsets     # (n, window)
    xs = centers[:, 1].astype(int)[:, None] + offsets
    dy2 = (ys - centers[:, :1]) ** 2
    dx2 = (xs - centers[:, 1:]) ** 2
    hit = dy2[:, :, None] + dx2[:, None, :] <= (radii * radii)[:, None, None]
    hit &= ((ys >= 0) & (ys < size))[:, :, None]
    hit &= ((xs >= 0) & (xs < size))[:, None, :]
    disc, iy, ix = np.nonzero(hit)
    mask[ys[disc, iy], xs[disc, ix]] = True


def _draw_scratch(rng, size: int, style: Mapping) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    pos = rng.uniform(0.2, 0.8, size=2) * size
    angle = rng.uniform(0, 2 * np.pi)
    seg_len = style["length"] * size / style["segments"]
    pts = [pos.copy()]
    for _ in range(style["segments"]):
        angle += rng.normal(0.0, style["wobble"])
        pos = pos + seg_len * np.array([np.sin(angle), np.cos(angle)])
        pts.append(pos.copy())
    segments = []
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(2, int(np.linalg.norm(b - a) / 0.5))
        segments.append(a + np.linspace(0.0, 1.0, n)[:, None] * (b - a))
    centers = np.concatenate(segments)
    _paint_discs(mask, centers, np.full(len(centers), style["thickness"]))
    return mask


def _draw_patch(rng, size: int, style: Mapping) -> np.ndarray:
    center = rng.uniform(0.3, 0.7, size=2) * size
    # The floor keeps small renders (toy 16x16 images) visible on the
    # STRIDE x STRIDE pooling windows of the feature grid.
    radius = max(style["radius"] * size * rng.uniform(0.85, 1.15), 3.0)
    amps = rng.normal(0.0, style["rough"], size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    yy, xx = np.mgrid[0:size, 0:size]
    dy, dx = yy - center[0], xx - center[1]
    theta = np.arctan2(dy, dx)
    rho = radius * (1.0 + sum(a * np.sin((k + 2) * theta + p)
                              for k, (a, p) in enumerate(zip(amps, phases))))
    rho = np.maximum(rho, 0.3 * radius)
    return dy * dy + dx * dx <= rho * rho


def _draw_pits(rng, size: int, style: Mapping) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    base = rng.uniform(0.35, 0.65, size=2) * size
    spread = style["spread"] * size
    centers = base + rng.normal(0.0, spread, size=(style["count"], 2))
    centers = np.clip(centers, 2.0, size - 3.0)
    r0, r1 = style["pit_radius"]
    radii = rng.uniform(r0, r1, size=style["count"]) * size / 64.0
    _paint_discs(mask, centers, np.maximum(radii, 2.0))
    return mask


_DRAWERS = {"scratch": _draw_scratch, "patch": _draw_patch, "pits": _draw_pits}


def _homography(d: DistortionParams, size: int) -> np.ndarray:
    c = (size - 1) / 2.0
    cos, sin = np.cos(d.rotation), np.sin(d.rotation)
    mid = np.array([[d.scale * cos, -d.scale * sin, 0.0],
                    [d.scale * sin, d.scale * cos, 0.0],
                    [d.perspective_x / size, d.perspective_y / size, 1.0]])
    t1 = np.array([[1.0, 0.0, -c], [0.0, 1.0, -c], [0.0, 0.0, 1.0]])
    t2 = np.array([[1.0, 0.0, c], [0.0, 1.0, c], [0.0, 0.0, 1.0]])
    return t2 @ mid @ t1


def _source_coords(d: DistortionParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    hinv = np.linalg.inv(_homography(d, size))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    denom = hinv[2, 0] * xx + hinv[2, 1] * yy + hinv[2, 2]
    sx = (hinv[0, 0] * xx + hinv[0, 1] * yy + hinv[0, 2]) / denom
    sy = (hinv[1, 0] * xx + hinv[1, 1] * yy + hinv[1, 2]) / denom
    return sy, sx


def reference_warp_mask(mask: np.ndarray, d: DistortionParams) -> np.ndarray:
    """Nearest-neighbor warp; out-of-bounds reads are background."""
    size = mask.shape[0]
    sy, sx = _source_coords(d, size)
    iy, ix = np.rint(sy).astype(int), np.rint(sx).astype(int)
    inside = (iy >= 0) & (iy < size) & (ix >= 0) & (ix < size)
    out = np.zeros_like(mask)
    out[inside] = mask[np.clip(iy, 0, size - 1),
                       np.clip(ix, 0, size - 1)][inside]
    return out


def reference_generate_sample(cls: DefectClass, substyle: int, distortion: DistortionParams,
                    seed: int, image_size: int = 64
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Render one (image, mask) pair. Fully determined by the arguments.

    If the warped foreground fraction leaves [FG_MIN, FG_MAX] the shape is
    redrawn a bounded number of times before giving up.
    """
    if not 0 <= substyle < len(cls.substyles):
        raise ConfigError("class %d has %d substyles, got index %d"
                          % (cls.class_id, len(cls.substyles), substyle))
    cls.validate_distortion(distortion)
    rng = derive_rng(seed, "sample", cls.class_id, substyle)
    draw = _DRAWERS[cls.family]
    style = cls.substyles[substyle]
    mask = None
    for _ in range(_SHAPE_RETRIES):
        candidate = reference_warp_mask(draw(rng, image_size, style), distortion)
        frac = candidate.mean()
        if FG_MIN <= frac <= FG_MAX:
            mask = candidate
            break
    if mask is None:
        raise DegenerateEpisodeError(
            "class %d substyle %d: no foreground fraction in [%.2f, %.2f] "
            "after %d draws (seed %d)" % (cls.class_id, substyle, FG_MIN,
                                          FG_MAX, _SHAPE_RETRIES, seed))
    img = _texture(rng, cls, image_size)
    inside = np.broadcast_to(mask, img.shape)
    shift = cls.defect_delta + rng.normal(0.0, cls.defect_noise, size=img.shape)
    img = np.clip(np.where(inside, img + shift, img), 0.0, 1.0)
    return img.astype(np.float32), mask.astype(np.float32)
