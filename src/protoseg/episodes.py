"""Synthetic surface-defect classes, deterministic sample rendering, and
episodic sampling over class folds.

Twelve procedurally defined classes cycle through three shape families
(scratches, patches, pit clusters), each with its own background texture and
at least two sub-styles. A sample is a textured image with one defect region
warped by a random rotation / scale / perspective homography; the mask is
warped with nearest-neighbor lookup so it stays strictly binary.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .bilinear import bilinear_matrix
from .config import check_int
from .encoder import STRIDE, mask_to_feature_grid
from .errors import ConfigError, DegenerateEpisodeError
from .seeding import derive_rng

log = logging.getLogger(__name__)

FG_MIN = 0.02
FG_MAX = 0.60
_SHAPE_RETRIES = 12
_GRID_RETRIES = 8
_CLASS_TABLE_SEED = 0xC1A55


@dataclass(frozen=True)
class DistortionParams:
    """One warp draw. Rotation in radians, perspective in normalized units."""

    rotation: float = 0.0
    scale: float = 1.0
    perspective_x: float = 0.0
    perspective_y: float = 0.0


@dataclass(frozen=True)
class DefectClass:
    class_id: int
    family: str                      # scratch | patch | pits
    base_level: float
    stripe_amp: float
    stripe_freq: float
    stripe_angle: float
    noise_amp: float
    noise_cells: int
    tint: tuple[float, float, float]
    defect_delta: float              # signed intensity shift inside the defect
    defect_noise: float
    rotation_max: float              # radians
    scale_range: tuple[float, float]
    perspective_max: float
    substyles: tuple[Mapping, ...] = field(default=())

    def validate_distortion(self, d: DistortionParams) -> None:
        if abs(d.rotation) > self.rotation_max + 1e-9:
            raise ConfigError("rotation %.4f exceeds class limit %.4f"
                              % (d.rotation, self.rotation_max))
        lo, hi = self.scale_range
        if not (lo - 1e-9 <= d.scale <= hi + 1e-9):
            raise ConfigError("scale %.4f outside class range [%.3f, %.3f]"
                              % (d.scale, lo, hi))
        if max(abs(d.perspective_x), abs(d.perspective_y)) > self.perspective_max + 1e-9:
            raise ConfigError("perspective coefficient exceeds class limit %.4f"
                              % self.perspective_max)


@functools.cache
def default_classes() -> tuple[DefectClass, ...]:
    """The fixed 12-class corpus. Parameters derive from a constant seed, so
    the corpus is identical for every caller; it is built once and shared,
    with read-only substyles."""
    families = ("scratch", "patch", "pits")
    out = []
    for cid in range(12):
        rng = derive_rng(_CLASS_TABLE_SEED, "class", cid)
        family = families[cid % 3]
        # Two sizing constraints. Lower bound: the head predicts on a grid
        # STRIDE times coarser, and a feature thinner than one cell gets mixed
        # supervision in its cell, capping the cell's optimum below the 0.5
        # binarization threshold; every family is therefore drawn at least
        # one cell wide. Upper bound: the smallest legal warp keeps the
        # foreground fraction above FG_MIN, the largest stays under FG_MAX.
        if family == "scratch":
            substyles = (
                {"thickness": 4.6 + rng.uniform(0, 0.4), "segments": 3,
                 "wobble": 0.25, "length": 0.62},
                {"thickness": 5.1 + rng.uniform(0, 0.4), "segments": 6,
                 "wobble": 0.5, "length": 0.75},
            )
        elif family == "patch":
            substyles = (
                {"radius": 0.18 + rng.uniform(0, 0.03), "rough": 0.08},
                {"radius": 0.25 + rng.uniform(0, 0.04), "rough": 0.2},
                {"radius": 0.21, "rough": 0.3},
            )
        else:
            substyles = (
                {"count": 6, "pit_radius": (4.2, 5.2), "spread": 0.2},
                {"count": 10, "pit_radius": (3.8, 4.8), "spread": 0.28},
            )
        # Alternate bright/dark defects so the corpus is not one polarity.
        sign = 1.0 if (cid // 3) % 2 else -1.0
        out.append(DefectClass(
            class_id=cid,
            family=family,
            base_level=float(0.38 + 0.28 * rng.random()),
            stripe_amp=float(0.04 + 0.07 * rng.random()),
            stripe_freq=float(2.0 + 6.0 * rng.random()),
            stripe_angle=float(rng.random() * np.pi),
            noise_amp=float(0.03 + 0.05 * rng.random()),
            noise_cells=int(rng.integers(4, 9)),
            tint=tuple(float(t) for t in rng.uniform(-0.05, 0.05, size=3)),
            defect_delta=float(sign * (0.52 + 0.16 * rng.random())),
            # Damaged metal is rough: pixel-level speckle well above the
            # smooth large-cell background noise, a cue every class shares.
            defect_noise=0.2,
            rotation_max=float(np.deg2rad(10.0 + 10.0 * rng.random())),
            scale_range=(0.85, 1.2),
            perspective_max=0.10,
            substyles=tuple(MappingProxyType(s) for s in substyles),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# rendering


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


def warp_mask(mask: np.ndarray, d: DistortionParams) -> np.ndarray:
    """Nearest-neighbor warp; out-of-bounds reads are background."""
    size = mask.shape[0]
    sy, sx = _source_coords(d, size)
    iy, ix = np.rint(sy).astype(int), np.rint(sx).astype(int)
    inside = (iy >= 0) & (iy < size) & (ix >= 0) & (ix < size)
    out = np.zeros_like(mask)
    out[inside] = mask[np.clip(iy, 0, size - 1),
                       np.clip(ix, 0, size - 1)][inside]
    return out


def generate_sample(cls: DefectClass, substyle: int, distortion: DistortionParams,
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
        candidate = warp_mask(draw(rng, image_size, style), distortion)
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


# ---------------------------------------------------------------------------
# folds and episodes


@dataclass(frozen=True)
class FoldSplit:
    """Three disjoint class folds; one is held out for testing."""

    folds: tuple[tuple[int, ...], ...]
    test_fold: int

    @property
    def test_class_ids(self) -> tuple[int, ...]:
        return self.folds[self.test_fold]

    @property
    def train_class_ids(self) -> tuple[int, ...]:
        out = []
        for i, fold in enumerate(self.folds):
            if i != self.test_fold:
                out.extend(fold)
        return tuple(out)


def make_folds(class_ids: Sequence[int], seed: int, test_fold: int = 0) -> FoldSplit:
    """Deterministic shuffle of the class ids into three equal folds."""
    ids = [int(c) for c in class_ids]
    if len(set(ids)) != len(ids):
        raise ConfigError("class ids must be distinct")
    if len(ids) % 3:
        raise ConfigError("class count %d does not split into three folds" % len(ids))
    if not 0 <= test_fold < 3:
        raise ConfigError("test_fold must be 0, 1 or 2, got %d" % test_fold)
    rng = derive_rng(seed, "folds")
    order = [ids[i] for i in rng.permutation(len(ids))]
    n = len(ids) // 3
    folds = tuple(tuple(order[i * n:(i + 1) * n]) for i in range(3))
    return FoldSplit(folds=folds, test_fold=test_fold)


@dataclass
class Episode:
    """K support pairs and one query pair of one class, as two float32
    arrays with the supports first and the query last: `images` is
    `(K+1, 3, S, S)` and `masks` is `(K+1, S, S)`."""

    class_id: int
    images: np.ndarray
    masks: np.ndarray
    seed: int

    @property
    def k(self) -> int:
        return len(self.images) - 1


def _check_request(role: str, k: int, image_size: int) -> None:
    """Reject a role, shot count or image size no episode can have."""
    if role not in ("train", "test"):
        raise ConfigError("role must be 'train' or 'test', got %r" % role)
    check_int("k", k, 1)
    check_int("image_size", image_size, STRIDE)
    if image_size % STRIDE:
        raise ConfigError("image_size must be a multiple of %d, got %d"
                          % (STRIDE, image_size))


@functools.cache
def _class_table() -> Mapping[int, DefectClass]:
    return MappingProxyType({c.class_id: c for c in default_classes()})


def sample_episode(split: FoldSplit, role: str, k: int, seed: int,
                   image_size: int = 64) -> Episode:
    """Draw one episode: a class uniformly from the requested fold role, K
    support pairs and one query pair with independent substyles and warps.

    Samples whose mask vanishes at feature-grid resolution are redrawn (with
    a log line) so downstream pooling always sees foreground.
    """
    _check_request(role, k, image_size)
    table = _class_table()
    pool = split.train_class_ids if role == "train" else split.test_class_ids
    for cid in pool:
        if cid not in table:
            raise ConfigError("fold references unknown class id %d" % cid)
    images = np.empty((k + 1, 3, image_size, image_size), np.float32)
    masks = np.empty((k + 1, image_size, image_size), np.float32)
    grid = image_size // STRIDE
    rng = derive_rng(seed, "episode", role)
    cls = table[int(pool[rng.integers(len(pool))])]
    for index in range(k + 1):
        which, shot = ("support", index) if index < k else ("query", 0)
        for attempt in range(_GRID_RETRIES):
            sub = int(rng.integers(len(cls.substyles)))
            dist = DistortionParams(
                rotation=float(rng.uniform(-cls.rotation_max, cls.rotation_max)),
                scale=float(rng.uniform(*cls.scale_range)),
                perspective_x=float(rng.uniform(-cls.perspective_max,
                                                cls.perspective_max)),
                perspective_y=float(rng.uniform(-cls.perspective_max,
                                                cls.perspective_max)))
            sample_seed = int(rng.integers(2 ** 31))
            img, mask = generate_sample(cls, sub, dist, sample_seed, image_size)
            if mask_to_feature_grid(mask, grid).any():
                images[index], masks[index] = img, mask
                break
            log.info("episode %d: resampling %s %d (empty feature grid, "
                     "attempt %d)", seed, which, shot, attempt + 1)
        else:
            raise DegenerateEpisodeError(
                "episode %d: %s sample kept an empty feature grid after %d "
                "draws" % (seed, which, _GRID_RETRIES))
    return Episode(cls.class_id, images, masks, seed)
