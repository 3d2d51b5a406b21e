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
#
# The renderer is pinned bit for bit (see `test_renderer_matches_reference`),
# so every rewrite of its array work keeps each pixel's float operations and
# their order. The caches below hold read-only arrays keyed by values
# (sizes, a class's stripe parameters, a point count), so two callers that
# share an entry need the same bytes.


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and the column coordinate of every pixel, as (size, size)
    float64 arrays."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    return _read_only(yy), _read_only(xx)


@functools.cache
def _noise_matrix(size: int, src: int) -> np.ndarray:
    return _read_only(bilinear_matrix(size, src))


@functools.lru_cache(maxsize=64)
def _stripe_field(freq: float, angle: float, size: int) -> np.ndarray:
    """2*pi*freq * (cos(angle) * x + sin(angle) * y) at every pixel, with x
    and y in [0, 1): a class's stripes before their random phase. Keyed by
    the stripe parameters, not the class id, which test classes reuse."""
    yy, xx = _grid(size)
    ca, sa = np.cos(angle), np.sin(angle)
    return _read_only(2 * np.pi * freq * (ca * (xx / size) + sa * (yy / size)))


def _value_noise(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    coarse = rng.uniform(-1.0, 1.0, size=(cells + 1, cells + 1))
    m = _noise_matrix(size, cells + 1)
    return m @ coarse @ m.T


def _texture(rng: np.random.Generator, cls: DefectClass, size: int) -> np.ndarray:
    phase = rng.uniform(0, 2 * np.pi)
    gray = _stripe_field(cls.stripe_freq, cls.stripe_angle, size) + phase
    np.sin(gray, out=gray)
    gray *= cls.stripe_amp
    gray += cls.base_level
    gray += cls.noise_amp * _value_noise(rng, size, cls.noise_cells)
    img = gray + np.array(cls.tint)[:, None, None]
    return np.clip(img, 0.02, 0.98, out=img)


def _paint_discs(mask: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> None:
    """Set every pixel (y, x) with (y - cy)**2 + (x - cx)**2 <= r*r for some
    disc, all discs at once. `mask` is C-contiguous: it is written through
    a flat view.

    Each disc tests a square window of pixels around its center, truncated
    toward zero. A pixel within r of a center lies within ceil(r) + 1 of
    its truncation, so a window of reach ceil(max r) + 1 holds every hit.
    Window rows and columns outside the image get an infinite squared
    distance, so they never hit.
    """
    size = mask.shape[0]
    reach = int(np.ceil(radii.max())) + 1
    offsets = np.arange(-reach, reach + 1)[:, None]
    # (window, n) arrays: the discs run along the innermost axis, which
    # keeps numpy's broadcast loops long.
    ys = offsets + centers[:, 0].astype(int)
    xs = offsets + centers[:, 1].astype(int)
    dy2 = (ys - centers[:, 0]) ** 2
    dx2 = (xs - centers[:, 1]) ** 2
    dy2[(ys < 0) | (ys >= size)] = np.inf
    dx2[(xs < 0) | (xs >= size)] = np.inf
    hit = dy2[:, None] + dx2 <= radii * radii      # (window, window, n)
    pixel = (ys * size)[:, None] + xs
    mask.reshape(-1)[pixel[hit]] = True


@functools.cache
def _unit_steps(n: int) -> np.ndarray:
    """n evenly spaced fractions from 0 to 1, as a column."""
    return _read_only(np.linspace(0.0, 1.0, n)[:, None])


def _draw_scratch(rng, size: int, style: Mapping) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    pos = rng.uniform(0.2, 0.8, size=2) * size
    angle = rng.uniform(0, 2 * np.pi)
    seg_len = style["length"] * size / style["segments"]
    pts = [pos]
    for _ in range(style["segments"]):
        angle += rng.normal(0.0, style["wobble"])
        pos = pos + seg_len * np.array([np.sin(angle), np.cos(angle)])
        pts.append(pos)
    segments = []
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(2, int(np.linalg.norm(b - a) / 0.5))
        segments.append(a + _unit_steps(n) * (b - a))
    centers = np.concatenate(segments)
    _paint_discs(mask, centers, np.full(len(centers), style["thickness"]))
    return mask


def _draw_patch(rng, size: int, style: Mapping) -> np.ndarray:
    """A disc whose radius rho(theta) = radius * (1 + sum_k a_k sin((k+2)
    theta + p_k)), floored at 0.3 * radius, wobbles with the angle theta
    around the center.

    The sum lies within +-sum |a_k|, so pixels inside the smallest possible
    rho are set and pixels outside the largest are not, whatever theta.
    Both bounds are widened by 1e-9 * (1 + sum |a_k|), far above the
    rounding error of rho, so only the pixels in the ring between them need
    theta and rho, computed per pixel as on the whole grid.
    """
    center = rng.uniform(0.3, 0.7, size=2) * size
    # The floor keeps small renders (toy 16x16 images) visible on the
    # STRIDE x STRIDE pooling windows of the feature grid.
    radius = max(style["radius"] * size * rng.uniform(0.85, 1.15), 3.0)
    amps = rng.normal(0.0, style["rough"], size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    yy, xx = _grid(size)
    dy, dx = yy - center[0], xx - center[1]
    dist2 = dy * dy + dx * dx
    floor = 0.3 * radius
    wobble = np.abs(amps).sum()
    slack = 1e-9 * (1.0 + wobble)
    inner = max(radius * (1.0 - wobble - slack), floor)
    outer = radius * (1.0 + wobble + slack)
    mask = dist2 <= inner * inner
    ring = np.flatnonzero((dist2 <= outer * outer) & ~mask)
    dist2 = dist2.reshape(-1)[ring]
    theta = np.arctan2(dy.reshape(-1)[ring], dx.reshape(-1)[ring])
    rho = np.zeros_like(theta)
    for k, (a, p) in enumerate(zip(amps, phases)):
        term = theta * (k + 2)
        term += p
        np.sin(term, out=term)
        term *= a
        rho += term
    rho += 1.0
    rho *= radius
    np.maximum(rho, floor, out=rho)
    mask.reshape(-1)[ring] = dist2 <= rho * rho
    return mask


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
    """The source (y, x) each output pixel reads: the inverse homography
    applied to the pixel grid, as (h0 x + h1 y + h2) / (h6 x + h7 y + h8)."""
    h = np.linalg.inv(_homography(d, size))
    yy, xx = _grid(size)

    def row(i):
        out = h[i, 0] * xx
        out += h[i, 1] * yy
        out += h[i, 2]
        return out

    denom = row(2)
    sx = row(0)
    sx /= denom
    sy = row(1)
    sy /= denom
    return sy, sx


def warp_mask(mask: np.ndarray, d: DistortionParams) -> np.ndarray:
    """Nearest-neighbor warp; out-of-bounds reads are background.

    Each source coordinate is rounded, then clamped to one pixel past the
    image (NaN to the low side), and read from the mask framed by a border
    of zeros, so every read outside the image lands on the border.
    """
    size = mask.shape[0]
    framed = np.zeros((size + 2, size + 2), mask.dtype)
    framed[1:-1, 1:-1] = mask
    sy, sx = _source_coords(d, size)
    for s in (sy, sx):
        np.rint(s, out=s)
        np.fmax(s, -1.0, out=s)
        np.fmin(s, size, out=s)
    sy *= size + 2
    sy += sx
    sy += size + 3      # the framed position of source pixel (0, 0)
    return framed.reshape(-1)[sy.astype(np.intp)]


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
        frac = np.count_nonzero(candidate) / candidate.size
        if FG_MIN <= frac <= FG_MAX:
            mask = candidate
            break
    if mask is None:
        raise DegenerateEpisodeError(
            "class %d substyle %d: no foreground fraction in [%.2f, %.2f] "
            "after %d draws (seed %d)" % (cls.class_id, substyle, FG_MIN,
                                          FG_MAX, _SHAPE_RETRIES, seed))
    img = _texture(rng, cls, image_size)
    # Defect pixels get defect_delta plus normal(0, defect_noise) noise
    # drawn over the whole image in channel-major order. Only the draw's
    # prefix up to the last defect pixel of the last channel is taken: the
    # same values. normal(0, s) returns 0 + s * z for a standard normal z,
    # which equals s * z once defect_delta is added, so only the taken
    # values are scaled. The other pixels keep their texture, already
    # inside [0, 1].
    defect = np.flatnonzero(mask)
    plane = image_size * image_size
    z = rng.standard_normal(2 * plane + defect[-1] + 1)
    shift = z[defect + np.arange(0, 3 * plane, plane)[:, None]]
    shift *= cls.defect_noise
    shift += cls.defect_delta
    flat = img.reshape(3, plane)
    pixels = flat[:, defect]
    pixels += shift
    flat[:, defect] = np.clip(pixels, 0.0, 1.0, out=pixels)
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
