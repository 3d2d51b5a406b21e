"""Synthetic corpus: rendering determinism, warps, folds, episode protocol."""

import hashlib
import multiprocessing
import os
import time

import numpy as np
import pytest

from protoseg import episodes
from protoseg.episodes import (FG_MAX, FG_MIN, DefectClass, DistortionParams,
                               Episode, FoldSplit, _paint_discs,
                               default_classes,
                               generate_sample, make_folds, sample_episode,
                               warp_mask)
from protoseg.errors import ConfigError, DegenerateEpisodeError
from protoseg.helper import _share_episodes

from oracles import (naive_paint_discs, reference_generate_sample,
                     reference_warp_mask)

CLASSES = default_classes()
IDENT = DistortionParams(rotation=0.0, scale=1.0, perspective_x=0.0,
                         perspective_y=0.0)


def test_corpus_shape():
    assert len(CLASSES) == 12
    assert [c.class_id for c in CLASSES] == list(range(12))
    fams = {c.family for c in CLASSES}
    assert fams == {"scratch", "patch", "pits"}
    for c in CLASSES:
        assert len(c.substyles) >= 2
    # both defect polarities are present
    signs = {np.sign(c.defect_delta) for c in CLASSES}
    assert signs == {-1.0, 1.0}


def test_corpus_is_constant_across_calls():
    again = default_classes()
    for a, b in zip(CLASSES, again):
        assert a == b


def test_corpus_is_shared_and_read_only():
    assert default_classes() is CLASSES
    with pytest.raises(TypeError):
        CLASSES[0].substyles[0]["segments"] = 1


def test_generate_sample_deterministic_bit_exact():
    d = DistortionParams(0.1, 1.05, 0.02, -0.03)
    img1, msk1 = generate_sample(CLASSES[4], 1, d, seed=99, image_size=32)
    img2, msk2 = generate_sample(CLASSES[4], 1, d, seed=99, image_size=32)
    assert np.array_equal(img1, img2)
    assert np.array_equal(msk1, msk2)


def test_generate_sample_output_contract():
    img, msk = generate_sample(CLASSES[0], 0, IDENT, seed=7, image_size=32)
    assert img.shape == (3, 32, 32)
    assert msk.shape == (32, 32)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert set(np.unique(msk)) <= {0.0, 1.0}


@pytest.mark.parametrize("cid", range(12))
def test_foreground_fraction_bounds(cid):
    cls = CLASSES[cid]
    for seed in range(12):
        d = DistortionParams(cls.rotation_max * (seed % 3 - 1) / 2,
                             cls.scale_range[seed % 2],
                             cls.perspective_max * (seed % 2),
                             0.0)
        _, msk = generate_sample(cls, seed % len(cls.substyles), d,
                                 seed=seed, image_size=64)
        frac = float(msk.mean())
        assert 0.02 <= frac <= 0.60


def test_generate_sample_rejects_bad_substyle():
    with pytest.raises(ConfigError):
        generate_sample(CLASSES[0], 5, IDENT, seed=0)


def test_generate_sample_enforces_distortion_limits():
    cls = CLASSES[0]
    too_far = DistortionParams(cls.rotation_max + 0.2, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        generate_sample(cls, 0, too_far, seed=0)


def _test_class(**changes):
    """A one-substyle pits class outside the corpus, for edge cases."""
    fields = dict(
        class_id=0, family="pits", base_level=0.5, stripe_amp=0.05,
        stripe_freq=3.0, stripe_angle=0.3, noise_amp=0.03, noise_cells=5,
        tint=(0.0, 0.0, 0.0), defect_delta=0.4, defect_noise=0.1,
        rotation_max=0.3, scale_range=(0.9, 1.1), perspective_max=0.1,
        substyles=({"count": 1, "pit_radius": (0.4, 0.6), "spread": 0.05},))
    fields.update(changes)
    return DefectClass(**fields)


def test_degenerate_class_raises_with_seed():
    tiny = _test_class()
    with pytest.raises(DegenerateEpisodeError) as err:
        generate_sample(tiny, 0, IDENT, seed=123, image_size=64)
    assert "123" in str(err.value)
    with pytest.raises(DegenerateEpisodeError) as ref:
        reference_generate_sample(tiny, 0, IDENT, seed=123, image_size=64)
    assert str(err.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the renderer against its reference


def _same_sample(got, want):
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _warps(cls, *key, count=6):
    """Seeded warps inside the class's limits, the two extreme corners
    first."""
    lo, hi = cls.scale_range
    p = cls.perspective_max
    out = [DistortionParams(cls.rotation_max, hi, p, -p),
           DistortionParams(-cls.rotation_max, lo, -p, p)]
    rng = np.random.default_rng(list(key))
    for _ in range(count - len(out)):
        out.append(DistortionParams(
            float(rng.uniform(-cls.rotation_max, cls.rotation_max)),
            float(rng.uniform(lo, hi)), float(rng.uniform(-p, p)),
            float(rng.uniform(-p, p))))
    return out


@pytest.mark.parametrize("size", (16, 32, 64))
@pytest.mark.parametrize("cid, sub", [(c.class_id, s) for c in CLASSES
                                      for s in range(len(c.substyles))])
def test_renderer_matches_reference(cid, sub, size):
    # The renderer must give the bytes of the one it replaced
    # (`reference_generate_sample`), a stricter and wider check than the
    # golden episode digest: every class and substyle, three sizes, and
    # warps across each class's limits.
    cls = CLASSES[cid]
    for i, dist in enumerate(_warps(cls, cid, sub, size)):
        seed = 1000 * cid + 100 * sub + size + i
        _same_sample(generate_sample(cls, sub, dist, seed, size),
                     reference_generate_sample(cls, sub, dist, seed, size))


@pytest.mark.parametrize("seed", range(6))
def test_warp_matches_reference(seed):
    # Warps beyond any class's limits too: half turns, strong scales and
    # perspective, on float and bool masks of odd and even sizes.
    rng = np.random.default_rng(seed)
    size = int(rng.integers(5, 40))
    for dtype in (np.float32, bool):
        mask = (rng.random((size, size)) > 0.6).astype(dtype)
        for _ in range(8):
            dist = DistortionParams(float(rng.uniform(-np.pi, np.pi)),
                                    float(rng.uniform(0.3, 2.5)),
                                    float(rng.uniform(-1.0, 1.0)),
                                    float(rng.uniform(-1.0, 1.0)))
            _same_sample([warp_mask(mask, dist)],
                         [reference_warp_mask(mask, dist)])


def test_shape_retry_then_success_matches_reference(monkeypatch):
    # A pit whose area straddles FG_MIN at 32 px: some seeds' first shape
    # falls outside [FG_MIN, FG_MAX] and a later draw is kept. Find one.
    cls = _test_class(class_id=5, substyles=(
        {"count": 1, "pit_radius": (4.6, 5.6), "spread": 0.1},))
    fractions = []
    warp = episodes.warp_mask

    def recording_warp(mask, dist):
        out = warp(mask, dist)
        fractions.append(out.mean())
        return out

    monkeypatch.setattr(episodes, "warp_mask", recording_warp)
    for seed in range(200):
        fractions.clear()
        try:
            got = generate_sample(cls, 0, IDENT, seed, 32)
        except DegenerateEpisodeError:
            continue
        if len(fractions) > 1:
            break
    else:
        pytest.fail("no seed needed a second shape draw")
    assert not FG_MIN <= fractions[0] <= FG_MAX
    assert FG_MIN <= fractions[-1] <= FG_MAX
    _same_sample(got, reference_generate_sample(cls, 0, IDENT, seed, 32))


def test_texture_depends_on_stripes_not_class_id():
    # Classes built outside the corpus may reuse a class id with other
    # stripes; whatever the renderer caches must not mix them up.
    pits = ({"count": 6, "pit_radius": (4.2, 5.2), "spread": 0.2},)
    a = _test_class(class_id=3, stripe_freq=3.0, stripe_angle=0.3,
                    substyles=pits)
    b = _test_class(class_id=3, stripe_freq=7.5, stripe_angle=2.0,
                    substyles=pits)
    images = []
    for cls in (a, b, a):
        got = generate_sample(cls, 0, IDENT, seed=8, image_size=32)
        _same_sample(got, reference_generate_sample(cls, 0, IDENT, 8, 32))
        images.append(got[0])
    assert not np.array_equal(images[0], images[1])


# ---------------------------------------------------------------------------
# warps


def test_warp_identity_is_noop():
    rng = np.random.default_rng(1)
    mask = (rng.random((16, 16)) > 0.7).astype(np.float32)
    assert np.array_equal(warp_mask(mask, IDENT), mask)


def test_warp_half_turn_is_exact_rotation():
    rng = np.random.default_rng(2)
    mask = (rng.random((17, 17)) > 0.7).astype(np.float32)
    got = warp_mask(mask, DistortionParams(np.pi, 1.0, 0.0, 0.0))
    assert np.array_equal(got, np.rot90(mask, 2))


def test_warp_out_of_frame_becomes_background():
    mask = np.ones((8, 8), dtype=np.float32)
    # shrinking the content samples outside the source frame at the corners
    got = warp_mask(mask, DistortionParams(0.0, 0.5, 0.0, 0.0))
    assert got[0, 0] == 0.0 and got[-1, -1] == 0.0
    assert got[4, 4] == 1.0


def test_warp_scale_shrinks_area():
    mask = np.zeros((32, 32), dtype=np.float32)
    mask[8:24, 8:24] = 1.0
    small = warp_mask(mask, DistortionParams(0.0, 0.5, 0.0, 0.0)).sum()
    big = warp_mask(mask, DistortionParams(0.0, 1.5, 0.0, 0.0)).sum()
    assert small < mask.sum() < big


def test_warp_mask_stays_binary():
    rng = np.random.default_rng(3)
    mask = (rng.random((16, 16)) > 0.5).astype(np.float32)
    got = warp_mask(mask, DistortionParams(0.4, 1.1, 0.08, -0.05))
    assert set(np.unique(got)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# folds


def test_make_folds_partition_properties():
    ids = tuple(range(12))
    for seed in range(5):
        for tf in range(3):
            split = make_folds(seed, tf)
            union = set().union(*split.folds)
            assert union == set(ids)
            assert sum(len(f) for f in split.folds) == 12
            assert len(split.test_class_ids) == 4
            assert len(split.train_class_ids) == 8
            assert not (set(split.test_class_ids) & set(split.train_class_ids))


def test_make_folds_deterministic():
    a = make_folds(7, 1)
    b = make_folds(7, 1)
    assert a.folds == b.folds


def test_make_folds_rotations_cover_all_classes():
    tests = []
    for tf in range(3):
        tests.extend(make_folds(3, tf).test_class_ids)
    assert sorted(tests) == list(range(12))


def test_make_folds_validation():
    with pytest.raises(ConfigError):
        make_folds(0, 3)  # fold out of range


@pytest.mark.parametrize("folds, test_fold, message", [
    (((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 99)), 0, "each class id"),
    (((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 10)), 0, "each class id"),
    (((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)), 3, "^test_fold must be"),
], ids=["unknown-id", "repeated-id", "test-fold-3"])
def test_fold_split_checks_itself_when_built(folds, test_fold, message):
    # An unknown id fails here, before any episode is drawn from the split.
    with pytest.raises(ConfigError, match=message):
        FoldSplit(folds=folds, test_fold=test_fold)


# ---------------------------------------------------------------------------
# episodes


SPLIT = make_folds(seed=0, test_fold=0)


def test_episode_contract():
    ep = sample_episode(SPLIT, "train", 3, seed=5, image_size=32)
    assert isinstance(ep, Episode)
    assert ep.k == 3
    assert ep.images.shape == (4, 3, 32, 32)
    assert ep.masks.shape == (4, 32, 32)
    assert ep.grids.shape == (4, 8, 8)
    assert ep.images.dtype == ep.masks.dtype == ep.grids.dtype == np.float32
    assert ep.class_id in SPLIT.train_class_ids


def test_episode_roles_draw_from_disjoint_pools():
    train_seen, test_seen = set(), set()
    for seed in range(40):
        train_seen.add(sample_episode(SPLIT, "train", 1, seed, 32).class_id)
        test_seen.add(sample_episode(SPLIT, "test", 1, seed, 32).class_id)
    assert train_seen <= set(SPLIT.train_class_ids)
    assert test_seen <= set(SPLIT.test_class_ids)
    assert not (train_seen & test_seen)


def test_episode_deterministic():
    a = sample_episode(SPLIT, "train", 2, seed=11, image_size=32)
    b = sample_episode(SPLIT, "train", 2, seed=11, image_size=32)
    assert a.class_id == b.class_id
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.masks, b.masks)


def test_episode_support_masks_nonempty_at_grid():
    for seed in range(30):
        ep = sample_episode(SPLIT, "train", 1, seed, 32)
        for m, grid in zip(ep.masks, ep.grids):
            pooled = m.reshape(8, 4, 8, 4).mean(axis=(1, 3))
            assert (pooled >= 0.5).any()
            # The episode carries each mask's feature grid, pooled once.
            assert np.array_equal(grid, pooled >= 0.5)


def test_episode_validation():
    with pytest.raises(ConfigError):
        sample_episode(SPLIT, "validate", 1, 0, 32)
    with pytest.raises(ConfigError):
        sample_episode(SPLIT, "train", 0, 0, 32)
    with pytest.raises(ConfigError):
        sample_episode(SPLIT, "train", 1, 0, 30)  # not divisible by 4
    with pytest.raises(ConfigError):
        sample_episode(SPLIT, "train", 1, 0, 0)


@pytest.mark.parametrize("name, k, size", [
    ("k", 2.0, 32), ("k", True, 32), ("image_size", 1, 32.0),
    ("image_size", 1, True),
])
def test_shot_count_and_size_must_be_integers(name, k, size):
    # k=True would otherwise run K=1, and 2.0 or 32.0 fail inside numpy.
    with pytest.raises(ConfigError, match="^%s: " % name):
        sample_episode(SPLIT, "train", k, 0, size)


# Every episode the golden set renders, hashed in order. Rendering must stay
# bit-identical: a change to it changes training trajectories and every
# reported number, so this digest only changes together with them.
GOLDEN_EPISODE_DIGEST = (
    "ff9b919d6b003e3f3c6099254dd41e7c2205c0f1c6ae4b59b2c88b75ccf044ee")


def test_golden_episode_digest():
    digest = hashlib.sha256()
    families = set()
    for test_fold in range(3):
        split = make_folds(seed=0, test_fold=test_fold)
        for role in ("train", "test"):
            for k in (1, 5):
                for size in (32, 64):
                    seed = 1000 * test_fold + 10 * k + size
                    ep = sample_episode(split, role, k, seed, size)
                    families.add(CLASSES[ep.class_id].family)
                    digest.update(np.int64(ep.class_id).tobytes())
                    for t in (ep.images[:-1], ep.masks[:-1],
                              ep.images[-1], ep.masks[-1]):
                        digest.update(t.tobytes())
    assert families == {"scratch", "patch", "pits"}
    assert digest.hexdigest() == GOLDEN_EPISODE_DIGEST


def _fingerprint(ep):
    return (ep.class_id, ep.seed, [(a.dtype.str, a.shape, a.tobytes())
                                   for a in (ep.images, ep.masks, ep.grids)])


@pytest.mark.parametrize("size", (32, 64))
@pytest.mark.parametrize("k", (1, 5))
@pytest.mark.parametrize("role", ("train", "test"))
def test_stream_matches_inline_sampling(role, k, size):
    # Episodes drawn by evaluation's forked helper are the ones one process
    # draws inline: sampling depends on the seed alone, not on the process.
    seeds = [100 * k + size + i for i in range(4)]
    caller = os.getpid()

    def draw(i):
        if os.getpid() == caller:
            time.sleep(0.05)  # so the helper surely draws a share
        ep = sample_episode(SPLIT, role, k, seeds[i], size)
        return os.getpid(), _fingerprint(ep)

    rows = _share_episodes(draw, len(seeds))
    assert len({pid for pid, _ in rows} - {caller}) == 1
    assert [fp for _, fp in rows] == [
        _fingerprint(sample_episode(SPLIT, role, k, seed, size))
        for seed in seeds]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("seed", range(8))
def test_paint_discs_matches_naive(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(8, 24))
    n = int(rng.integers(1, 12))
    # Centers reach past both edges, including negative coordinates.
    centers = rng.uniform(-6.0, size + 6.0, size=(n, 2))
    radii = rng.uniform(0.2, 7.0, size=n)
    mask = np.zeros((size, size), dtype=bool)
    _paint_discs(mask, centers, radii)
    assert np.array_equal(mask, naive_paint_discs(size, centers, radii))
