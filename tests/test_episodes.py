"""Synthetic corpus: rendering determinism, warps, folds, episode protocol."""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from protoseg import episodes
from protoseg.episodes import (DefectClass, DistortionParams, Episode,
                               EpisodeStream, FoldSplit, _paint_discs,
                               default_classes, generate_sample, make_folds,
                               sample_episode, warp_mask)
from protoseg.errors import (ConfigError, DegenerateEpisodeError,
                             ProtosegError, UsageError)

from oracles import naive_paint_discs

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


def test_degenerate_class_raises_with_seed():
    tiny = DefectClass(
        class_id=0, family="pits", base_level=0.5, stripe_amp=0.05,
        stripe_freq=3.0, stripe_angle=0.3, noise_amp=0.03, noise_cells=5,
        tint=(0.0, 0.0, 0.0), defect_delta=0.4, defect_noise=0.1,
        rotation_max=0.3, scale_range=(0.9, 1.1), perspective_max=0.1,
        substyles=({"count": 1, "pit_radius": (0.4, 0.6), "spread": 0.05},))
    with pytest.raises(DegenerateEpisodeError) as err:
        generate_sample(tiny, 0, IDENT, seed=123, image_size=64)
    assert "123" in str(err.value)


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
            split = make_folds(ids, seed, tf)
            union = set().union(*split.folds)
            assert union == set(ids)
            assert sum(len(f) for f in split.folds) == 12
            assert len(split.test_class_ids) == 4
            assert len(split.train_class_ids) == 8
            assert not (set(split.test_class_ids) & set(split.train_class_ids))


def test_make_folds_deterministic():
    a = make_folds(tuple(range(12)), 7, 1)
    b = make_folds(tuple(range(12)), 7, 1)
    assert a.folds == b.folds


def test_make_folds_rotations_cover_all_classes():
    tests = []
    for tf in range(3):
        tests.extend(make_folds(tuple(range(12)), 3, tf).test_class_ids)
    assert sorted(tests) == list(range(12))


def test_make_folds_validation():
    with pytest.raises(ConfigError):
        make_folds((0, 1, 2, 3), 0, 0)  # not divisible by 3
    with pytest.raises(ConfigError):
        make_folds((0, 0, 1, 2, 3, 4), 0, 0)  # duplicate ids
    with pytest.raises(ConfigError):
        make_folds(tuple(range(12)), 0, 3)  # fold out of range


# ---------------------------------------------------------------------------
# episodes


SPLIT = make_folds(tuple(range(12)), seed=0, test_fold=0)


def test_episode_contract():
    ep = sample_episode(SPLIT, "train", 3, seed=5, image_size=32)
    assert isinstance(ep, Episode)
    assert ep.k == 3
    assert ep.images.shape == (4, 3, 32, 32)
    assert ep.masks.shape == (4, 32, 32)
    assert ep.images.dtype == ep.masks.dtype == np.float32
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
        for m in ep.masks[:-1]:
            pooled = m.reshape(8, 4, 8, 4).mean(axis=(1, 3))
            assert (pooled >= 0.5).any()


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
    with pytest.raises(ConfigError, match="^%s: " % name):
        EpisodeStream(SPLIT, "train", k, [0], size)
    assert not multiprocessing.active_children()


# Every episode the golden set renders, hashed in order. Rendering must stay
# bit-identical: a change to it changes training trajectories and every
# reported number, so this digest only changes together with them.
GOLDEN_EPISODE_DIGEST = (
    "ff9b919d6b003e3f3c6099254dd41e7c2205c0f1c6ae4b59b2c88b75ccf044ee")


def test_golden_episode_digest():
    digest = hashlib.sha256()
    families = set()
    for test_fold in range(3):
        split = make_folds(tuple(range(12)), seed=0, test_fold=test_fold)
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
                                   for a in (ep.images, ep.masks)])


@pytest.mark.parametrize("size", (32, 64))
@pytest.mark.parametrize("k", (1, 5))
@pytest.mark.parametrize("role", ("train", "test"))
def test_stream_matches_inline_sampling(role, k, size):
    seeds = [100 * k + size + i for i in range(3)]
    with EpisodeStream(SPLIT, role, k, seeds, size) as stream:
        for seed in seeds:
            got = sample_episode(SPLIT, role, k, seed, size, ahead=stream)
            assert _fingerprint(got) == _fingerprint(
                sample_episode(SPLIT, role, k, seed, size))
    assert not multiprocessing.active_children()


def test_stream_rejects_request_out_of_order():
    with EpisodeStream(SPLIT, "train", 1, [3, 4], 32) as stream:
        with pytest.raises(UsageError, match="episode 0"):
            sample_episode(SPLIT, "train", 1, 4, 32, ahead=stream)
        with pytest.raises(UsageError):
            sample_episode(SPLIT, "test", 1, 3, 32, ahead=stream)
        with pytest.raises(UsageError):
            sample_episode(SPLIT, "train", 2, 3, 32, ahead=stream)
        # A refused request takes nothing off the stream.
        for seed in (3, 4):
            got = sample_episode(SPLIT, "train", 1, seed, 32, ahead=stream)
            assert _fingerprint(got) == _fingerprint(
                sample_episode(SPLIT, "train", 1, seed, 32))
        with pytest.raises(UsageError, match="exhausted"):
            sample_episode(SPLIT, "train", 1, 5, 32, ahead=stream)


def test_stream_reports_a_worker_that_died(monkeypatch):
    monkeypatch.setattr(episodes, "_render", lambda *args: os._exit(3))
    with EpisodeStream(SPLIT, "test", 1, [0, 1], 32) as stream:
        with pytest.raises(ProtosegError, match="exited with code 3"):
            sample_episode(SPLIT, "test", 1, 0, 32, ahead=stream)
    assert not multiprocessing.active_children()


def test_stream_worker_ignores_interrupt():
    # Ctrl-C signals the whole process group; the caller stops the worker.
    with EpisodeStream(SPLIT, "test", 1, range(episodes._SLOTS + 2),
                       32) as stream:
        sample_episode(SPLIT, "test", 1, 0, 32, ahead=stream)
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGINT)
        got = sample_episode(SPLIT, "test", 1, 1, 32, ahead=stream)
        assert _fingerprint(got) == _fingerprint(
            sample_episode(SPLIT, "test", 1, 1, 32))


def test_stream_left_early_stops_its_worker():
    with EpisodeStream(SPLIT, "test", 5, range(20), 64) as stream:
        sample_episode(SPLIT, "test", 5, 0, 64, ahead=stream)
        assert len(multiprocessing.active_children()) == 1
    assert not multiprocessing.active_children()


class _SlowCopy(np.ndarray):
    """An array whose copy waits first, long enough for a worker that was
    let into the slot being copied to overwrite it."""

    def copy(self, order="C"):
        time.sleep(0.05)
        return super().copy(order)


@pytest.mark.parametrize("k, size", ((5, 64), (1, 32)))
def test_stream_episodes_outlive_slot_reuse(k, size):
    # Nine episodes through three slots write each slot three times;
    # episodes kept until the stream has closed must still be the inline
    # draws.
    seeds = [40 * k + size + i for i in range(9)]
    with EpisodeStream(SPLIT, "test", k, seeds, size) as stream:
        stream._slab = stream._slab.view(_SlowCopy)
        taken = [sample_episode(SPLIT, "test", k, seed, size, ahead=stream)
                 for seed in seeds]
    for seed, got in zip(seeds, taken):
        assert _fingerprint(got) == _fingerprint(
            sample_episode(SPLIT, "test", k, seed, size))


def test_closed_stream_refuses_take():
    with EpisodeStream(SPLIT, "test", 1, [0, 1], 32) as stream:
        sample_episode(SPLIT, "test", 1, 0, 32, ahead=stream)
    with pytest.raises(UsageError, match="^episode stream is closed$"):
        sample_episode(SPLIT, "test", 1, 1, 32, ahead=stream)


@pytest.mark.parametrize("k, size", ((-1, 32), (1, 0)))
def test_stream_refuses_request_it_cannot_size(k, size):
    with pytest.raises(ConfigError):
        EpisodeStream(SPLIT, "test", k, [0, 1], size)
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_closed_streams_hold_no_descriptors():
    before = len(os.listdir("/proc/self/fd"))
    kept = []
    for seed in range(5):
        with EpisodeStream(SPLIT, "test", 1, [seed, seed + 1], 32) as stream:
            sample_episode(SPLIT, "test", 1, seed, 32, ahead=stream)
        stream.close()  # a second close does nothing
        kept.append(stream)
    assert len(os.listdir("/proc/self/fd")) == before


_KILLED_CALLER = """
import sys, time
sys.path.insert(0, sys.argv[1])
from protoseg.episodes import EpisodeStream, make_folds
split = make_folds(tuple(range(12)), seed=0, test_fold=0)
stream = EpisodeStream(split, "test", 1, range(200), 32)
print(stream._worker.pid, flush=True)
time.sleep(60)
"""


def _exited(pid):
    """Whether pid is gone or a zombie; an orphan's new parent need not
    reap it."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            stat = f.read()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads the worker's state in /proc")
def test_stream_worker_exits_when_its_caller_is_killed():
    # A SIGKILLed caller runs no cleanup; only its pipe can tell the
    # worker, which by then has filled every slot and waits for a release.
    src = str(Path(episodes.__file__).resolve().parent.parent)
    child = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER, src],
                             stdout=subprocess.PIPE, text=True)
    try:
        worker = int(child.stdout.readline())
        time.sleep(0.5)
        child.kill()
        child.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not _exited(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        if not _exited(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail("worker %d outlived its killed caller by 10 s" % worker)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


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
