"""Optimizer, training loop, checkpoints, evaluation, ablation."""

import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import protoseg
import protoseg.harness as harness
import protoseg.helper
from protoseg import autodiff as ad
from protoseg.autodiff import Parameter, Tape, Tensor
from protoseg.config import Config
from protoseg.episodes import sample_episode
from protoseg.errors import (ConfigError, DegenerateEpisodeError, FormatError,
                             ProtosegError, TrainingError, ValidationError)
from protoseg.fusion import bce_loss, binarize
from protoseg.harness import (SGD, ablate, default_split, evaluate,
                              gradcheck_model, load_network, model_report,
                              render_ablation, save_checkpoint, train)
from protoseg.metrics import EvalReport, fb_iou, iou, miou
from protoseg.network import FewShotSegmenter
from protoseg.seeding import derive_seed
from protoseg.storage import read_checkpoint, write_checkpoint

# 16px toy geometry keeps each training run around a tenth of a second
TINY = Config(image_size=16, channels=8, proto_dim=4, encoder_width=4,
              reduction=4, epochs=2, episodes_per_epoch=4)


def _score_as(net, probabilities):
    """Make net.forward predict probabilities(episode)."""
    net.forward = lambda ep: Tensor(probabilities(ep))


def _reference_report(net, k, episodes, seed):
    """evaluate's report as one process computes it: each episode drawn,
    forwarded and scored in turn."""
    cfg = net.config
    split = default_split(cfg)
    per_class, pairs, fbs, losses = defaultdict(list), [], [], []
    for i in range(episodes):
        ep = sample_episode(split, "test", k, derive_seed(seed, "eval", i),
                            cfg.image_size)
        probabilities = net.forward(ep)
        losses.append(bce_loss(probabilities,
                               ep.masks[-1].astype(net.dtype)).item())
        pred = binarize(probabilities)
        pairs.append((ep.class_id, iou(pred, ep.masks[-1])))
        per_class[ep.class_id].append(pairs[-1][1])
        fbs.append(fb_iou(pred, ep.masks[-1]))
    return EvalReport(
        fold=cfg.fold, k_shot=k, episodes=episodes,
        miou=miou(pairs, split.test_class_ids), fb_iou=float(np.mean(fbs)),
        parameter_count=net.parameter_count(),
        per_class_iou={c: float(np.mean(v)) for c, v in per_class.items()},
        mean_loss=float(np.mean(losses)))


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_matches_hand_rollout():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = SGD([p], learning_rate=0.1, momentum=0.9)
    theta = np.array([1.0, -2.0])
    v = np.zeros(2)
    for step in range(4):
        g = np.array([0.5, -1.0]) * (step + 1)
        p.grad = g.copy()
        opt.step()
        v = 0.9 * v + g
        theta = theta - 0.1 * v
        assert np.allclose(p.data, theta, atol=1e-12)


def test_sgd_zero_lr_freezes_parameters():
    p = Parameter("p", np.ones(3))
    opt = SGD([p], learning_rate=0.0, momentum=0.9)
    p.grad = np.full(3, 7.0)
    opt.step()
    assert np.array_equal(p.data, np.ones(3))


def test_sgd_no_momentum_is_plain_descent():
    p = Parameter("p", np.zeros(2))
    opt = SGD([p], learning_rate=0.5, momentum=0.0)
    p.grad = np.array([1.0, -2.0])
    opt.step()
    assert np.allclose(p.data, [-0.5, 1.0])


def test_sgd_treats_missing_grad_as_zero():
    # grad None means no gradient reached the parameter; momentum still
    # carries the previous step.
    p = Parameter("p", np.zeros(2))
    opt = SGD([p], learning_rate=0.5, momentum=0.5)
    p.grad = np.array([1.0, -2.0])
    opt.step()
    opt.zero_grad()
    assert p.grad is None
    opt.step()
    assert np.array_equal(p.data, [-0.75, 1.5])


# ---------------------------------------------------------------------------
# training loop


def test_train_produces_losses_and_checkpoints(tmp_path):
    result = train(TINY, out_dir=tmp_path)
    assert len(result.losses) == TINY.epochs * TINY.episodes_per_epoch
    assert all(np.isfinite(result.losses))
    assert abs(result.losses[0] - np.log(2.0)) < 1e-6  # zero-init classifier
    assert len(result.checkpoints) == TINY.epochs
    for path in result.checkpoints:
        assert path.exists()


def test_train_progress_callback():
    seen = []
    train(TINY, progress=lambda epoch, loss: seen.append((epoch, loss)))
    assert [e for e, _ in seen] == list(range(TINY.epochs))
    assert all(np.isfinite(l) for _, l in seen)


def test_train_deterministic_in_memory():
    a = train(TINY)
    b = train(TINY)
    assert a.losses == b.losses
    for pa, pb in zip(a.network.parameters(), b.network.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_train_aborts_on_non_finite_loss(monkeypatch):
    class Poisoned(FewShotSegmenter):
        def __init__(self, config, dtype=np.float32):
            super().__init__(config, dtype)
            self.head.cls_b.data[:] = np.nan

    monkeypatch.setattr(harness, "FewShotSegmenter", Poisoned)
    with pytest.raises(TrainingError) as err:
        train(TINY)
    assert "episode seed" in str(err.value)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("episodes_per_epoch, poisoned, epoch, indices", [
    (4, 2, 1, (4, 5)),  # epoch 1's first step, two episodes
    (3, 1, 0, (2,)),    # epoch 0's one-episode tail step
])
def test_train_raises_on_a_non_finite_weight_before_the_next_forward(
        monkeypatch, tmp_path, episodes_per_epoch, poisoned, epoch, indices):
    # Optimizer step `poisoned` writes inf into one weight. Every forward,
    # in either process, logs its seed and whether its weights are finite.
    cfg = replace(TINY, episodes_per_epoch=episodes_per_epoch)
    log, steps, step = tmp_path / "forwards", [], SGD.step

    def poisoning_step(self):
        step(self)
        if len(steps) == poisoned:
            self.params[3].data.flat[0] = np.inf
        steps.append(None)

    class Logged(FewShotSegmenter):
        def episode_loss(self, episode):
            finite = all(np.isfinite(p.data).all() for p in self.parameters())
            with open(log, "a") as f:
                f.write("%d %s\n" % (episode.seed, finite))
            return super().episode_loss(episode)

    monkeypatch.setattr(SGD, "step", poisoning_step)
    monkeypatch.setattr(harness, "FewShotSegmenter", Logged)
    name = FewShotSegmenter(cfg).parameters()[3].name
    seeds = [derive_seed(cfg.seed, "train", i) for i in range(indices[-1] + 1)]
    with pytest.raises(TrainingError, match=(
            r"^non-finite weight %s after optimizer step %d \(epoch %d, "
            r"episode seeds %s\)$" % (name, poisoned, epoch, " and ".join(
                str(seeds[i]) for i in indices)))):
        train(cfg)
    assert sorted(log.read_text().split("\n")[:-1]) == sorted(
        "%d True" % s for s in seeds)
    assert not multiprocessing.active_children()


def test_train_runs_one_helper_while_it_trains():
    # After each epoch exactly one helper runs; after the call, none.
    epochs, helpers = [], set()

    def progress(epoch, loss):
        (helper,) = multiprocessing.active_children()
        helpers.add(helper.pid)
        epochs.append(epoch)

    train(TINY, progress=progress)
    assert epochs == list(range(TINY.epochs))
    assert len(helpers) == 1
    assert not multiprocessing.active_children()


def _reference_training(config, out_dir):
    """train's losses, network and checkpoint files as one process makes
    them: the episodes of each step drawn, forwarded and backwarded in
    turn, their gradients accumulated, then one SGD step."""
    net = FewShotSegmenter(config)
    split = default_split(config)
    opt = SGD(net.parameters(), config.learning_rate, config.momentum)
    losses, paths, index = [], [], 0
    for epoch in range(config.epochs):
        remaining = config.episodes_per_epoch
        while remaining:
            batch = min(2, remaining)
            remaining -= batch
            opt.zero_grad()
            for _ in range(batch):
                ep = sample_episode(split, "train", config.k_shot,
                                    derive_seed(config.seed, "train", index),
                                    config.image_size)
                with Tape() as tape:
                    loss = net.episode_loss(ep)
                    scaled = ad.mul(loss, 1.0 / batch)
                ad.backward(tape, scaled)
                losses.append(loss.item())
                index += 1
            opt.step()
        paths.append(save_checkpoint(
            out_dir / ("checkpoint-epoch%03d.ckpt" % epoch), net, epoch, index))
    return losses, net, paths


@pytest.mark.parametrize("episodes_per_epoch, k_shot, overrides", [
    pytest.param(e, k, dict(image_size=32), id="%d-%d" % (e, k))
    for e in (1, 3, 4) for k in (1, 2)] + [
    # At desk width a fusion.res* piece is 64*64*3*3 float32, 147 KiB:
    # more than a pipe buffer (64 KiB on Linux) holds, so the helper
    # blocks partway through sending it.
    pytest.param(3, 2, dict(image_size=16, channels=32),
                 id="3-2-channels32")])
def test_train_matches_a_single_process_loop(episodes_per_epoch, k_shot,
                                             overrides, tmp_path):
    # 3 ends each epoch in a one-episode step, which the caller runs
    # alone; at K=2 each encoder parameter gets three gradient pieces.
    cfg = replace(TINY, k_shot=k_shot, episodes_per_epoch=episodes_per_epoch,
                  **overrides)
    losses, net, paths = _reference_training(cfg, tmp_path / "serial")
    result = train(cfg, out_dir=tmp_path / "forked")
    assert result.losses == losses
    for got, want in zip(result.network.parameters(), net.parameters()):
        assert got.name == want.name
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes(), got.name
    assert ([p.read_bytes() for p in result.checkpoints]
            == [p.read_bytes() for p in paths])


def _failing_draws(monkeypatch, failures, slow_caller=None):
    """Make harness.sample_episode raise failures[seed] for those seeds,
    after a pause in the caller (slow_caller True) or the helper (False)."""
    caller = os.getpid()

    def sample(split, role, k, seed, image_size):
        if slow_caller is not None and (os.getpid() == caller) == slow_caller:
            time.sleep(0.05)
        if seed in failures:
            raise failures[seed]
        return sample_episode(split, role, k, seed, image_size)

    monkeypatch.setattr(harness, "sample_episode", sample)


@pytest.mark.parametrize("index", (1, 3))
def test_render_error_on_the_helpers_episode_surfaces(monkeypatch, index):
    # Odd episodes are the helpers' (two per step, from episode 0).
    seed = derive_seed(TINY.seed, "train", index)
    _failing_draws(monkeypatch, {
        seed: DegenerateEpisodeError("empty grid (seed %d)" % seed)})
    with pytest.raises(DegenerateEpisodeError,
                       match=r"^empty grid \(seed %d\)$" % seed):
        train(TINY)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("index", (1, 3, 5))
def test_non_finite_loss_on_the_helpers_episode_surfaces(monkeypatch, index):
    # Index 5 is the helper's episode in epoch 1 (4 episodes per epoch).
    seed = derive_seed(TINY.seed, "train", index)

    class Poisoned(FewShotSegmenter):
        def episode_loss(self, episode):
            loss = super().episode_loss(episode)
            return ad.mul(loss, np.nan) if episode.seed == seed else loss

    monkeypatch.setattr(harness, "FewShotSegmenter", Poisoned)
    with pytest.raises(TrainingError,
                       match=r"^non-finite loss at training episode %d "
                             r"\(episode seed %d, epoch %d\)$"
                             % (index, seed, index // TINY.episodes_per_epoch)):
        train(TINY)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("slow_caller", (True, False))
def test_both_episodes_of_a_step_failing_raise_the_first(monkeypatch,
                                                        slow_caller):
    # Whichever process fails first, the call raises episode 2's error,
    # the one a single loop over the episodes would raise.
    seeds = [derive_seed(TINY.seed, "train", i) for i in (2, 3)]
    _failing_draws(monkeypatch, {
        s: DegenerateEpisodeError("empty grid (seed %d)" % s) for s in seeds},
        slow_caller)
    with pytest.raises(DegenerateEpisodeError,
                       match=r"^empty grid \(seed %d\)$" % seeds[0]):
        train(TINY)
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_train_reports_a_helper_that_died_between_layout_and_pieces(
        monkeypatch):
    # The helper sends its loss and the layout of its pieces, then dies
    # before its first piece: the caller's read of that piece raises.
    caller = os.getpid()
    send_bytes = multiprocessing.connection.Connection.send_bytes
    recv = protoseg.helper._Helper.recv
    replies = []

    def die(self, *args):
        if os.getpid() != caller:
            os._exit(3)
        send_bytes(self, *args)

    def logged_recv(self):
        replies.append(recv(self))
        return replies[-1]

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(multiprocessing.connection.Connection, "send_bytes",
                        die)
    monkeypatch.setattr(protoseg.helper._Helper, "recv", logged_recv)
    with pytest.raises(ProtosegError, match="^training helper exited with "
                                            "code 3$"):
        train(TINY)
    ((loss, layout),) = replies
    assert np.isfinite(loss) and layout
    assert not multiprocessing.active_children()
    assert len(os.listdir("/proc/self/fd")) == before


def test_train_and_evaluate_leave_no_worker():
    result = train(TINY)
    assert not multiprocessing.active_children()
    evaluate(result.network, k=1, episodes=30)
    assert not multiprocessing.active_children()


def _reaped_exit_codes(monkeypatch):
    """The list that the exit code of each helper reaped from now on is
    appended to; `_Helper.__exit__` closes the process object after it."""
    codes, close = [], multiprocessing.process.BaseProcess.close

    def recording_close(self):
        codes.append(self.exitcode)
        close(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "close",
                        recording_close)
    return codes


def test_helpers_return_with_code_0_after_a_normal_call(monkeypatch):
    # Not terminated (-SIGTERM): the training helper reads EOF once the
    # caller closes its pipe ends; the evaluation helper has sent its scores.
    codes = _reaped_exit_codes(monkeypatch)
    result = train(TINY)
    assert codes == [0]
    evaluate(result.network, k=1, episodes=6)
    assert codes == [0, 0]
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_a_helper_that_ignores_eof_is_terminated_after_the_wait(monkeypatch):
    codes = _reaped_exit_codes(monkeypatch)
    monkeypatch.setattr(protoseg.helper, "EXIT_WAIT_S", 0.5)

    def body(inbox, outbox, caller_alive):
        outbox.send("ready")
        try:
            inbox.recv()
        except EOFError:
            time.sleep(60)  # instead of returning

    before = len(os.listdir("/proc/self/fd"))
    with protoseg.helper._Helper("stubborn", body) as stubborn:
        assert stubborn.recv() == "ready"
        left = time.monotonic()
    assert 0.5 <= time.monotonic() - left < 30
    assert codes == [-signal.SIGTERM]
    assert not multiprocessing.active_children()
    assert len(os.listdir("/proc/self/fd")) == before


def test_render_error_in_worker_keeps_type_and_message():
    with pytest.raises(ConfigError) as direct:
        sample_episode(default_split(TINY), "test", 0, 0, TINY.image_size)
    with pytest.raises(ConfigError) as streamed:
        evaluate(FewShotSegmenter(TINY), k=0, episodes=3)
    assert str(streamed.value) == str(direct.value) == "k must be >= 1, got 0"
    assert not multiprocessing.active_children()


def test_render_error_surfaces_at_its_episode(monkeypatch):
    # Episodes j and j+1 both fail, each with its own message. Whichever
    # process reaches either first, the call raises episode j's error, the
    # one a single loop over the episodes would raise.
    seeds = [derive_seed(3, "eval", i) for i in range(8)]
    net = FewShotSegmenter(TINY)
    _score_as(net, lambda ep: ep.masks[-1])
    caller = os.getpid()
    # One process is slowed, so the other claims most episodes meanwhile
    # and some j falls to the slow one while the fast one fails at j+1.
    for j, slow_caller in itertools.product(range(len(seeds) - 1),
                                            (True, False)):
        def failing(split, role, k, seed, image_size, j=j, slow=slow_caller):
            if (os.getpid() == caller) == slow:
                time.sleep(0.05)
            if seed in (seeds[j], seeds[j + 1]):
                raise DegenerateEpisodeError("empty grid (seed %d)" % seed)
            return sample_episode(split, role, k, seed, image_size)

        # The helper forks after the patch and draws through it.
        monkeypatch.setattr(harness, "sample_episode", failing)
        with pytest.raises(DegenerateEpisodeError,
                           match=r"^empty grid \(seed %d\)$" % seeds[j]):
            evaluate(net, k=1, episodes=len(seeds), seed=3)
        assert not multiprocessing.active_children()


def test_seed_outside_32_bits_is_refused():
    # Masked to 32 bits, this seed would repeat the run of 2**32-1.
    with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*32\)"):
        evaluate(FewShotSegmenter(TINY), k=1, episodes=3, seed=-1)
    assert not multiprocessing.active_children()


def test_import_does_not_load_multiprocessing():
    # train and evaluate import multiprocessing when they fork their
    # helper, and train alone imports mmap for the weights it shares with
    # it; a fresh interpreter's import of the package stays without them.
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import protoseg.harness, protoseg.cli; "
             "print('multiprocessing' in sys.modules, 'mmap' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False False"


_BLAS_PROBE = """
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "numpy-first":
    import numpy
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import protoseg
print(json.dumps([str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]))
"""


# The warning asks numpy's bundled OpenBLAS for its thread count, so it
# follows the library's own reading of the variables: GOTO_NUM_THREADS sits
# between OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, "01" reads as 1, a 0
# falls through to the next variable, and MKL_NUM_THREADS does not reach it.
@pytest.mark.parametrize("order, blas_env, warns", [
    ("numpy-first", {}, True),
    ("protoseg-first", {}, False),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "1"}, False),
    ("numpy-first", {"MKL_NUM_THREADS": "1"}, True),
    ("numpy-first", {"OMP_NUM_THREADS": "1"}, False),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "2"}, True),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
     False),
    ("numpy-first", {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "01"}, False),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"},
     False),
], ids=["numpy-first", "protoseg-first", "blas-variable-set", "mkl-only",
        "omp-one", "openblas-two", "openblas-beats-omp", "goto-two",
        "openblas-leading-zero", "openblas-zero-omp-one"])
def test_blas_thread_cap_warns_only_when_it_cannot_apply(order, blas_env, warns):
    # OpenBLAS runs at most one thread per CPU it may use, so a case that
    # expects 2 threads cannot run on one CPU.
    if warns and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 CPUs for OpenBLAS to run 2 threads")
    env = {k: v for k, v in os.environ.items()
           if k not in protoseg._BLAS_VARS + ("GOTO_NUM_THREADS",)}
    env.update(blas_env)
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, src, order],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60)
    messages = json.loads(out.stdout)
    assert len(messages) == (1 if warns else 0)


def test_import_sets_only_unset_blas_variables_to_one():
    env = {k: v for k, v in os.environ.items()
           if k not in protoseg._BLAS_VARS}
    env["OPENBLAS_NUM_THREADS"] = "3"
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    probe = ("import json, os, sys; sys.path.insert(0, sys.argv[1]); "
             "import protoseg; "
             "print(json.dumps({v: os.environ.get(v) "
             "for v in protoseg._BLAS_VARS}))")
    out = subprocess.run([sys.executable, "-c", probe, src], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=60)
    expected = dict.fromkeys(protoseg._BLAS_VARS, "1")
    expected["OPENBLAS_NUM_THREADS"] = "3"
    assert json.loads(out.stdout) == expected


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    result = train(TINY, out_dir=tmp_path)
    net, header = load_network(result.checkpoints[-1])
    assert header["format"] == harness.CHECKPOINT_FORMAT
    assert header["epoch"] == TINY.epochs - 1
    assert header["config"] == TINY.to_dict()
    assert header["rng"]["train_episodes_consumed"] == len(result.losses)
    for pa, pb in zip(result.network.parameters(), net.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)


def test_checkpoint_files_byte_identical_across_runs(tmp_path):
    a = train(TINY, out_dir=tmp_path / "a")
    b = train(TINY, out_dir=tmp_path / "b")
    for pa, pb in zip(a.checkpoints, b.checkpoints):
        assert pa.read_bytes() == pb.read_bytes()


def test_load_network_rejects_foreign_file(tmp_path):
    from protoseg.storage import write_checkpoint

    path = tmp_path / "alien.ckpt"
    write_checkpoint(path, {"format": "other"},
                     {"x": np.zeros(1, dtype=np.float32)})
    with pytest.raises(FormatError):
        load_network(path)


def _edit_header(path, edit):
    """Rewrite a checkpoint's JSON header line through edit(header)."""
    line, _, records = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":"))
                     .encode() + b"\n" + records)


def _as_version_1(header, arrays):
    header["config"]["pool_divide_by_l"] = False


# The parameters that version 2 wrote with trailing 1s: pointwise weights
# as (c_out, c_in, 1), the classifier as (1, 2c, 1, 1) and the excitation
# biases as (c, 1). A version check that let such a file through would fail
# on its shapes instead.
V2_TRAILING_ONES = {
    "reasoning.project_node.weight": 1,
    "reasoning.project_channel.weight": 1,
    "reasoning.fuse_relations.weight": 1,
    "excitation.squeeze.bias": 1,
    "excitation.expand.bias": 1,
    "excitation.fuse_edges.weight": 1,
    "fusion.cls.weight": 2,
}


def _as_version_2(header, arrays):
    for name, ones in V2_TRAILING_ONES.items():
        arrays[name] = arrays[name].reshape(arrays[name].shape + (1,) * ones)


@pytest.mark.parametrize("version", [1, 2])
def test_load_network_rejects_other_version(tmp_path, version):
    path = save_checkpoint(tmp_path / "old.ckpt", FewShotSegmenter(TINY), 0, 0)
    header, arrays = read_checkpoint(path)
    header["version"] = version
    {1: _as_version_1, 2: _as_version_2}[version](header, arrays)
    write_checkpoint(path, header, arrays)
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value).startswith("version:")


@pytest.mark.parametrize("key", ["config", "epoch"])
def test_load_network_requires_header_field(tmp_path, key):
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(TINY), 0, 0)
    _edit_header(path, lambda header: header.pop(key))
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value).startswith(key + ":")


@pytest.mark.parametrize("epoch", [True, -3])
def test_load_network_rejects_bad_epoch(tmp_path, epoch):
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(TINY), 0, 0)
    _edit_header(path, lambda header: header.update(epoch=epoch))
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value).startswith("epoch:")


@pytest.mark.parametrize("change, detail", [
    (dict(channels=12), "'encoder.block3.weight' shape (8, 4, 3, 3) does not "
                        "match (12, 4, 3, 3)"),
    (dict(edge_fusion=False), "parameter sets differ"),
])
def test_load_network_rejects_tensors_off_the_header_config(tmp_path, change,
                                                            detail):
    # A valid config whose network has other parameters than the records.
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(TINY), 0, 0)
    _edit_header(path, lambda header: header["config"].update(change))
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value).startswith("parameters: ")
    assert detail in str(err.value)


@pytest.mark.parametrize("key", ["fold", "edge_fusion"])
def test_load_network_requires_every_config_key(tmp_path, key):
    # Without "fold" a fold-1 model would load as fold 0, and evaluate
    # would score it on the fold that holds its training classes.
    cfg = replace(TINY, fold=1, edge_fusion=False)
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(cfg), 0, 0)
    _edit_header(path, lambda header: header["config"].pop(key))
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value) == "config: missing keys ['%s']" % key


def test_load_network_rejects_mistyped_config_value(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(TINY), 0, 0)
    _edit_header(path, lambda header: header["config"].update(channels="8"))
    with pytest.raises(ConfigError) as err:
        load_network(path)
    assert "'channels'" in str(err.value)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_ground_truth_hook_scores_one(tmp_path):
    log = tmp_path / "scored"

    def truth(ep):
        # Appended to by both processes, one short line per episode.
        with open(log, "a") as f:
            f.write("%d\n" % ep.seed)
        return ep.masks[-1]

    net = FewShotSegmenter(TINY)
    _score_as(net, truth)
    report = evaluate(net, k=1, episodes=30, seed=5)
    assert report.miou == pytest.approx(1.0)
    assert report.fb_iou == pytest.approx(1.0)
    assert report.episodes == 30
    assert set(report.per_class_iou) == set(default_split(TINY).test_class_ids)
    assert sorted(map(int, log.read_text().split())) == sorted(
        derive_seed(5, "eval", i) for i in range(30))


def test_evaluate_all_ones_hook_matches_fg_rate():
    net = FewShotSegmenter(TINY)
    _score_as(net, lambda ep: np.ones((16, 16), dtype=np.float32))
    report = evaluate(net, k=1, episodes=30, seed=5)
    assert 0.0 < report.miou < 0.7  # fg fractions live in [0.02, 0.6]


def test_evaluate_raises_on_diverged_network():
    net = FewShotSegmenter(TINY)
    net.head.cls_b.data[:] = np.nan
    with pytest.raises(ValidationError,
                       match=r"episode 0 \(episode seed %d\)"
                       % derive_seed(2, "eval", 0)):
        evaluate(net, k=1, episodes=6, seed=2)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("name, value", [
    ("k", 2.0), ("k", True), ("episodes", True), ("episodes", 30.0),
])
def test_evaluate_rejects_non_integer_arguments(name, value):
    # k=True equals K=1; it may not pass as one.
    net = FewShotSegmenter(replace(TINY, fold=1))
    args = dict(k=1, episodes=30, seed=0)
    args[name] = value
    with pytest.raises(ConfigError, match="^%s: " % name):
        evaluate(net, **args)
    assert not multiprocessing.active_children()


def test_evaluate_deterministic():
    net = FewShotSegmenter(TINY)
    a = evaluate(net, k=1, episodes=20, seed=3)
    b = evaluate(net, k=1, episodes=20, seed=3)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("k", (1, 5))
def test_evaluate_matches_a_single_process_loop(k, tmp_path):
    # However the two processes split the episodes, the report sums them
    # in episode order: every float equals the single-process loop's. (At
    # 16 px the scores are too uniform for the order to show.)
    net = train(replace(TINY, image_size=32)).network
    want = _reference_report(net, k, 24, 7).to_dict()
    log, forward, caller = tmp_path / "pids", net.forward, os.getpid()

    def paced(ep):
        with open(log, "a") as f:
            f.write("%d\n" % os.getpid())
        if os.getpid() == caller:
            time.sleep(0.005)  # so the helper surely takes a share
        return forward(ep)

    net.forward = paced
    assert evaluate(net, k=k, episodes=24, seed=7).to_dict() == want
    assert evaluate(net, k=k, episodes=24, seed=7).to_dict() == want
    assert len(set(log.read_text().split())) == 3  # caller, one helper each


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_evaluate_raises_a_failed_queue_before_forking(monkeypatch):
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    def fork():
        raise AssertionError("evaluate forked without its episode queue")

    net = FewShotSegmenter(TINY)
    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$"):
        evaluate(net, k=1, episodes=3)
    assert not multiprocessing.active_children()
    assert len(os.listdir("/proc/self/fd")) == before


def _index_queue(count):
    """A queue as _share_episodes writes it: 0 ... count-1 as 8-byte
    little-endian words in an unnamed file, read from its start."""
    queue = tempfile.TemporaryFile()
    queue.write(np.arange(count, dtype="<u8").tobytes())
    queue.seek(0)
    return queue


def _drain_with_a_peer(queue, score):
    """_claim_and_score on one queue in the caller and a forked peer at
    once: (the caller's result, the peer's)."""
    def body(inbox, outbox, caller_alive):
        outbox.send(protoseg.helper._claim_and_score(queue.fileno(), score,
                                                     caller_alive))

    with protoseg.helper._Helper("peer", body) as peer:
        mine = protoseg.helper._claim_and_score(queue.fileno(), score,
                                                peer.alive)
        return mine, peer.recv()


def _claimed(done):
    return [i for i, _ in done]


def test_a_forked_pair_claims_each_queued_index_once_in_order():
    count = 20000

    def score(i):
        if i == 0:  # hold index 0 until the other process has claimed two
            deadline = time.monotonic() + 10
            while os.lseek(queue.fileno(), 0, os.SEEK_CUR) < 3 * 8:
                assert time.monotonic() < deadline, "the peer never claimed"
        return os.getpid()

    with _index_queue(count) as queue:
        (mine, my_error), (theirs, their_error) = _drain_with_a_peer(queue,
                                                                     score)
    assert my_error is None and their_error is None
    assert mine and theirs
    assert {pid for _, pid in mine} == {os.getpid()}
    assert os.getpid() not in {pid for _, pid in theirs}
    for done in (mine, theirs):
        claimed = _claimed(done)
        assert all(a < b for a, b in zip(claimed, claimed[1:]))
    assert sorted(_claimed(mine + theirs)) == list(range(count))


def test_a_failing_claim_stops_its_slowed_peer_after_its_episode_in_flight():
    fail_at = 40

    def score(i):
        if i == fail_at:
            raise ValidationError("episode %d failed" % i)
        time.sleep(0.01)

    with _index_queue(1000) as queue:
        (mine, my_error), (theirs, their_error) = _drain_with_a_peer(queue,
                                                                     score)
        assert os.read(queue.fileno(), 8) == b""
    ((index, exc),) = [e for e in (my_error, their_error) if e is not None]
    assert index == fail_at and str(exc) == "episode 40 failed"
    failed, peer = (mine, theirs) if my_error else (theirs, mine)
    assert max(_claimed(failed), default=-1) < fail_at
    assert len([i for i in _claimed(peer) if i > fail_at]) <= 1
    below = sorted(i for i in _claimed(mine + theirs) if i < fail_at)
    assert below == list(range(fail_at))


# ---------------------------------------------------------------------------
# helper lifecycle: `helper._Helper` owns these rules for both callers, so
# each rule has one body, run once for train's helper and once for
# evaluate's.


def _helpers_call(call):
    """A toy train or evaluate call and its helper's name; the call
    returns what a rerun must repeat."""
    if call == "train":
        return "training", lambda: train(TINY).losses
    net = FewShotSegmenter(TINY)
    return "evaluation", lambda: evaluate(net, k=1, episodes=40,
                                          seed=4).to_dict()


@pytest.mark.parametrize("k", (0, -1))
def test_evaluate_checks_its_request_before_forking(monkeypatch, k):
    def fork():
        raise AssertionError("forked before checking the request")

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(ConfigError, match="^k must be >= 1, got %d$" % k):
        evaluate(FewShotSegmenter(TINY), k=k, episodes=3)


def _reports_a_helper_that_died(monkeypatch, call):
    what, run = _helpers_call(call)
    caller = os.getpid()

    def sample(*args):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.01)  # leaves the helper an episode to start
        return sample_episode(*args)

    monkeypatch.setattr(harness, "sample_episode", sample)
    with pytest.raises(ProtosegError,
                       match="^%s helper exited with code 3$" % what):
        run()
    assert not multiprocessing.active_children()


def test_train_reports_a_helper_that_died(monkeypatch):
    _reports_a_helper_that_died(monkeypatch, "train")


def test_evaluate_reports_a_helper_that_died(monkeypatch):
    _reports_a_helper_that_died(monkeypatch, "evaluate")


def _ignores(pid, signum):
    """Whether process pid ignores signal signum, from /proc."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("SigIgn:"):
                return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    return False


def _helper_ignores_interrupt(monkeypatch, call):
    # Ctrl-C signals the whole process group; the caller stops the helper.
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads the helper's signal dispositions in /proc")
    _, run = _helpers_call(call)
    want = run()
    caller = os.getpid()
    signalled = []

    def sample(*args):
        if os.getpid() != caller:
            time.sleep(0.005)  # keeps the helper busy past the signal
        elif not signalled:
            (helper,) = multiprocessing.active_children()
            deadline = time.monotonic() + 10
            while not _ignores(helper.pid, signal.SIGINT):
                if time.monotonic() > deadline:
                    pytest.fail("helper did not come to ignore SIGINT")
                time.sleep(0.001)
            os.kill(helper.pid, signal.SIGINT)
            signalled.append(helper.pid)
        return sample_episode(*args)

    monkeypatch.setattr(harness, "sample_episode", sample)
    # A helper stopped by the signal would end the call in a ProtosegError.
    assert run() == want
    assert signalled


def test_train_helper_ignores_interrupt(monkeypatch):
    _helper_ignores_interrupt(monkeypatch, "train")


def test_evaluate_helper_ignores_interrupt(monkeypatch):
    _helper_ignores_interrupt(monkeypatch, "evaluate")


def _leaves_no_helper_or_descriptor(monkeypatch, tmp_path, call):
    # Every other call fails on a network whose head bias is NaN.
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counts descriptors in /proc/self/fd")
    net, diverged = FewShotSegmenter(TINY), FewShotSegmenter(TINY)
    diverged.head.cls_b.data[:] = np.nan
    error = TrainingError if call == "train" else ValidationError

    def run(i):
        if call == "evaluate":
            evaluate(diverged if i % 2 else net, k=1, episodes=6, seed=i)
            return
        with monkeypatch.context() as m:
            if i % 2:
                m.setattr(harness, "FewShotSegmenter", lambda config: diverged)
            train(TINY, out_dir=tmp_path)

    before = len(os.listdir("/proc/self/fd"))
    for i in range(5):
        if i % 2:
            with pytest.raises(error):
                run(i)
        else:
            run(i)
        assert not multiprocessing.active_children()
    assert len(os.listdir("/proc/self/fd")) == before


def test_train_leaves_no_helper_or_descriptor(monkeypatch, tmp_path):
    _leaves_no_helper_or_descriptor(monkeypatch, tmp_path, "train")


def test_evaluate_leaves_no_helper_or_descriptor(monkeypatch, tmp_path):
    _leaves_no_helper_or_descriptor(monkeypatch, tmp_path, "evaluate")


_KILLED_CALLER = """
import multiprocessing, os, sys, time
sys.path.insert(0, sys.argv[1])
from protoseg import harness
from protoseg.config import Config
from protoseg.network import FewShotSegmenter
caller, sample = os.getpid(), harness.sample_episode
config = Config(image_size=16, channels=8, proto_dim=4, encoder_width=4,
                reduction=4)

def hold(*args):
    # The caller names its helper and waits to be killed. The helper
    # pauses sys.argv[3] seconds in each of its episodes.
    if os.getpid() == caller:
        (helper,) = multiprocessing.active_children()
        print(helper.pid, flush=True)
        time.sleep(60)
    time.sleep(float(sys.argv[3]))
    return sample(*args)

harness.sample_episode = hold
if sys.argv[2] == "train":
    harness.train(config)
else:
    harness.evaluate(FewShotSegmenter(config), k=1, episodes=20000, seed=0)
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


def _helper_exits_when_its_caller_is_killed(call, pause):
    # A SIGKILLed caller runs no cleanup; the helper sees it re-parented.
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads the helper's state in /proc")
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    child = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER, src,
                              call, str(pause)],
                             stdout=subprocess.PIPE, text=True)
    try:
        helper = int(child.stdout.readline())
        time.sleep(0.5)
        child.kill()
        child.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not _exited(helper) and time.monotonic() < deadline:
            time.sleep(0.05)
        if not _exited(helper):
            os.kill(helper, signal.SIGKILL)
            pytest.fail("helper %d outlived its killed caller by 10 s" % helper)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


@pytest.mark.parametrize("helper_is", ("waiting", "working"))
def test_train_helper_exits_when_its_caller_is_killed(helper_is):
    # A waiting helper reads EOF; a working one dies of SIGPIPE when it
    # sends its episode's gradient.
    _helper_exits_when_its_caller_is_killed(
        "train", 1 if helper_is == "working" else 0)


def test_evaluate_helper_exits_when_its_caller_is_killed():
    # The helper has minutes of episodes left to claim.
    _helper_exits_when_its_caller_is_killed("evaluate", 0.01)


# ---------------------------------------------------------------------------
# ablation


def test_ablate_runs_six_rows():
    rows = ablate(TINY, eval_episodes=25)
    assert [r["row"] for r in rows] == [label for label, _ in
                                        harness.ABLATION_ROWS]
    for row in rows:
        assert np.isfinite(row["miou"]) and np.isfinite(row["final_epoch_loss"])
    # toggles change capacity: baseline must be the smallest model
    by = {r["row"]: r["parameter_count"] for r in rows}
    assert by["baseline"] < by["reasoning"] < by["reasoning+excitation+edges"]
    text = render_ablation(rows)
    assert text.count("row = ") == 6
    assert "json = " in text


def test_ablate_progress_receives_each_rows_training():
    # TINY enables every branch, so the full-model row trains TINY itself.
    seen = {}
    ablate(TINY, eval_episodes=25,
           progress=lambda label, row, result: seen.setdefault(label, result))
    assert list(seen) == [label for label, _ in harness.ABLATION_ROWS]
    row = seen["reasoning+excitation+edges"]
    alone = train(TINY)
    assert row.losses == alone.losses
    for a, b in zip(row.network.parameters(), alone.network.parameters(),
                    strict=True):
        assert a.name == b.name and a.data.tobytes() == b.data.tobytes()


def test_ablate_rejects_eval_episodes_before_training(monkeypatch, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before checking eval_episodes")

    monkeypatch.setattr(harness, "train", no_training)
    with pytest.raises(ConfigError, match="eval_episodes"):
        ablate(TINY, eval_episodes=0, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eval_episodes", [True, 25.0])
def test_ablate_rejects_non_integer_eval_episodes(monkeypatch, eval_episodes):
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before checking eval_episodes")

    monkeypatch.setattr(harness, "train", no_training)
    with pytest.raises(ConfigError, match="^eval_episodes: "):
        ablate(TINY, eval_episodes=eval_episodes)


# ---------------------------------------------------------------------------
# gradient audit and report


def test_gradcheck_model_under_tolerance(monkeypatch):
    monkeypatch.setattr(harness, "GRADCHECK_COORDS", 4)
    results = gradcheck_model(Config())
    assert set(results) >= {"encoder", "reasoning", "excitation", "fusion",
                            "pipeline"}
    worst = max(results.values())
    assert worst < 1e-4


def test_gradcheck_model_catches_a_wrong_backward(monkeypatch):
    # relu feeds every module, so a backward off by half must show in each
    # module's error, and the pipeline's error is the worst of them.
    def relu_with_scaled_backward(a):
        out = Tensor(np.maximum(a.data, 0))
        return ad._record(out, (a,), (lambda g: 1.5 * g * (a.data > 0),))

    monkeypatch.setattr(ad, "relu", relu_with_scaled_backward)
    monkeypatch.setattr(harness, "GRADCHECK_COORDS", 4)
    results = gradcheck_model(Config())
    modules = {k: v for k, v in results.items() if k != "pipeline"}
    assert set(modules) == {"encoder", "reasoning", "excitation", "fusion"}
    assert min(modules.values()) >= 1e-4
    assert results["pipeline"] == max(modules.values())


def test_model_report_contents(tmp_path):
    result = train(TINY, out_dir=tmp_path)
    text = model_report(result.checkpoints[-1])
    assert "format = protoseg-checkpoint" in text
    assert "parameter_count = %d" % result.network.parameter_count() in text
    assert "encoder_parameters" in text and "fusion_parameters" in text
    assert "config_image_size = 16" in text
    assert text.splitlines()[-1].startswith("json = ")


# ---------------------------------------------------------------------------
# seeding helpers


def test_default_split_uses_config_seed_and_fold():
    a = default_split(Config(seed=0, fold=0))
    b = default_split(Config(seed=0, fold=1))
    c = default_split(Config(seed=1, fold=0))
    assert a.folds == b.folds
    assert a.test_class_ids != b.test_class_ids
    assert a.folds != c.folds
