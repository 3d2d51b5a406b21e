"""Optimizer, training loop, checkpoints, evaluation, ablation."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protoseg
import protoseg.harness as harness
from protoseg import episodes
from protoseg.autodiff import Parameter, Tensor
from protoseg.config import Config
from protoseg.episodes import FoldSplit, sample_episode
from protoseg.errors import (ConfigError, DegenerateEpisodeError, FormatError,
                             TrainingError, ValidationError)
from protoseg.harness import (SGD, ablate, default_split, evaluate,
                              gradcheck_model, load_network, model_report,
                              render_ablation, save_checkpoint, train)
from protoseg.network import FewShotSegmenter
from protoseg.seeding import derive_seed
from protoseg.storage import read_checkpoint, write_checkpoint

# 16px toy geometry keeps each training run around a tenth of a second
TINY = Config(image_size=16, channels=8, proto_dim=4, encoder_width=4,
              reduction=4, epochs=2, episodes_per_epoch=4)


def _score_as(net, probabilities):
    """Make net.forward predict probabilities(episode) and return the list
    of episode seeds it is called on."""
    scored = []

    def forward(ep):
        scored.append(ep.seed)
        return Tensor(probabilities(ep))

    net.forward = forward
    return scored


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
    # Training forks no worker, so none is left behind either.
    assert not multiprocessing.active_children()


def test_train_draws_its_episodes_in_process():
    # Mid-training, after each epoch's episodes, no render worker runs.
    epochs = []

    def progress(epoch, loss):
        assert multiprocessing.active_children() == []
        epochs.append(epoch)

    train(TINY, progress=progress)
    assert epochs == list(range(TINY.epochs))


def test_train_and_evaluate_leave_no_worker():
    result = train(TINY)
    assert not multiprocessing.active_children()
    evaluate(result.network, k=1, episodes=30)
    assert not multiprocessing.active_children()


def test_render_error_in_worker_keeps_type_and_message():
    with pytest.raises(ConfigError) as direct:
        sample_episode(default_split(TINY), "test", 0, 0, TINY.image_size)
    with pytest.raises(ConfigError) as streamed:
        evaluate(FewShotSegmenter(TINY), k=0, episodes=3)
    assert str(streamed.value) == str(direct.value) == "k must be >= 1, got 0"
    assert not multiprocessing.active_children()


def test_unknown_class_in_split_fails_training(monkeypatch):
    bad = FoldSplit(folds=((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 99)),
                    test_fold=0)
    monkeypatch.setattr(harness, "default_split", lambda config: bad)
    with pytest.raises(ConfigError, match="^fold references unknown class id 99$"):
        train(TINY)
    assert not multiprocessing.active_children()


def test_render_error_surfaces_at_its_episode(monkeypatch):
    seeds = [derive_seed(3, "eval", i) for i in range(5)]
    render = episodes._render

    def failing(images, masks, split, role, seed):
        if seed == seeds[3]:
            raise DegenerateEpisodeError("empty grid (seed %d)" % seed)
        return render(images, masks, split, role, seed)

    # The worker forks after the patch and renders through it.
    monkeypatch.setattr(episodes, "_render", failing)
    net = FewShotSegmenter(TINY)
    scored = _score_as(net, lambda ep: ep.masks[-1])
    with pytest.raises(DegenerateEpisodeError,
                       match=r"^empty grid \(seed %d\)$" % seeds[3]):
        evaluate(net, k=1, episodes=5, seed=3)
    assert scored == seeds[:3]
    assert not multiprocessing.active_children()


def test_seed_outside_32_bits_is_refused():
    # Masked to 32 bits, these seeds would repeat the runs of 0 and 2**32-1.
    with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*32\)"):
        train(TINY.with_overrides(seed=2 ** 32))
    with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*32\)"):
        evaluate(FewShotSegmenter(TINY), k=1, episodes=3, seed=-1)
    assert not multiprocessing.active_children()


def test_import_does_not_load_multiprocessing():
    # An episode stream imports multiprocessing and mmap when it opens; a
    # fresh interpreter's import of the package stays without them, and so
    # does a training, which draws its episodes inline.
    training = ("from protoseg.config import Config; "
                "protoseg.harness.train(Config(image_size=16, channels=8, "
                "proto_dim=4, encoder_width=4, reduction=4, epochs=1, "
                "episodes_per_epoch=2)); ")
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    for then in ("", training):
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import protoseg.harness, protoseg.cli; " + then +
                 "print('multiprocessing' in sys.modules, 'mmap' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False False", then


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


@pytest.mark.parametrize("order, blas_env, warns", [
    ("numpy-first", {}, True),
    ("protoseg-first", {}, False),
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "1"}, False),
], ids=["numpy-first", "protoseg-first", "blas-variable-set"])
def test_blas_thread_cap_warns_only_when_it_cannot_apply(order, blas_env, warns):
    env = {k: v for k, v in os.environ.items()
           if k not in protoseg._BLAS_VARS}
    env.update(blas_env)
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, src, order],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60)
    messages = json.loads(out.stdout)
    if warns:
        assert len(messages) == 1 and "PROTOSEG_THREADS" in messages[0]
    else:
        assert messages == []


@pytest.mark.parametrize("value", ("0", "-1", "abc", ""))
def test_threads_not_a_positive_integer_fails_import(value):
    env = {k: v for k, v in os.environ.items()
           if k not in protoseg._BLAS_VARS}
    env["PROTOSEG_THREADS"] = value
    src = str(Path(protoseg.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, src,
                          "protoseg-first"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.rstrip().endswith(
        "ConfigError: PROTOSEG_THREADS must be a positive integer, got %r"
        % value)


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
    write_checkpoint(path, {"format": "other", "parameters": ["x"]},
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
    cfg = TINY.with_overrides(fold=1, edge_fusion=False)
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(cfg), 0, 0)
    _edit_header(path, lambda header: header["config"].pop(key))
    for load in (load_network, lambda p: evaluate(p, episodes=1)):
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == "config: missing keys ['%s']" % key


def test_load_network_rejects_mistyped_config_value(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", FewShotSegmenter(TINY), 0, 0)
    _edit_header(path, lambda header: header["config"].update(channels="8"))
    with pytest.raises(ConfigError) as err:
        load_network(path)
    assert "'channels'" in str(err.value)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_ground_truth_hook_scores_one():
    net = FewShotSegmenter(TINY)
    scored = _score_as(net, lambda ep: ep.masks[-1])
    report = evaluate(net, fold=TINY.fold, k=1, episodes=30, seed=5)
    assert report.miou == pytest.approx(1.0)
    assert report.fb_iou == pytest.approx(1.0)
    assert report.episodes == 30
    assert set(report.per_class_iou) == set(default_split(TINY).test_class_ids)
    assert scored == [derive_seed(5, "eval", i) for i in range(30)]


def test_evaluate_all_ones_hook_matches_fg_rate():
    net = FewShotSegmenter(TINY)
    _score_as(net, lambda ep: np.ones((16, 16), dtype=np.float32))
    report = evaluate(net, fold=TINY.fold, k=1, episodes=30, seed=5)
    assert 0.0 < report.miou < 0.7  # fg fractions live in [0.02, 0.6]


def test_evaluate_rejects_other_fold(tmp_path):
    result = train(TINY, out_dir=tmp_path)
    with pytest.raises(ConfigError):
        evaluate(result.checkpoints[-1], fold=(TINY.fold + 1) % 3,
                 k=1, episodes=10, seed=0)


def test_evaluate_accepts_checkpoint_path(tmp_path):
    result = train(TINY, out_dir=tmp_path)
    report = evaluate(result.checkpoints[-1], fold=TINY.fold, k=1,
                      episodes=30, seed=7)
    assert np.isfinite(report.miou)
    assert np.isfinite(report.mean_loss)
    assert report.parameter_count == result.network.parameter_count()


def test_evaluate_raises_on_diverged_network():
    net = FewShotSegmenter(TINY)
    net.head.cls_b.data[:] = np.nan
    with pytest.raises(ValidationError,
                       match=r"episode 0 \(episode seed %d\)"
                       % derive_seed(2, "eval", 0)):
        evaluate(net, fold=TINY.fold, k=1, episodes=6, seed=2)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("name, value", [
    ("k", 2.0), ("k", True), ("episodes", True), ("episodes", 30.0),
    ("fold", True), ("fold", 1.0),
])
def test_evaluate_rejects_non_integer_arguments(name, value):
    # fold=True equals fold 1 and k=True equals K=1; neither may pass as one.
    net = FewShotSegmenter(TINY.with_overrides(fold=1))
    args = dict(fold=1, k=1, episodes=30, seed=0)
    args[name] = value
    with pytest.raises(ConfigError, match="^%s: " % name):
        evaluate(net, **args)
    assert not multiprocessing.active_children()


def test_evaluate_deterministic():
    net = FewShotSegmenter(TINY)
    a = evaluate(net, fold=TINY.fold, k=1, episodes=20, seed=3)
    b = evaluate(net, fold=TINY.fold, k=1, episodes=20, seed=3)
    assert a.to_dict() == b.to_dict()


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


def test_gradcheck_model_under_tolerance():
    results = gradcheck_model(Config(), max_coords_per_param=4)
    assert set(results) >= {"encoder", "reasoning", "excitation", "fusion",
                            "pipeline"}
    worst = max(results.values())
    assert worst < 1e-4


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
