"""Training, evaluation, ablation, gradient auditing, and model reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, grad_check
from .config import Config, check_int, config_from_dict
from .episodes import FoldSplit, make_folds, sample_episode
from .errors import DimensionError, FormatError, TrainingError, ValidationError
from .fusion import bce_loss, binarize
from .helper import _pair_episodes, _share_episodes
from .metrics import EvalReport, class_ious, fb_iou, iou, miou
from .network import FewShotSegmenter
from .seeding import derive_rng, derive_seed
from .storage import read_checkpoint, write_checkpoint

CHECKPOINT_FORMAT = "protoseg-checkpoint"
# Bumped whenever the header or the parameter layout changes; load_network
# accepts only this version.
CHECKPOINT_VERSION = 4
# Central-difference step of the gradient audit, in float64, the most
# coordinates it perturbs per parameter, and the worst relative error
# that passes.
GRADCHECK_EPS = 1e-6
GRADCHECK_COORDS = 8
GRADCHECK_TOLERANCE = 1e-4

ABLATION_ROWS: tuple[tuple[str, dict], ...] = (
    ("reasoning", dict(graph_reasoning=True, excitation=False, edge_fusion=False)),
    ("excitation", dict(graph_reasoning=False, excitation=True, edge_fusion=False)),
    ("excitation+edges", dict(graph_reasoning=False, excitation=True, edge_fusion=True)),
    ("reasoning+excitation", dict(graph_reasoning=True, excitation=True, edge_fusion=False)),
    ("reasoning+excitation+edges", dict(graph_reasoning=True, excitation=True, edge_fusion=True)),
    ("baseline", dict(graph_reasoning=False, excitation=False, edge_fusion=False)),
)


class SGD:
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, params: Sequence[Parameter], learning_rate: float,
                 momentum: float = 0.0):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            v += 0 if p.grad is None else p.grad
            p.data -= self.learning_rate * v


def default_split(config: Config) -> FoldSplit:
    return make_folds(config.seed, config.fold)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: FewShotSegmenter, epoch: int,
                    episodes_consumed: int) -> Path:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "epoch": epoch,
        "config": net.config.to_dict(),
        "rng": {"scheme": "seed-path", "root_seed": net.config.seed,
                "train_episodes_consumed": episodes_consumed},
    }
    arrays = {p.name: p.data for p in net.parameters()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(path, header, arrays)
    return path


def load_network(path) -> tuple[FewShotSegmenter, dict]:
    header, arrays = read_checkpoint(path)
    for key, want in (("format", CHECKPOINT_FORMAT),
                      ("version", CHECKPOINT_VERSION)):
        if header.get(key) != want:
            raise FormatError("%s: expected %r, found %r"
                              % (key, want, header.get(key)))
    if not isinstance(header.get("config"), dict):
        raise FormatError("config: header field missing or not an object")
    # A missing field would fall back to its default: a fold-1 model
    # without "fold" would load, and be scored, as a fold-0 one.
    missing = sorted({f.name for f in fields(Config)} - set(header["config"]))
    if missing:
        raise FormatError("config: missing keys %s" % missing)
    epoch = header.get("epoch")
    if type(epoch) is not int or epoch < 0:  # bool is an int subclass
        raise FormatError("epoch: header field missing or not a non-negative integer")
    net = FewShotSegmenter(config_from_dict(header["config"]))
    try:
        net.load_parameter_arrays(arrays)
    except DimensionError as e:  # tensors that do not fit the header's config
        raise FormatError("parameters: %s" % e) from e
    return net, header


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    network: FewShotSegmenter
    losses: list[float]            # one entry per training episode, in order
    checkpoints: list[Path]


def train(config: Config, out_dir=None,
          progress: Optional[Callable[[int, float], None]] = None) -> TrainResult:
    """Episodic training: two episodes per optimizer step via gradient
    accumulation, one checkpoint per epoch when out_dir is given.

    The caller runs a step's first episode while a helper process, forked
    once per call (`helper._pair_episodes`), runs the second; an odd
    epoch's last step runs in the caller alone. Losses, weights and
    checkpoints are the same, bit for bit, as one process running the
    episodes in turn. A non-finite weight after a step raises
    TrainingError. The helper exits when the call returns (it reads EOF),
    or is stopped at once when the call raises.
    """
    net = FewShotSegmenter(config)
    split = default_split(config)
    params = net.parameters()
    opt = SGD(params, config.learning_rate, config.momentum)

    def run_episode(index: int, batch: int) -> float:
        """Draw, forward and backward one episode; returns its loss."""
        ep_seed = derive_seed(config.seed, "train", index)
        episode = sample_episode(split, "train", config.k_shot, ep_seed,
                                 config.image_size)
        with Tape() as tape:
            loss = net.episode_loss(episode)
            scaled = ad.mul(loss, 1.0 / batch)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(
                "non-finite loss at training episode %d (episode seed %d, "
                "epoch %d)" % (index, ep_seed,
                               index // config.episodes_per_epoch))
        ad.backward(tape, scaled)
        return value

    losses: list[float] = []
    checkpoints: list[Path] = []
    episode_index = step = 0
    with _pair_episodes(params, run_episode) as pair:
        for epoch in range(config.epochs):
            epoch_losses = []
            for start in range(0, config.episodes_per_epoch, 2):
                batch = min(2, config.episodes_per_epoch - start)
                opt.zero_grad()
                if batch == 2:
                    epoch_losses.extend(pair(episode_index))
                else:
                    epoch_losses.append(run_episode(episode_index, 1))
                opt.step()
                bad = [p.name for p in params if not np.isfinite(p.data).all()]
                if bad:
                    seeds = [derive_seed(config.seed, "train", i) for i in
                             range(episode_index, episode_index + batch)]
                    raise TrainingError(
                        "non-finite weight %s after optimizer step %d (epoch "
                        "%d, episode seeds %s)" % (bad[0], step, epoch,
                                                   " and ".join(map(str, seeds))))
                episode_index += batch
                step += 1
            losses.extend(epoch_losses)
            if out_dir is not None:
                path = Path(out_dir) / ("checkpoint-epoch%03d.ckpt" % epoch)
                checkpoints.append(save_checkpoint(path, net, epoch,
                                                   episode_index))
            if progress is not None:
                progress(epoch, float(np.mean(epoch_losses)))
    return TrainResult(network=net, losses=losses, checkpoints=checkpoints)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(net: FewShotSegmenter, k: Optional[int] = None,
             episodes: int = 60, seed: Optional[int] = None) -> EvalReport:
    """Run frozen-weight inference over episodes of the fold the network's
    config held out.

    The caller and one forked helper process score the episodes between
    them, each claiming the next episode index from one shared queue
    (`helper._share_episodes`), and the helper returns once the queue
    reads empty. The report sums the scores in episode order, so it is the
    same, bit for bit, as one process scoring them in turn.
    """
    cfg = net.config
    if k is None:
        k = cfg.k_shot
    check_int("k", k, 1)
    check_int("episodes", episodes, 1)
    eval_seed = cfg.seed if seed is None else seed
    split = default_split(cfg)
    seeds = [derive_seed(eval_seed, "eval", i) for i in range(episodes)]

    def score(i: int) -> tuple[int, float, float, float]:
        ep = sample_episode(split, "test", k, seeds[i], cfg.image_size)
        probabilities = net.forward(ep)
        target = ep.masks[-1].astype(net.dtype, copy=False)
        loss = bce_loss(probabilities, target).item()
        if not np.isfinite(loss):
            raise ValidationError("non-finite loss at evaluation episode "
                                  "%d (episode seed %d)" % (i, seeds[i]))
        pred = binarize(probabilities)
        return (ep.class_id, iou(pred, ep.masks[-1]),
                fb_iou(pred, ep.masks[-1]), loss)

    pairs: list[tuple[int, float]] = []
    fbs: list[float] = []
    loss_values: list[float] = []
    for class_id, score_iou, score_fb, loss in _share_episodes(score, episodes):
        pairs.append((class_id, score_iou))
        fbs.append(score_fb)
        loss_values.append(loss)
    return EvalReport(
        fold=cfg.fold, k_shot=k, episodes=episodes,
        miou=miou(pairs, split.test_class_ids),
        fb_iou=float(np.mean(fbs)),
        parameter_count=net.parameter_count(),
        per_class_iou=class_ious(pairs, split.test_class_ids),
        mean_loss=float(np.mean(loss_values)),
    )


# ---------------------------------------------------------------------------
# ablation


def ablate(config: Config, eval_episodes: int = 60, out_dir=None,
           progress: Optional[Callable[[str, dict, TrainResult], None]] = None
           ) -> list[dict]:
    """Train and evaluate the six branch-toggle combinations under shared
    seeds, fold split, and episode streams. progress(label, row, result)
    also receives each row's TrainResult."""
    check_int("eval_episodes", eval_episodes, 1)
    rows = []
    for label, toggles in ABLATION_ROWS:
        row_config = replace(config, **toggles)
        row_dir = Path(out_dir) / label.replace("+", "_") if out_dir else None
        result = train(row_config, out_dir=row_dir)
        report = evaluate(result.network, episodes=eval_episodes,
                          seed=derive_seed(config.seed, "ablate-eval"))
        row = {
            "row": label,
            "graph_reasoning": toggles["graph_reasoning"],
            "excitation": toggles["excitation"],
            "edge_fusion": toggles["edge_fusion"],
            "miou": report.miou,
            "fb_iou": report.fb_iou,
            "parameter_count": report.parameter_count,
            "final_epoch_loss": float(np.mean(
                result.losses[-row_config.episodes_per_epoch:])),
        }
        rows.append(row)
        if progress is not None:
            progress(label, row, result)
    return rows


def render_ablation(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        lines.append("row = %s" % row["row"])
        for key in ("miou", "fb_iou", "final_epoch_loss"):
            lines.append("%s = %.6f" % (key, row[key]))
        lines.append("parameter_count = %d" % row["parameter_count"])
        lines.append("")
    lines.append("json = %s" % json.dumps(rows, sort_keys=True))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# gradient audit


def gradcheck_model(config: Config) -> dict[str, float]:
    """Worst relative gradient error of the episode loss, the function
    `train` differentiates, per module's parameters and over all of them
    ("pipeline"), measured in float64 on a small 1-shot episode."""
    toy = replace(config, image_size=16, channels=8, proto_dim=4,
                  encoder_width=4, encoder_depth=4, reduction=4, k_shot=1,
                  graph_reasoning=True, excitation=True, edge_fusion=True)
    net = FewShotSegmenter(toy, dtype=np.float64)
    # Zero-initialized layers would make most gradients trivially zero;
    # audit at a generic point in weight space instead.
    for i, p in enumerate(net.parameters()):
        rng = derive_rng(toy.seed, "gradcheck", "weights", i)
        p.data = rng.normal(0.0, 0.1, size=p.shape)
    split = default_split(toy)
    ep_seed = derive_seed(toy.seed, "gradcheck-episode")
    episode = sample_episode(split, "train", 1, ep_seed, toy.image_size)
    results = {module: grad_check(lambda: net.episode_loss(episode), params,
                                  eps=GRADCHECK_EPS,
                                  max_coords_per_param=GRADCHECK_COORDS)
               for module, params in net.module_parameters().items()}
    results["pipeline"] = max(results.values())
    return results


# ---------------------------------------------------------------------------
# model report


def model_report(path) -> str:
    """Text report of a stored checkpoint: counts per module plus the config."""
    net, header = load_network(path)
    counts = net.module_parameter_counts()
    lines = [
        "format = %s" % header["format"],
        "epoch = %d" % header["epoch"],
        "parameter_count = %d" % net.parameter_count(),
    ]
    for module in sorted(counts):
        lines.append("%s_parameters = %d" % (module, counts[module]))
    for key, value in sorted(header["config"].items()):
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append("config_%s = %s" % (key, value))
    lines.append("json = %s" % json.dumps(
        {"header": header, "module_parameters": counts}, sort_keys=True))
    return "\n".join(lines)
