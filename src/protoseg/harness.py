"""Training, evaluation, ablation, gradient auditing, and model reports."""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, grad_check
from .config import Config, check_int, config_from_dict
from .encoder import masked_avg_pool
from .episodes import FoldSplit, default_classes, make_folds, sample_episode
from .errors import (DimensionError, FormatError, ProtosegError, TrainingError,
                     ValidationError)
from .fusion import bce_loss, binarize
from .metrics import EvalReport, fb_iou, iou, miou
from .network import FewShotSegmenter
from .seeding import derive_rng, derive_seed
from .storage import read_checkpoint, write_checkpoint

CHECKPOINT_FORMAT = "protoseg-checkpoint"
# Bumped whenever the header or the parameter layout changes; load_network
# accepts only this version.
CHECKPOINT_VERSION = 3
# Central-difference step of the gradient audit, in float64.
GRADCHECK_EPS = 1e-6

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
    ids = [c.class_id for c in default_classes()]
    return make_folds(ids, config.seed, config.fold)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: FewShotSegmenter, epoch: int,
                    episodes_consumed: int) -> Path:
    params = net.parameters()
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "epoch": epoch,
        "config": net.config.to_dict(),
        "rng": {"scheme": "seed-path", "root_seed": net.config.seed,
                "train_episodes_consumed": episodes_consumed},
        "parameters": [p.name for p in params],
    }
    arrays = {p.name: p.data for p in params}
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

    A step's two episodes run on two CPUs: the caller draws, forwards and
    backwards the first while a helper process, forked once per call, does
    the same for the second against the same weights (`_shared`). The
    helper sends its gradient pieces over its pipe (`_PieceLog`); the
    caller adds them onto its own gradient and steps SGD. The batch-1 tail
    step of an odd episodes_per_epoch runs in the caller alone. Losses,
    weights and checkpoints are the same, bit for bit, as one process
    running the episodes in turn.
    """
    net = FewShotSegmenter(config)
    split = default_split(config)
    params = net.parameters()
    opt = SGD(params, config.learning_rate, config.momentum)

    def run_episode(index: int, epoch: int, batch: int) -> float:
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
                "epoch %d)" % (index, ep_seed, epoch))
        ad.backward(tape, scaled)
        return value

    def serve(inbox, outbox, caller_alive) -> None:
        """Helper body: run each episode the caller asks for, then send its
        loss and the layout of its gradient pieces, then each raw piece in
        backward order; or send its exception instead."""
        log: list[tuple[int, np.ndarray]] = []
        for i, p in enumerate(params):
            p.grad = _PieceLog(i, log)
        while True:
            try:
                index, epoch = inbox.recv()
            except EOFError:  # the caller is done, or gone
                return
            log.clear()
            try:
                loss = run_episode(index, epoch, 2)
            except Exception as exc:
                outbox.send(exc)
                return
            outbox.send((loss, [(i, piece.dtype.str) for i, piece in log]))
            for _, piece in log:
                outbox.send_bytes(np.ascontiguousarray(piece))

    losses: list[float] = []
    checkpoints: list[Path] = []
    episode_index = 0
    with _shared(params), _Helper("training", serve) as helper:
        for epoch in range(config.epochs):
            epoch_losses = []
            remaining = config.episodes_per_epoch
            while remaining:
                batch = min(2, remaining)
                remaining -= batch
                opt.zero_grad()
                if batch == 2:
                    helper.send((episode_index + 1, epoch))
                epoch_losses.append(run_episode(episode_index, epoch, batch))
                if batch == 2:
                    reply = helper.recv()
                    if isinstance(reply, Exception):
                        raise reply
                    loss, layout = reply
                    for i, dtype in layout:  # one piece in memory at a time
                        p = params[i]
                        piece = np.frombuffer(helper.recv_bytes(), dtype)
                        ad._accumulate(p, piece.reshape(p.shape))
                    epoch_losses.append(loss)
                opt.step()
                episode_index += batch
            losses.extend(epoch_losses)
            if out_dir is not None:
                path = Path(out_dir) / ("checkpoint-epoch%03d.ckpt" % epoch)
                checkpoints.append(save_checkpoint(path, net, epoch,
                                                   episode_index))
            if progress is not None:
                progress(epoch, float(np.mean(epoch_losses)))
    return TrainResult(network=net, losses=losses, checkpoints=checkpoints)


@contextmanager
def _shared(params: list[Parameter]):
    """Keep the parameters' data in one anonymous shared map for the block.
    SGD updates it in place, so a helper forked inside the block always
    computes with the caller's weights."""
    import mmap

    offsets, size = [], 0
    for p in params:
        offsets.append(size)
        size += -(-p.data.nbytes // 64) * 64  # 64-byte aligned views
    shared = np.frombuffer(mmap.mmap(-1, size), np.uint8)
    try:
        for p, offset in zip(params, offsets):
            view = shared[offset:offset + p.data.nbytes]
            view = view.view(p.dtype).reshape(p.shape)
            view[...] = p.data
            p.data = view
        yield
    finally:
        for p in params:  # the shared map goes with its last view
            p.data = p.data.copy()


class _PieceLog:
    """Stands in for a parameter's gradient in the training helper:
    `autodiff._accumulate` adds each gradient piece onto it with +=, and
    it logs the piece, untouched, with the parameter's index.

    A parameter used twice in one episode gets two gradient pieces. Float
    addition does not associate, so adding the sum of the helper's pieces
    could differ in the last bit from one process adding them in turn. So
    the helper hands the caller every raw piece, in backward order, and the
    caller accumulates them one at a time in that order.
    """

    def __init__(self, index: int, log: list):
        self.index = index
        self.log = log

    def __iadd__(self, piece: np.ndarray) -> "_PieceLog":
        self.log.append((self.index, piece))
        return self


# ---------------------------------------------------------------------------
# evaluation


def evaluate(net: FewShotSegmenter, k: Optional[int] = None,
             episodes: int = 60, seed: Optional[int] = None) -> EvalReport:
    """Run frozen-weight inference over episodes of the fold the network's
    config held out.

    The caller and one forked helper process score the episodes between
    them (`_share_episodes`). The report sums the scores in episode order,
    so it is the same, bit for bit, as one process scoring them in turn.
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

    per_class: dict[int, list[float]] = defaultdict(list)
    pairs: list[tuple[int, float]] = []
    fbs: list[float] = []
    loss_values: list[float] = []
    for class_id, score_iou, score_fb, loss in _share_episodes(score, episodes):
        pairs.append((class_id, score_iou))
        per_class[class_id].append(score_iou)
        fbs.append(score_fb)
        loss_values.append(loss)
    return EvalReport(
        fold=cfg.fold, k_shot=k, episodes=episodes,
        miou=miou(pairs, split.test_class_ids),
        fb_iou=float(np.mean(fbs)),
        parameter_count=net.parameter_count(),
        per_class_iou={c: float(np.mean(v)) for c, v in per_class.items()},
        mean_loss=float(np.mean(loss_values)),
    )


def _share_episodes(score: Callable[[int], tuple], count: int) -> list[tuple]:
    """[score(0), ..., score(count - 1)], computed by the caller and one
    forked helper process on both CPUs, or the exception of the lowest
    index that raised.

    Each process claims the next index from a counter in an anonymous
    shared map, under a lock, and scores it; splitting by episode rather
    than by stage keeps both busy whatever an episode's stages cost. A
    process stops at its first failing index and exhausts the counter, so
    every lower index has been scored when both stop. The helper sends its
    results once, at the end.
    """
    import mmap
    import multiprocessing

    lock = multiprocessing.get_context("fork").Lock()
    with mmap.mmap(-1, 8) as counter:
        def body(inbox, outbox, caller_alive) -> None:
            outbox.send(_claim_and_score(counter, lock, score, count,
                                         caller_alive))

        with _Helper("evaluation", body) as helper:
            mine, my_error = _claim_and_score(counter, lock, score, count,
                                              helper.alive)
            theirs, their_error = helper.recv()
    errors = [e for e in (my_error, their_error) if e is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [row for _, row in sorted(mine + theirs, key=lambda r: r[0])]


def _claim_and_score(counter, lock, score, count, alive
                     ) -> tuple[list, Optional[tuple[int, Exception]]]:
    """Score claimed indices until the counter runs out or `alive()` says
    the other process is gone. Returns the (index, result) pairs and the
    first failure as (index, exception)."""
    done = []
    while alive():
        if not _acquire(lock, alive):
            return done, None
        i = int.from_bytes(counter, "little")
        counter[:] = (i + 1).to_bytes(8, "little")
        lock.release()
        if i >= count:
            break
        try:
            done.append((i, score(i)))
        except Exception as exc:
            if _acquire(lock, alive):
                counter[:] = count.to_bytes(8, "little")
                lock.release()
            return done, (i, exc)
    return done, None


def _acquire(lock, alive) -> bool:
    """Take the lock, or return False once `alive()` says the other process
    is gone. It waits with a timeout, so a process killed while holding the
    lock cannot hold up the other for good."""
    while not lock.acquire(timeout=1.0):
        if not alive():
            return False
    return True


# ---------------------------------------------------------------------------
# helper processes


class _Helper:
    """One helper process, forked for a with-block, and a pipe each way.

    The helper runs body(inbox, outbox, caller_alive): it reads what the
    caller sends and writes what the caller receives. It ignores SIGINT
    (Ctrl-C reaches the whole process group, and the caller stops it).
    It stops when its caller is gone, even by SIGKILL: it has closed its
    copies of the caller's pipe ends, so a read then sees EOF and a write
    ends it quietly (SIGPIPE), and caller_alive() turns false. On leaving
    the block the caller terminates and joins it, so nothing is left
    holding a descriptor. Once it has died, `send`, `recv` and
    `recv_bytes` raise ProtosegError("<what> helper exited with code N").
    It needs the `fork` start method: a spawned helper would import numpy
    and the package again, and could not receive body.
    """

    def __init__(self, what: str, body: Callable):
        # Imported here: callers that never fork should not pay for it.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.what = what
        inbox, self._to_helper = ctx.Pipe(duplex=False)
        self._from_helper, outbox = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_helper_main, daemon=True,
            args=(body, os.getpid(), (inbox, outbox),
                  (self._to_helper, self._from_helper)))
        try:
            with inbox, outbox:
                self._process.start()
        except BaseException:
            self._to_helper.close()
            self._from_helper.close()
            raise

    def __enter__(self) -> "_Helper":
        return self

    def __exit__(self, *exc) -> None:
        self._process.terminate()
        self._process.join()
        self._process.close()
        self._to_helper.close()
        self._from_helper.close()

    def alive(self) -> bool:
        return self._process.is_alive()

    def send(self, message) -> None:
        try:
            self._to_helper.send(message)
        except BrokenPipeError:
            self._exited()

    def recv(self):
        try:
            return self._from_helper.recv()
        except EOFError:
            self._exited()

    def recv_bytes(self) -> bytes:
        try:
            return self._from_helper.recv_bytes()
        except EOFError:
            self._exited()

    def _exited(self):
        self._process.join()
        raise ProtosegError("%s helper exited with code %s"
                            % (self.what, self._process.exitcode)) from None


def _helper_main(body: Callable, caller: int, ends, callers_ends) -> None:
    import signal  # loaded already, by multiprocessing

    for end in callers_ends:
        end.close()
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # An orphan is re-parented, so its parent id changes.
    body(*ends, lambda: os.getppid() == caller)


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
        row_config = config.with_overrides(**toggles)
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


def _random_descriptors(channels: int, grid: int, seed: int, tag: str) -> Tensor:
    rng = derive_rng(seed, "gradcheck", tag)
    data = rng.normal(0.0, 1.0, size=(channels, grid * grid))
    return Tensor(data.astype(np.float64))


def gradcheck_model(config: Config,
                    max_coords_per_param: int = 8) -> dict[str, float]:
    """Worst relative gradient error per module and for the full pipeline,
    measured in float64 on a small 1-shot episode."""
    toy = config.with_overrides(image_size=16, channels=8, proto_dim=4,
                                encoder_width=4, encoder_depth=4, reduction=4,
                                k_shot=1, graph_reasoning=True,
                                excitation=True, edge_fusion=True)
    net = FewShotSegmenter(toy, dtype=np.float64)
    # Zero-initialized layers would make most pipeline gradients trivially
    # zero; audit at a generic point in weight space instead.
    for i, p in enumerate(net.parameters()):
        rng = derive_rng(toy.seed, "gradcheck", "weights", i)
        p.data = rng.normal(0.0, 0.1, size=p.shape)
    split = default_split(toy)
    ep_seed = derive_seed(toy.seed, "gradcheck-episode")
    episode = sample_episode(split, "train", 1, ep_seed, toy.image_size)
    grid = net.grid
    results: dict[str, float] = {}

    def check(function, params) -> float:
        return grad_check(function, params, eps=GRADCHECK_EPS,
                          max_coords_per_param=max_coords_per_param)

    image = episode.images[-1].astype(np.float64)

    def encoder_scalar():
        out = net.encoder(image)
        return ad.tensor_mean(ad.mul(out, out))

    results["encoder"] = check(encoder_scalar, net.encoder.parameters())

    x_s = _random_descriptors(toy.channels, grid, toy.seed, "support")
    x_q = _random_descriptors(toy.channels, grid, toy.seed, "query")

    def reasoning_scalar():
        out = net.reasoning(x_s, x_q)
        return ad.tensor_mean(ad.mul(out, out))

    results["reasoning"] = check(reasoning_scalar, net.reasoning.parameters())

    rng = derive_rng(toy.seed, "gradcheck", "grid")
    grid_mask = (rng.random((grid, grid)) < 0.4).astype(np.float64)
    if not np.any(grid_mask):
        grid_mask[0, 0] = 1.0

    def excitation_scalar():
        out = net.excitation(x_s, masked_avg_pool(x_s, grid_mask), x_q)
        return ad.tensor_mean(ad.mul(out, out))

    results["excitation"] = check(excitation_scalar,
                                  net.excitation.parameters())

    main = _random_descriptors(toy.channels, grid, toy.seed, "main")
    aux = _random_descriptors(toy.channels, grid, toy.seed, "aux")
    target = (derive_rng(toy.seed, "gradcheck", "target")
              .random((toy.image_size,) * 2) < 0.3).astype(np.float64)
    results["fusion"] = check(lambda: bce_loss(net.head(main, aux), target),
                              net.head.parameters())
    results["pipeline"] = check(lambda: net.episode_loss(episode),
                                net.parameters())
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
        {"header": {k: v for k, v in header.items() if k != "parameters"},
         "module_parameters": counts}, sort_keys=True))
    return "\n".join(lines)
