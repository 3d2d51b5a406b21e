"""The benchmark's workloads.

Each workload drives protoseg's user-facing entry points (`harness.train`,
`harness.evaluate`, `harness.ablate`) with `Config` values and episode
seeds derived from the workload seed, and checks what they return.

One *cycle* of a workload is one call per class fold (0, 1, 2): the three
folds together hold every defect class once, so the mix of classes, whose
rendering costs differ several-fold, is the same for every seed. Cycle 0
uses the workload seed as `Config.seed`; later cycles use seeds derived
from it, so a longer run averages over more episode draws.

Import this module only after `protoseg` has been imported with its thread
settings in place (see run.py).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from protoseg import harness, network
from protoseg.config import Config
from protoseg.seeding import derive_seed

FOLDS = (0, 1, 2)
LN2 = math.log(2.0)
LN2_TOL = 1e-6


@dataclass
class CallResult:
    seconds: float            # wall time of the timed entry-point calls
    episodes: int             # training plus evaluation episodes completed
    epoch_s: list[float]      # epoch times (see Workload.timed)
    parts: list[tuple[int, float]]  # (episodes, seconds) pieces of the call
    outputs: tuple            # compared between calls with equal keys
    quality: dict             # loss_tail and/or miou of this call
    problems: list[str] = field(default_factory=list)


@dataclass
class Call:
    key: tuple                # equal keys mean equal inputs
    episodes: int             # episodes the call attempts
    run: Callable[[], CallResult]


# ---------------------------------------------------------------------------
# checks


def check_losses(losses, expected: int, what: str) -> list[str]:
    problems = []
    if len(losses) != expected:
        problems.append("%s: %d losses, expected %d" % (what, len(losses), expected))
    if not losses or abs(losses[0] - LN2) > LN2_TOL:
        problems.append("%s: first loss %r is not ln 2" % (what, losses[:1]))
    if not all(math.isfinite(v) for v in losses):
        problems.append("%s: non-finite training loss" % what)
    return problems


def check_unit(value: float, what: str) -> list[str]:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return ["%s = %r lies outside [0, 1]" % (what, value)]
    return []


def check_report(report, episodes: int, what: str) -> list[str]:
    problems = check_unit(report.miou, what + " miou")
    problems += check_unit(report.fb_iou, what + " fb_iou")
    if report.episodes != episodes:
        problems.append("%s: %d episodes, expected %d"
                        % (what, report.episodes, episodes))
    return problems


def check_reload(path, net, what: str) -> tuple[list[str], object]:
    """Reload a checkpoint; its arrays must equal the network's bit for bit."""
    loaded, _ = harness.load_network(path)
    want = net.parameter_dict()
    got = loaded.parameter_dict()
    problems = []
    if set(want) != set(got):
        problems.append("%s: reloaded parameter names differ" % what)
    else:
        for name, p in want.items():
            a, b = p.data, got[name].data
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append("%s: reloaded %s differs" % (what, name))
    return problems, loaded


def weights_digest(net) -> str:
    h = hashlib.sha256()
    for p in net.parameters():
        h.update(p.name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def derived_seed(*parts) -> int:
    """A 31-bit seed determined by `parts`."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def loss_tail(losses, episodes_per_epoch: int) -> float:
    return float(np.mean(losses[-episodes_per_epoch:]))


class Timing:
    def __init__(self):
        self.seconds = 0.0
        self.epoch_s: list[float] = []
        self.last = time.perf_counter()

    def epoch(self, epoch: int, mean_loss: float) -> None:
        now = time.perf_counter()
        self.epoch_s.append(now - self.last)
        self.last = now


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    setup_repeats = 5
    # True when one call already compares two same-seed runs.
    repeats_inside = False
    # per-layer metric -> the end-to-end metric it should move here
    layers: dict[str, str] = {}

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.tracer = None          # a tracing.Tracer, set for traced runs

    @contextmanager
    def timed(self):
        """Times the entry-point calls of one workload call.

        Yields a Timing; every harness.train call inside the block (ablate's
        too, which pass no callback) gets a progress callback recording its
        epoch times. The tracer records spans only inside this block, so the
        checks that follow stay out of the trace."""
        timing = Timing()
        train = harness.train

        def clocked_train(config, out_dir=None):
            timing.last = time.perf_counter()
            return train(config, out_dir=out_dir, progress=timing.epoch)

        harness.train = clocked_train
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            harness.train = train

    def cycle_seed(self, index: int) -> int:
        return self.seed if index == 0 else derived_seed("cycle", self.seed, index)

    def config(self, index: int = 0, **overrides) -> Config:
        base = dict(seed=self.cycle_seed(index))
        if self.tiny:
            base.update(image_size=32, channels=8, proto_dim=4,
                        encoder_width=4, reduction=4, epochs=2,
                        episodes_per_epoch=4)
        base.update(overrides)
        return Config(**base).validate()

    def setup(self) -> list[str]:
        """One set-up; returns the problems found."""
        # Split and network construction, as the entry points do it.
        for fold in FOLDS:
            cfg = self.call_config(0, fold)
            harness.default_split(cfg)
            network.FewShotSegmenter(cfg)
        return []

    def call_config(self, index: int, fold: int) -> Config:
        return self.config(index, fold=fold)

    def cycle(self, index: int) -> list[Call]:
        """The calls of cycle `index`; equal indices give equal inputs."""
        return [self._call(index, fold) for fold in FOLDS]

    def _call(self, index: int, fold: int) -> Call:
        raise NotImplementedError


class TrainDesk(Workload):
    name = "train-desk"
    why = ("harness.train on the desk Config, one run per fold: what "
           "protoseg train users wait for; backward is over half its time")
    layers = {
        "autodiff.backward_ms": "episodes_per_s",
        "autodiff.conv2d.bwd_ms": "episodes_per_s",
        "network.forward_ms": "episodes_per_s",
        "episodes.sample_ms": "episodes_per_s",
        "harness.sgd_step_ms": "episodes_per_s",
        "storage.checkpoint_write_ms": "episodes_per_s",
        "autodiff.tape_peak_mb": "peak_rss_mb",
    }

    def _call(self, index: int, fold: int) -> Call:
        cfg = self.call_config(index, fold)
        n = cfg.epochs * cfg.episodes_per_epoch

        def run() -> CallResult:
            out = self.work_dir / ("ckpt-fold%d" % fold)
            shutil.rmtree(out, ignore_errors=True)
            with self.timed() as timing:
                result = harness.train(cfg, out_dir=out)
            what = "train fold %d" % fold
            problems = check_losses(result.losses, n, what)
            if len(result.checkpoints) != cfg.epochs:
                problems.append("%s: %d checkpoints, expected %d"
                                % (what, len(result.checkpoints), cfg.epochs))
            else:
                problems += check_reload(result.checkpoints[-1],
                                         result.network, what)[0]
            shutil.rmtree(out, ignore_errors=True)
            tail = loss_tail(result.losses, cfg.episodes_per_epoch)
            # Each epoch is a piece: equal work in every fold.
            parts = [(cfg.episodes_per_epoch, t) for t in timing.epoch_s]
            return CallResult(timing.seconds, n, timing.epoch_s, parts,
                              (tail, weights_digest(result.network)),
                              {"loss_tail": tail}, problems)

        return Call(("train", index, fold), n, run)


class EvalFiveShot(Workload):
    name = "eval-5shot"
    why = ("harness.evaluate at K=5 on each held-out fold with reloaded "
           "weights: the inference path, sampler and encoder bound, no tape")
    episodes = 60
    setup_repeats = 3
    layers = {
        "episodes.sample_ms": "episodes_per_s",
        "episodes.generate_sample_ms": "episodes_per_s",
        "encoder.call_ms": "episodes_per_s",
        "encoder.calls_per_episode": "episodes_per_s",
        "metrics.score_ms": "episodes_per_s",
        "autodiff.backward_ms": "none (stays 0)",
        "storage.checkpoint_write_ms": "setup_s",
        "storage.checkpoint_read_ms": "setup_s",
    }

    def setup(self):
        # A short train-desk-style run per fold, saved and reloaded.
        self.nets = {}
        problems = []
        for fold in FOLDS:
            cfg = self.config(0, fold=fold, epochs=1)
            result = harness.train(cfg)
            what = "set-up train fold %d" % fold
            problems += check_losses(result.losses,
                                     cfg.epochs * cfg.episodes_per_epoch, what)
            path = harness.save_checkpoint(
                self.work_dir / ("fold%d.ckpt" % fold), result.network,
                cfg.epochs - 1, len(result.losses))
            found, self.nets[fold] = check_reload(path, result.network, what)
            problems += found
        return problems

    def _call(self, index: int, fold: int) -> Call:
        net = self.nets[fold]
        # Nothing trains while this workload is measured: its "epoch" is
        # the time per episodes_per_epoch evaluated episodes.
        epoch_share = net.config.episodes_per_epoch / self.episodes
        # Episode streams independent across folds and cycles.
        seed = derived_seed("eval", self.seed, index, fold)

        def run() -> CallResult:
            with self.timed() as timing:
                report = harness.evaluate(net, k=5, episodes=self.episodes,
                                          seed=seed)
            problems = check_report(report, self.episodes,
                                    "eval fold %d K=5" % fold)
            return CallResult(timing.seconds, self.episodes,
                              [timing.seconds * epoch_share],
                              [(self.episodes, timing.seconds)],
                              (report.miou, report.fb_iou, report.mean_loss),
                              {"miou": report.miou}, problems)

        return Call(("eval", index, fold), self.episodes, run)


class EchoDesk(Workload):
    name = "echo-desk"
    why = ("scaled-down acceptance echo per fold: train, three evaluations, "
           "then ablate's six trainings; construction and fusion head weigh more")
    eval_episodes = 40
    repeats_inside = True
    layers = {
        "harness.trainings": "episodes_per_s",
        "harness.sgd_step_ms": "episodes_per_s",
        "fusion.head_ms": "episodes_per_s",
        "autodiff.tape_nodes": "episodes_per_s",
        "autodiff.backward_ms": "episodes_per_s",
        "network.forward_ms": "episodes_per_s",
    }

    def call_config(self, index: int, fold: int) -> Config:
        if self.tiny:
            return self.config(index, fold=fold)
        return self.config(index, fold=fold, epochs=2, episodes_per_epoch=10)

    def _call(self, index: int, fold: int) -> Call:
        cfg = self.call_config(index, fold)
        n_eval = self.eval_episodes
        n_train = cfg.epochs * cfg.episodes_per_epoch
        episodes = n_train + 3 * n_eval + len(harness.ABLATION_ROWS) * (n_train + n_eval)
        # ablate evaluates every row on this stream; the echo's own
        # evaluations use it too, so the full-model row repeats them.
        eval_seed = derive_seed(cfg.seed, "ablate-eval")

        def run() -> CallResult:
            with self.timed() as timing:
                result = harness.train(cfg)
                untrained = harness.evaluate(network.FewShotSegmenter(cfg),
                                             k=1, episodes=n_eval,
                                             seed=eval_seed)
                k1 = harness.evaluate(result.network, k=1, episodes=n_eval,
                                      seed=eval_seed)
                k5 = harness.evaluate(result.network, k=5, episodes=n_eval,
                                      seed=eval_seed)
                rows = harness.ablate(cfg, eval_episodes=n_eval)

            what = "echo fold %d" % fold
            problems = check_losses(result.losses, n_train, what + " train")
            for label, report in (("untrained", untrained), ("K=1", k1),
                                  ("K=5", k5)):
                problems += check_report(report, n_eval, "%s %s" % (what, label))
            tail = loss_tail(result.losses, cfg.episodes_per_epoch)
            if len(rows) != len(harness.ABLATION_ROWS):
                problems.append("%s: %d ablation rows" % (what, len(rows)))
            for row in rows:
                label = "%s row %s" % (what, row["row"])
                problems += check_unit(row["miou"], label + " miou")
                problems += check_unit(row["fb_iou"], label + " fb_iou")
                if not math.isfinite(row["final_epoch_loss"]):
                    problems.append(label + ": non-finite final loss")
            full = [r for r in rows if r["graph_reasoning"] and r["excitation"]
                    and r["edge_fusion"]]
            # Same seed, same config: the full-model row is a second run.
            if not full or (full[0]["final_epoch_loss"], full[0]["miou"],
                            full[0]["fb_iou"]) != (tail, k1.miou, k1.fb_iou):
                problems.append("%s: full-model ablation row differs from the "
                                "same-seed train and K=1 evaluation" % what)
            outputs = (tail, k1.miou, k5.miou, untrained.miou,
                       tuple(r["miou"] for r in rows))
            # The pieces of a call differ in kind, so the call is one piece.
            return CallResult(timing.seconds, episodes, timing.epoch_s,
                              [(episodes, timing.seconds)], outputs,
                              {"loss_tail": tail, "miou": k1.miou}, problems)

        return Call(("echo", index, fold), episodes, run)


WORKLOADS = {w.name: w for w in (TrainDesk, EvalFiveShot, EchoDesk)}
