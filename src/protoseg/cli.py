"""Command-line entry points: train, eval, ablate, gradcheck, report.

Output is line-oriented `key = value` text so scripts can scrape it without
guessing; failures print a single `error = <Type>: <message>` line to stderr
and exit 1.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .config import Config, load_config
from .errors import ConfigError, ProtosegError

GRADCHECK_TOLERANCE = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoseg",
        description="Few-shot defect segmentation: episodic training and "
                    "evaluation on the synthetic defect corpus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="path to a key = value file")
    p_train.add_argument("--out", required=True, help="directory for checkpoints")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on its held-out fold")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--fold", type=int, required=True, choices=(0, 1, 2))
    p_eval.add_argument("--k", type=int, default=None, help="shots per episode")
    p_eval.add_argument("--episodes", type=int, default=60)
    p_eval.add_argument("--seed", type=int, default=None)

    p_ablate = sub.add_parser("ablate", help="train and score all branch toggles")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--episodes", type=int, default=60)
    p_ablate.add_argument("--out", default=None)

    p_gc = sub.add_parser("gradcheck",
                          help="audit analytic gradients against finite "
                               "differences in float64")
    p_gc.add_argument("--config", default=None,
                      help="optional config; geometry is shrunk to a toy "
                           "size either way")

    p_report = sub.add_parser("report", help="describe a stored checkpoint")
    p_report.add_argument("--ckpt", required=True)
    return parser


def _cmd_train(args) -> int:
    config = load_config(args.config)

    def progress(epoch: int, mean_loss: float) -> None:
        print("epoch = %d" % epoch)
        print("train_loss = %.6f" % mean_loss)

    result = harness.train(config, out_dir=args.out, progress=progress)
    print("episodes_trained = %d" % len(result.losses))
    for path in result.checkpoints[-1:]:
        print("final_checkpoint = %s" % path)
    return 0


def _cmd_eval(args) -> int:
    net, _ = harness.load_network(args.ckpt)
    if args.fold != net.config.fold:
        raise ConfigError(
            "these weights held out fold %d; evaluating fold %d would mix "
            "training classes into the test set" % (net.config.fold, args.fold))
    report = harness.evaluate(net, k=args.k, episodes=args.episodes,
                              seed=args.seed)
    print(report.to_text())
    return 0


def _cmd_ablate(args) -> int:
    config = load_config(args.config)

    def progress(label: str, row: dict, _: harness.TrainResult) -> None:
        print("row = %s" % label)
        print("miou = %.6f" % row["miou"])
        print("fb_iou = %.6f" % row["fb_iou"])

    rows = harness.ablate(config, eval_episodes=args.episodes,
                          out_dir=args.out, progress=progress)
    print(harness.render_ablation(rows))
    return 0


def _cmd_gradcheck(args) -> int:
    config = load_config(args.config) if args.config else Config()
    results = harness.gradcheck_model(config)
    worst = max(results.values())
    for name in sorted(results):
        print("%s_max_rel_error = %.3e" % (name, results[name]))
    print("worst = %.3e" % worst)
    print("tolerance = %.0e" % GRADCHECK_TOLERANCE)
    if worst >= GRADCHECK_TOLERANCE:
        print("error = TrainingError: gradient audit failed", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    print(harness.model_report(args.ckpt))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ProtosegError, OSError) as e:
        print("error = %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
