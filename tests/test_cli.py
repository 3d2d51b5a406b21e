"""End-to-end command flow through main(argv)."""

import json
from pathlib import Path

import numpy as np
import pytest

from protoseg.cli import main

TINY_CFG = """
image_size = 16
channels = 8
proto_dim = 4
encoder_width = 4
reduction = 4
epochs = 2
episodes_per_epoch = 4
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture()
def trained_ckpt(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    final = [l for l in lines if l.startswith("final_checkpoint = ")]
    assert len(final) == 1
    return final[0].split(" = ", 1)[1]


def test_train_output_shape(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("epoch = ") == 2
    assert text.count("train_loss = ") == 2
    assert "episodes_trained = 8" in text
    assert (out / "checkpoint-epoch001.ckpt").exists()


def test_eval_reads_checkpoint(trained_ckpt, capsys):
    code = main(["eval", "--ckpt", trained_ckpt, "--fold", "0",
                 "--episodes", "30", "--seed", "5"])
    assert code == 0
    text = capsys.readouterr().out
    assert "miou = " in text and "fb_iou = " in text
    assert "json = " in text


def test_eval_wrong_fold_is_config_error(trained_ckpt, capsys):
    code = main(["eval", "--ckpt", trained_ckpt, "--fold", "1",
                 "--episodes", "10"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error = ConfigError:")


def test_eval_too_few_episodes_is_incomplete(trained_ckpt, capsys):
    # 2 episodes cannot visit all four held-out classes
    code = main(["eval", "--ckpt", trained_ckpt, "--fold", "0",
                 "--episodes", "2", "--seed", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error = IncompleteEvaluationError:")


@pytest.mark.parametrize("argv, error", (
    ("eval --ckpt {tmp}/nope.ckpt --fold 0", "FileNotFoundError"),
    ("report --ckpt {tmp}", "IsADirectoryError"),
    ("train --config {cfg} --out {cfg}/sub", "NotADirectoryError"),
), ids=("missing-file", "directory-as-file", "file-as-directory"))
def test_eval_missing_file(argv, error, tiny_config, tmp_path, capsys):
    code = main([word.format(tmp=tmp_path, cfg=tiny_config)
                 for word in argv.split()])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error = %s:" % error)
    assert err.count("\n") == 1


def test_report_describes_checkpoint(trained_ckpt, capsys):
    code = main(["report", "--ckpt", trained_ckpt])
    assert code == 0
    text = capsys.readouterr().out
    assert "format = protoseg-checkpoint" in text
    assert "config_image_size = 16" in text


def test_report_huge_learning_rate_is_config_error(trained_ckpt, capsys):
    # A header value beyond the float range is one error line, not a
    # traceback from inside the config check.
    path = Path(trained_ckpt)
    line, _, records = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["config"]["learning_rate"] = 10 ** 400
    path.write_bytes(json.dumps(header).encode() + b"\n" + records)
    for argv in (["report", "--ckpt", trained_ckpt],
                 ["eval", "--ckpt", trained_ckpt, "--fold", "0"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error = ConfigError: learning_rate")
        assert err.count("\n") == 1


def test_gradcheck_passes_and_prints_modules(capsys):
    code = main(["gradcheck"])
    assert code == 0
    text = capsys.readouterr().out
    for key in ("encoder_max_rel_error", "pipeline_max_rel_error",
                "worst", "tolerance"):
        assert key + " = " in text
    worst = float([l for l in text.splitlines()
                   if l.startswith("worst = ")][0].split(" = ")[1])
    assert worst < 1e-4


def test_ablate_prints_six_rows(tiny_config, capsys):
    code = main(["ablate", "--config", str(tiny_config), "--episodes", "25"])
    assert code == 0
    text = capsys.readouterr().out
    # six rows from progress plus six in the final rendering
    assert text.count("row = ") == 12
    assert "row = baseline" in text
    assert "row = reasoning+excitation+edges" in text


def test_bad_config_line_number(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("image_size = 16\nwhat = 3\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error = ConfigError:")
    assert "line 2" in err
