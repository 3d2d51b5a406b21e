"""End-to-end command flow through main(argv)."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from protoseg.cli import main
from protoseg.config import load_config
from protoseg.errors import FormatError
from protoseg.harness import load_network
from protoseg.network import FewShotSegmenter

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


def test_eval_full_disk_is_one_error_line(trained_ckpt, monkeypatch, capsys):
    # evaluate keeps its episode queue in a temporary file.
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    code = main(["eval", "--ckpt", trained_ckpt, "--fold", "0",
                 "--episodes", "10"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error = OSError: [Errno 28] No space left on device\n")


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


def _write_version_3(path, net):
    """A checkpoint in the layout of versions 1 to 3: a header line with a
    `parameters` name list, then per tensor one record of magic b"LTSR",
    record version 1, dtype code 0 (float32), rank, a zero byte, u32
    extents and the row-major payload."""
    params = net.parameters()
    header = {"format": "protoseg-checkpoint", "version": 3, "epoch": 0,
              "config": net.config.to_dict(),
              "rng": {"scheme": "seed-path", "root_seed": net.config.seed,
                      "train_episodes_consumed": 0},
              "parameters": [p.name for p in params]}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    raw += b"\n"
    for p in params:
        arr = np.asarray(p.data, dtype="<f4")
        raw += b"LTSR" + bytes([1, 0, arr.ndim, 0])
        raw += np.asarray(arr.shape, dtype="<u4").tobytes() + arr.tobytes()
    path.write_bytes(raw)


def test_version_3_checkpoint_is_one_tensors_error(tiny_config, tmp_path,
                                                    capsys):
    path = tmp_path / "v3.ckpt"
    _write_version_3(path, FewShotSegmenter(load_config(tiny_config)))
    with pytest.raises(FormatError) as err:
        load_network(path)
    assert str(err.value).startswith("tensors:")
    for argv in (["eval", "--ckpt", str(path), "--fold", "0"],
                 ["report", "--ckpt", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error = FormatError: tensors: ")
        assert captured.err.count("\n") == 1


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


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"image_size = 16\nseed = \xff\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error = ConfigError: %s: not UTF-8 at byte offset 23\n" % path
