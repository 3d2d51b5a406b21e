"""Config parsing and validation."""

import dataclasses

import pytest

from protoseg.config import Config, config_from_dict, load_config, parse_config
from protoseg.errors import ConfigError


def test_defaults_validate():
    cfg = Config().validate()
    assert cfg.image_size == 64
    assert cfg.channels == 32
    assert cfg.proto_dim == 16
    assert cfg.graph_reasoning and cfg.excitation and cfg.edge_fusion


def test_parse_basic_and_comments():
    cfg = parse_config("""
    # training shape
    image_size = 32
    epochs = 3

    seed = 41
    graph_reasoning = false
    edge_fusion = off
    """)
    assert cfg.image_size == 32
    assert cfg.epochs == 3
    assert cfg.seed == 41
    assert cfg.graph_reasoning is False
    assert cfg.edge_fusion is False


@pytest.mark.parametrize("raw,expected", [
    ("true", True), ("1", True), ("yes", True), ("on", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
    ("TRUE", True), ("Off", False),
])
def test_bool_forms(raw, expected):
    cfg = parse_config("edge_fusion = %s" % raw)
    assert cfg.edge_fusion is expected


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("image_size = 64\nbogus_key = 3\n")
    assert "line 2" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 1\nepochs = 2\n")
    assert "duplicate" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config("epochs = soon\n")
    assert "line 1" in str(err.value)

    with pytest.raises(ConfigError):
        parse_config("just some text\n")


def test_validation_rules():
    with pytest.raises(ConfigError):
        Config(image_size=30).validate()       # not divisible by 4
    with pytest.raises(ConfigError):
        Config(channels=30, reduction=4).validate()
    with pytest.raises(ConfigError):
        Config(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        Config(fold=3).validate()
    with pytest.raises(ConfigError):
        Config(encoder_depth=2).validate()
    with pytest.raises(ConfigError):
        Config(excitation=False, edge_fusion=True).validate()
    # edge fusion off with excitation off is fine
    Config(excitation=False, edge_fusion=False).validate()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_learning_rate_must_be_finite(value):
    # NaN passed a plain `< 0` check and only surfaced an epoch later as a
    # misleading adjacency error once the parameters turned NaN.
    for build in (lambda: Config(learning_rate=float(value)).validate(),
                  lambda: parse_config("learning_rate = %s\n" % value)):
        with pytest.raises(ConfigError) as err:
            build()
        assert "learning_rate" in str(err.value)


def test_config_checks_itself_when_built():
    # No Config that breaks a rule can exist, whichever way it is made.
    with pytest.raises(ConfigError, match="reduction"):
        Config(channels=30, reduction=4)
    with pytest.raises(ConfigError, match="fold"):
        dataclasses.replace(Config(), fold=3)


# The module sizes are Config's rules alone: a module is only built from a
# Config, which cannot exist unless it keeps them.
def test_config_rejects_shallow_encoder():
    # Both stride-2 blocks need four blocks.
    with pytest.raises(ConfigError, match="^encoder_depth must be >= 4$"):
        Config(encoder_depth=3)


def test_config_rejects_bad_reasoning_dims():
    with pytest.raises(ConfigError, match="^proto_dim must be >= 2$"):
        Config(proto_dim=1)
    with pytest.raises(ConfigError, match="^gcn_depth must be positive$"):
        Config(gcn_depth=0)


def test_config_rejects_channels_off_the_reduction():
    with pytest.raises(ConfigError, match="^channels must divide by reduction$"):
        Config(channels=6, reduction=4)


def test_huge_integer_learning_rate_is_config_error():
    # math.isfinite raises OverflowError on an int beyond the float range.
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_dict({"learning_rate": 10 ** 400})


def test_replace_revalidates():
    cfg = Config()
    assert dataclasses.replace(cfg, epochs=5).epochs == 5
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, momentum=2.0)


def test_config_from_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": 3})
    cfg = config_from_dict({"epochs": 2, "seed": 9})
    assert cfg.epochs == 2 and cfg.seed == 9


@pytest.mark.parametrize("key,value", [
    ("channels", "8"),            # int from a string
    ("channels", 8.0),            # int from a float
    ("channels", True),           # bool is not an int
    ("graph_reasoning", "yes"),   # bool from a string
    ("graph_reasoning", 1),       # bool from an int
    ("learning_rate", "0.01"),    # float from a string
    ("learning_rate", False),     # bool is not a number
])
def test_config_from_dict_rejects_wrong_type(key, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict({key: value})
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5),                # would draw seed 1's streams
    ("seed", True),
    ("edge_fusion", 1),
    ("momentum", "0.5"),
])
def test_validate_rejects_wrong_type(key, value):
    # A Config built in Python passes the same type check as a dict.
    with pytest.raises(ConfigError) as err:
        Config(**{key: value}).validate()
    assert repr(key) in str(err.value)
    with pytest.raises(ConfigError):
        dataclasses.replace(Config(), **{key: value})


def test_config_from_dict_float_accepts_int():
    cfg = config_from_dict({"learning_rate": 1, "momentum": 0.5})
    assert cfg.learning_rate == 1 and cfg.momentum == 0.5


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("image_size = 32\nseed = 3\n")
    cfg = load_config(path)
    assert cfg.image_size == 32 and cfg.seed == 3


BOM = b"\xef\xbb\xbf"


def test_load_config_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(BOM + b"seed = 3\nimage_size = 32\n")
    cfg = load_config(path)
    assert cfg.seed == 3 and cfg.image_size == 32


def test_load_config_counts_the_byte_order_mark_in_a_bad_byte_offset(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(BOM + b"seed = 3\n\xff")
    with pytest.raises(ConfigError, match="not UTF-8 at byte offset 12$"):
        load_config(path)


@pytest.mark.parametrize("build", [
    lambda: parse_config("seed = -1"),
    lambda: parse_config("seed = 4294967296"),
    lambda: Config(seed=2 ** 32),
    lambda: dataclasses.replace(Config(), seed=-1),
    lambda: config_from_dict({"seed": 2 ** 40}),
], ids=["file-negative", "file-2**32", "init-2**32", "override-negative",
        "dict-2**40"])
def test_seed_outside_32_bits_is_no_config(build):
    # The run's streams derive from the seed with `derive_rng`, which would
    # refuse it; the Config refuses it first, with the same rule.
    with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*32\)"):
        build()


def test_seed_at_the_32_bit_edges_builds():
    assert Config(seed=0).seed == 0
    assert parse_config("seed = 4294967295").seed == 2 ** 32 - 1
