"""Assembled model: parameter accounting, toggles, support encoding."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from protoseg.autodiff import Tensor
from protoseg.config import Config
from protoseg.encoder import STRIDE
from protoseg.episodes import Episode, make_folds, sample_episode
from protoseg.errors import DegenerateEpisodeError, DimensionError
from protoseg.harness import SGD
from protoseg.excitation import FeatureExcitation
from protoseg.network import FewShotSegmenter
from protoseg.reasoning import GraphReasoning

TOY = Config(image_size=16, channels=8, proto_dim=4, encoder_width=4,
             reduction=4, gcn_depth=2)
SPLIT = make_folds(seed=0, test_fold=0)


def toy_net(**overrides):
    return FewShotSegmenter(replace(TOY, **overrides))


def conv_params(c_out, c_in, k):
    return c_out * c_in * k * k + c_out


@pytest.mark.parametrize("depth", [4, 6])
def test_one_square_grid_from_encoder_to_head(depth):
    # The encoder owns the geometry: an S x S image maps to an
    # (c, S // STRIDE, S // STRIDE) grid, and both branches and the head are
    # built on it, upsampling columns with the row matrix transposed.
    cfg = replace(TOY, image_size=32, encoder_depth=depth)
    net = FewShotSegmenter(cfg)
    grid = 32 // STRIDE
    image = np.random.default_rng(depth).random((3, 32, 32)).astype(np.float32)
    assert net.encoder(image).shape == (cfg.channels, grid, grid)
    assert (net.grid == net.reasoning.grid == net.excitation.grid
            == net.head.grid == grid)
    assert net.head.rows.shape == (32, grid)
    assert np.array_equal(net.head.cols_t, net.head.rows.T)


def test_parameter_count_formulas_desk_config():
    cfg = Config()  # 64px, c=32, r=16, width 16, depth 4, reduction 4
    net = FewShotSegmenter(cfg)
    counts = net.module_parameter_counts()
    c, r, w = cfg.channels, cfg.proto_dim, cfg.encoder_width
    l = (cfg.image_size // STRIDE) ** 2
    encoder = (conv_params(w, 3, 3) + 2 * conv_params(w, w, 3)
               + conv_params(c, w, 3))
    reasoning = (2 * conv_params(r, c, 1) + conv_params(r, 2 * r, 1)
                 + cfg.gcn_depth * r * r + conv_params(c, r, 3))
    excitation = ((c // cfg.reduction) * c + (c // cfg.reduction)
                  + c * (c // cfg.reduction) + c
                  + conv_params(1, c, 7)
                  + conv_params(c, c + l, 1))
    fusion = 4 * conv_params(2 * c, 2 * c, 3) + conv_params(1, 2 * c, 1)
    assert counts["encoder"] == encoder == 9728
    assert counts["reasoning"] == reasoning == 6736
    assert counts["excitation"] == excitation == 11369
    assert counts["fusion"] == fusion == 147777
    assert net.parameter_count() == sum(counts.values()) == 175610


def test_parameter_names_unique_and_prefixed():
    net = toy_net()
    names = [p.name for p in net.parameters()]
    assert len(names) == len(set(names))
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"encoder", "reasoning", "excitation", "fusion"}


def test_toggles_drop_parameter_groups():
    base = toy_net()
    no_graph = toy_net(graph_reasoning=False)
    no_exc = toy_net(excitation=False, edge_fusion=False)
    no_edges = toy_net(edge_fusion=False)

    def prefixes(net):
        return {p.name.split(".")[0] for p in net.parameters()}

    assert "reasoning" not in prefixes(no_graph)
    assert "excitation" not in prefixes(no_exc)
    assert any(p.name.startswith("excitation.fuse_edges")
               for p in base.parameters())
    assert not any(p.name.startswith("excitation.fuse_edges")
                   for p in no_edges.parameters())


@pytest.mark.parametrize("overrides", [
    {}, {"edge_fusion": False}, {"graph_reasoning": False},
    {"excitation": False, "edge_fusion": False}])
def test_every_bias_is_one_value_per_output_channel(overrides):
    # One bias shape for every layer, conv2d and the pointwise conv1d alike.
    params = {p.name: p for p in FewShotSegmenter(Config(**overrides)).parameters()}
    biases = [name for name in params if name.endswith(".bias")]
    assert biases
    for name in biases:
        weight = params[name[:-len("bias")] + "weight"]
        assert params[name].shape == weight.shape[:1], name


def test_same_seed_same_weights():
    a, b = toy_net(), toy_net()
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = toy_net(seed=1)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_forward_geometry_all_toggle_combinations():
    ep = sample_episode(SPLIT, "train", 1, seed=3, image_size=16)
    for toggles in ({}, {"graph_reasoning": False},
                    {"excitation": False, "edge_fusion": False},
                    {"edge_fusion": False},
                    {"graph_reasoning": False, "excitation": False,
                     "edge_fusion": False}):
        net = toy_net(**toggles)
        probs = net.forward(ep)
        assert probs.shape == (16, 16)
        assert np.all(np.isfinite(probs.data))


def test_inference_k_is_free():
    net = toy_net()  # config.k_shot == 1
    ep5 = sample_episode(SPLIT, "train", 5, seed=4, image_size=16)
    assert net.forward(ep5).shape == (16, 16)


def test_episode_loss_scalar_and_initial_value():
    net = toy_net()
    ep = sample_episode(SPLIT, "train", 1, seed=5, image_size=16)
    loss = net.episode_loss(ep)
    assert loss.data.size == 1
    # zero-init classifier: untrained loss is exactly ln 2
    assert abs(loss.item() - np.log(2.0)) < 1e-6


def test_encode_support_union_grid():
    net = toy_net()
    ep = sample_episode(SPLIT, "train", 3, seed=6, image_size=16)
    x_s, union = net.encode_support(ep)
    assert x_s.shape == (8, 16)
    grids = []
    for msk in ep.masks[:-1]:
        pooled = msk.reshape(4, 4, 4, 4).mean(axis=(1, 3))
        grids.append((pooled >= 0.5).astype(np.float32))
    want = np.clip(np.sum(grids, axis=0), 0.0, 1.0)
    assert np.array_equal(union, want)


def test_encode_support_empty_mask_raises_with_seed():
    net = toy_net()
    ep = sample_episode(SPLIT, "train", 1, seed=7, image_size=16)
    masks, grids = ep.masks.copy(), ep.grids.copy()
    masks[:-1] = 0.0
    grids[:-1] = 0.0
    empty = Episode(class_id=ep.class_id, images=ep.images, masks=masks,
                    grids=grids, seed=4242)
    with pytest.raises(DegenerateEpisodeError) as err:
        net.encode_support(empty)
    assert "4242" in str(err.value)


@pytest.mark.parametrize("branch", ["reasoning", "excitation"])
def test_branch_rejects_descriptors_off_its_grid(branch):
    # Each branch is built for one feature grid; descriptors of another grid
    # are a shape error, not a silently different computation.
    x = Tensor(np.ones((8, 9), dtype=np.float32))  # 3x3 grid
    with pytest.raises(DimensionError):
        if branch == "reasoning":
            GraphReasoning(8, 4, 1, grid=2, seed=0)(x, x)
        else:
            guidance = Tensor(np.ones((8, 1), dtype=np.float32))
            FeatureExcitation(8, 4, grid=2, edge_fusion=True,
                              seed=0)(x, guidance, x)


def test_load_parameter_arrays_round_trip():
    src = toy_net(seed=2)
    dst = toy_net(seed=9)
    dst.load_parameter_arrays({p.name: p.data.copy() for p in src.parameters()})
    for ps, pd in zip(src.parameters(), dst.parameters()):
        assert np.array_equal(ps.data, pd.data)


def test_load_parameter_arrays_validates():
    net = toy_net()
    good = {p.name: p.data.copy() for p in net.parameters()}
    bad_shape = dict(good)
    first = net.parameters()[0].name
    bad_shape[first] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(DimensionError):
        net.load_parameter_arrays(bad_shape)
    missing = dict(good)
    missing.pop(first)
    with pytest.raises(DimensionError):
        net.load_parameter_arrays(missing)


def test_zero_grad_clears_all():
    import protoseg.autodiff as ad
    from protoseg.autodiff import Tape, backward

    net = toy_net()
    ep = sample_episode(SPLIT, "train", 1, seed=8, image_size=16)
    with Tape() as tape:
        loss = net.episode_loss(ep)
    backward(tape, loss)
    assert any(np.abs(p.grad).max() > 0 for p in net.parameters())
    SGD(net.parameters(), learning_rate=0.1).zero_grad()
    assert all(p.grad is None for p in net.parameters())


def test_training_backward_peaks_at_the_end_of_forward():
    # Backward frees each node's activations, columns and gradient as it
    # goes, so a desk training episode needs little beyond what its
    # forward left live (holding every node to the end took 1.43x).
    import tracemalloc

    import protoseg.autodiff as ad
    from protoseg.autodiff import Tape, backward

    cfg = Config()
    net = FewShotSegmenter(cfg)
    split = make_folds(seed=cfg.seed, test_fold=cfg.fold)
    ep = sample_episode(split, "train", cfg.k_shot, seed=3,
                        image_size=cfg.image_size)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.mul(net.episode_loss(ep), 0.5)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * live


def test_training_forward_keeps_under_six_mib():
    # What a desk training episode's forward leaves live for backward: the
    # activations the tape holds, no conv columns (keeping those took
    # 12.0 MiB).
    import tracemalloc

    import protoseg.autodiff as ad
    from protoseg.autodiff import Tape

    cfg = Config()
    net = FewShotSegmenter(cfg)
    split = make_folds(seed=cfg.seed, test_fold=cfg.fold)
    ep = sample_episode(split, "train", cfg.k_shot, seed=3,
                        image_size=cfg.image_size)
    tracemalloc.start()
    try:
        with Tape() as tape:
            ad.mul(net.episode_loss(ep), 0.5)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 134
    assert live <= 6.0 * 2 ** 20


def test_f64_mode_propagates():
    net = FewShotSegmenter(TOY, dtype=np.float64)
    assert all(p.data.dtype == np.float64 for p in net.parameters())
    ep = sample_episode(SPLIT, "train", 1, seed=9, image_size=16)
    assert net.forward(ep).dtype == np.float64


# Initial parameters hashed per config and dtype: name, dtype, shape and
# bytes of every parameter in checkpoint order. Initialization must stay
# bit-identical; a change to it changes every trajectory and reported number.
GOLDEN_PARAMETER_DIGESTS = {
    ("default", "float32"):
        "f5022fc024eeaceda82a73de79284a89e44d20e2c3b8af25fac569c544d2a0dc",
    ("default", "float64"):
        "aa62a9a38b9a82d7e15d6bb636732e64984b94e2be4244b87234f7cf23af572c",
    ("no_edges", "float32"):
        "1023f0c17483d154cd40aec7f79678b661b7329af197aaf568a6ccac270861c2",
    ("no_edges", "float64"):
        "c01841282e40713fc4424e1a8e32002dc50f3999d97a3a230ba3d0de8688c214",
    ("no_reasoning", "float32"):
        "2485448077e5595caca88dfa011449e41a324860682fcbfa814ffddf72fa6c3f",
    ("no_reasoning", "float64"):
        "fbc97339fdd533c700be243e1f57840de44fe67b09fc4e69c798fc4d891fe370",
    ("toy_gcn3", "float32"):
        "b6b7b468737fa551a40d0401f788230a2c94f39f0e2466e251d7da5112cb8b43",
    ("toy_gcn3", "float64"):
        "0eef20772687a0c8cea3eb62520b60c23c494dac9a5355f76b908a2b0a7d1701",
}


def test_golden_parameter_digest():
    configs = {"default": Config(),
               "no_edges": Config(edge_fusion=False),
               "no_reasoning": Config(graph_reasoning=False),
               "toy_gcn3": replace(TOY, gcn_depth=3)}
    got = {}
    for name, cfg in configs.items():
        for dtype in (np.float32, np.float64):
            digest = hashlib.sha256()
            for p in FewShotSegmenter(cfg, dtype).parameters():
                digest.update(p.name.encode())
                digest.update(p.data.dtype.str.encode())
                digest.update(repr(p.data.shape).encode())
                digest.update(p.data.tobytes())
            got[name, np.dtype(dtype).name] = digest.hexdigest()
    assert got == GOLDEN_PARAMETER_DIGESTS
