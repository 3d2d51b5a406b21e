"""Acceptance suite.

One test per criterion, run against the shipped defaults. Each test prints a
single PASS line with the measured quantity once its assertions hold, so a
verbose run reads as a checklist:

    gradient suite ........ worst relative error vs tolerance
    oracle suite .......... vectorized ops vs naive loops
    laplacian suite ....... spectrum and identity properties
    structural suite ...... exact algebraic identities
    metric suite .......... hand-derived IoU/mIoU/FB-IoU values
    protocol suite ........ fold hygiene and episode uniformity
    determinism suite ..... byte-identical desk-scale reruns
    training echo ......... desk-scale learning signal, 3 seeds
    five-shot echo ........ K=5 vs K=1 with shared weights

The two echo tests share one set of desk-scale training runs through a
module-scoped fixture; everything else is self-contained.
"""

import time

import numpy as np
import pytest

import protoseg.autodiff as ad
from protoseg.autodiff import Tensor
from protoseg.config import Config
from protoseg.encoder import (apply_mask, from_descriptors, kshot_average,
                              masked_avg_pool, to_descriptors)
from protoseg.episodes import default_classes, make_folds, sample_episode
from protoseg.excitation import FeatureExcitation, edge_similarity
from protoseg.fusion import bce_loss
from protoseg.harness import ablate, evaluate, gradcheck_model, train
from protoseg.metrics import fb_iou, iou, miou
from protoseg.network import FewShotSegmenter
from protoseg.reasoning import GraphReasoning, build_adjacency, normalized_laplacian
from protoseg.seeding import derive_seed

import oracles

DESK = Config()                     # 64x64 images, c=32, r=16, 200 episodes
ECHO_SEEDS = (0, 1, 2)
EVAL_SEED = 1234
EVAL_EPISODES = 60
GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12
LAP_TOL = 1e-6
STRUCT_TOL = 1e-6


def _report(name, detail):
    print("PASS %s: %s" % (name, detail))


# ---------------------------------------------------------------------------
# gradient suite


def test_gradient_suite():
    start = time.monotonic()
    results = gradcheck_model(DESK)   # internally a 16x16, c=8, r=4 episode
    elapsed = time.monotonic() - start
    for module in ("encoder", "reasoning", "excitation", "fusion", "pipeline"):
        assert module in results
    worst = max(results.values())
    assert worst < GRAD_TOL, "worst gradient error %.3e >= %.0e" % (worst, GRAD_TOL)
    assert elapsed < 120.0, "gradient suite took %.1fs (budget 120s)" % elapsed
    _report("gradient suite",
            "worst rel error %.3e < %.0e over %s in %.1fs"
            % (worst, GRAD_TOL, sorted(results), elapsed))


# ---------------------------------------------------------------------------
# oracle suite


def test_oracle_suite():
    start = time.monotonic()
    worst = {}

    def track(name, diff):
        worst[name] = max(worst.get(name, 0.0), float(diff))

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)

        n, k, m = rng.integers(1, 9, size=3)
        a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
        track("matmul", np.abs(ad.matmul(Tensor(a), Tensor(b)).data
                               - oracles.naive_matmul(a, b)).max())

        c_in, c_out, length = rng.integers(1, 6, size=3)
        kern = int(rng.choice([1, 3, 5]))
        x = rng.normal(size=(c_in, length))
        w = rng.normal(size=(c_out, c_in))
        bias = rng.normal(size=c_out)
        track("conv1d", np.abs(ad.conv1d(Tensor(x), Tensor(w), Tensor(bias)).data
                               - oracles.naive_conv1d(x, w, bias)).max())

        h, wd = rng.integers(4, 9, size=2)
        stride = int(rng.choice([1, 2]))
        x2 = rng.normal(size=(c_in, h, wd))
        w2 = rng.normal(size=(c_out, c_in, kern, kern))
        b2 = rng.normal(size=c_out)
        track("conv2d",
              np.abs(ad.conv2d(Tensor(x2), Tensor(w2), Tensor(b2), stride=stride).data
                     - oracles.naive_conv2d(x2, w2, b2, stride=stride)).max())

        c, l = int(rng.integers(1, 6)), int(rng.integers(2, 17))
        p = rng.normal(size=(c, l))
        pooled = ad.avg_pool_global(Tensor(p)).data
        naive = np.array([[sum(row) / l] for row in p])
        track("pooling", np.abs(pooled - naive).max())
        side = int(rng.integers(2, 5))
        xp = rng.normal(size=(c, side * side))
        grid = (rng.random((side, side)) < 0.6).astype(float)
        if grid.sum() == 0:
            grid[0, 0] = 1.0
        track("pooling",
              np.abs(masked_avg_pool(Tensor(xp), grid).data
                     - oracles.naive_masked_pool(xp, grid)).max())

        g = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        sim = 0.5 * (oracles.naive_cosine_rows(g) + oracles.naive_cosine_rows(g).T)
        adj = np.maximum(sim, 0.0) * (1.0 - np.eye(g.shape[0]))
        track("cosine", np.abs(build_adjacency(Tensor(g)).data - adj).max())
        q = rng.normal(size=(c, side * side))
        s = rng.normal(size=(c, side * side))
        track("cosine",
              np.abs(edge_similarity(Tensor(q), Tensor(s)).data
                     - oracles.naive_edge_cosine(q, s)).max())

        probs = rng.uniform(0.01, 0.99, size=(8, 8))
        target = (rng.random((8, 8)) < 0.5).astype(float)
        track("bce", abs(bce_loss(Tensor(probs), target).item()
                         - oracles.naive_bce(probs, target)))

        pm = (rng.random((8, 8)) < 0.4).astype(float)
        gm = (rng.random((8, 8)) < 0.4).astype(float)
        track("iou", abs(iou(pm, gm) - oracles.naive_iou(pm, gm)))

    elapsed = time.monotonic() - start
    bad = {k: v for k, v in worst.items() if v >= ORACLE_TOL}
    assert not bad, "oracle disagreement above %.0e: %s" % (ORACLE_TOL, bad)
    assert elapsed < 60.0, "oracle suite took %.1fs (budget 60s)" % elapsed
    _report("oracle suite",
            "20 instances per op, worst diff %.3e < %.0e in %.1fs"
            % (max(worst.values()), ORACLE_TOL, elapsed))


# ---------------------------------------------------------------------------
# laplacian suite


def test_laplacian_suite():
    worst_sym, lo, hi = 0.0, np.inf, -np.inf
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        r = int(rng.integers(2, 17))
        raw = rng.uniform(0.0, 1.0, size=(r, r))
        a = 0.5 * (raw + raw.T)
        lap = normalized_laplacian(Tensor(a)).data
        worst_sym = max(worst_sym, np.abs(lap - lap.T).max())
        eig = np.linalg.eigvalsh(0.5 * (lap + lap.T))
        lo, hi = min(lo, eig.min()), max(hi, eig.max())
    assert worst_sym <= LAP_TOL
    assert lo >= -1.0 - LAP_TOL and hi <= 1.0 + LAP_TOL

    identity = normalized_laplacian(Tensor(np.zeros((6, 6)))).data
    assert np.array_equal(identity, np.eye(6))
    _report("laplacian suite",
            "100 matrices r<=16: worst asymmetry %.2e, spectrum [%.6f, %.6f], "
            "zero adjacency -> exact identity" % (worst_sym, lo, hi))


# ---------------------------------------------------------------------------
# structural suite


def test_structural_suite():
    rng = np.random.default_rng(7)
    c, r, side = 8, 4, 4

    # reflect residual identity: zero relations leave the query untouched
    branch = GraphReasoning(channels=c, proto_dim=r, gcn_depth=2, grid=side,
                            seed=3, dtype=np.float64)
    x_q = Tensor(rng.normal(size=(c, side * side)))
    query_node = Tensor(rng.normal(size=(r, side * side)))
    out = branch.reflect(Tensor(np.zeros((r, r))), query_node, x_q)
    assert np.array_equal(out.data, x_q.data)

    # zero attention weights halve the input exactly (sigmoid(0) gate)
    exc = FeatureExcitation(channels=c, reduction=4, grid=side,
                            edge_fusion=True, seed=5, dtype=np.float64)
    for p in exc.parameters():
        p.data[...] = 0.0
    probe = Tensor(rng.normal(size=(c, side * side)))
    assert np.array_equal(exc.channel_attention(probe).data, 0.5 * probe.data)
    assert np.array_equal(exc.spatial_attention(probe).data,
                          0.5 * probe.data)

    # identity projection through the edge-fuse conv returns its main input
    eye = np.zeros((c, c + side * side))
    eye[:, :c] = np.eye(c)
    exc.fuse_w.data[...] = eye
    fused = exc.fuse_edges(probe, Tensor(rng.normal(size=(side * side, side * side))))
    assert np.array_equal(fused.data, probe.data)

    # K-shot averaging: K=1 is the identity, identical shots collapse
    f = Tensor(rng.normal(size=(c, side, side)))
    assert np.array_equal(kshot_average([f]).data, f.data)
    assert np.allclose(kshot_average([f, f, f]).data, f.data, atol=STRUCT_TOL)

    # masking is idempotent
    grid = (rng.random((side, side)) < 0.5).astype(float)
    once = apply_mask(f, grid)
    twice = apply_mask(once, grid)
    assert np.array_equal(twice.data, once.data)

    # descriptor flattening round-trips bit-exact
    dset = to_descriptors(f)
    back = from_descriptors(dset, side)
    assert np.array_equal(back.data, f.data)
    _report("structural suite",
            "reflect identity, attention halving, fuse projection, k-shot "
            "identities, mask idempotence, descriptor round-trip all exact")


# ---------------------------------------------------------------------------
# metric suite


def test_metric_suite():
    rng = np.random.default_rng(11)
    mask = (rng.random((6, 6)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    assert iou(mask, mask) == 1.0
    a = np.zeros((4, 4)); a[0, :] = 1.0
    b = np.zeros((4, 4)); b[3, :] = 1.0
    assert iou(a, b) == 0.0

    # 4x4 grid, 8 predicted, 8 true, 4 overlapping -> 4/12
    pred = np.zeros((4, 4)); pred[:2, :] = 1.0
    gt = np.zeros((4, 4)); gt[1:3, :] = 1.0
    assert iou(pred, gt) == pytest.approx(4.0 / 12.0, abs=0)

    assert miou([(1, 1.0), (2, 1.0)], (1, 2)) == 1.0
    assert miou([(1, 0.1), (1, 0.3), (2, 0.6)], (1, 2)) == pytest.approx(0.4)

    assert fb_iou(pred, gt) == pytest.approx(
        (4.0 / 12.0 + 4.0 / 12.0) / 2.0)
    half = np.zeros((4, 4)); half[:2, :] = 1.0
    assert fb_iou(half, 1.0 - half) == 0.0
    pm = (rng.random((8, 8)) < 0.4).astype(float)
    gm = (rng.random((8, 8)) < 0.4).astype(float)
    expected = 0.5 * (oracles.naive_iou(pm, gm)
                      + oracles.naive_iou(1.0 - pm, 1.0 - gm))
    assert fb_iou(pm, gm) == pytest.approx(expected, abs=0)

    # nested mean weights classes equally; pooled mean would not
    pairs = [(1, 1.0), (1, 0.0), (2, 0.0)]
    nested = miou(pairs, (1, 2))
    pooled = float(np.mean([s for _, s in pairs]))
    assert nested == pytest.approx(0.25)
    assert pooled == pytest.approx(1.0 / 3.0)
    assert abs(nested - pooled) > 0.05
    _report("metric suite",
            "hand values exact; nested mIoU %.4f vs pooled %.4f on the "
            "unbalanced case" % (nested, pooled))


# ---------------------------------------------------------------------------
# protocol suite


def test_protocol_suite():
    ids = [cls.class_id for cls in default_classes()]
    for fold in range(3):
        split = make_folds(ids, seed=DESK.seed, test_fold=fold)
        train_ids, test_ids = set(split.train_class_ids), set(split.test_class_ids)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(ids)
        for i in range(40):
            ep = sample_episode(split, "test", 1,
                                derive_seed(99, "protocol", fold, i), 16)
            assert ep.class_id in test_ids and ep.class_id not in train_ids

    split = make_folds(ids, seed=DESK.seed, test_fold=0)
    counts = {cid: 0 for cid in split.test_class_ids}
    n = 1000
    for i in range(n):
        ep = sample_episode(split, "test", 1, derive_seed(7, "uniformity", i), 16)
        counts[ep.class_id] += 1
    p = 1.0 / len(counts)
    sigma = (n * p * (1 - p)) ** 0.5
    deviation = max(abs(c - n * p) for c in counts.values())
    assert deviation <= 3.0 * sigma, (
        "class counts %s deviate %.1f > 3 sigma (%.1f)"
        % (counts, deviation, 3.0 * sigma))
    _report("protocol suite",
            "3 rotations disjoint, 120 test episodes stayed in held fold, "
            "1000-episode counts %s within 3 sigma (max dev %.1f <= %.1f)"
            % (sorted(counts.values()), deviation, 3.0 * sigma))


# ---------------------------------------------------------------------------
# determinism suite


def test_determinism_suite(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        result = train(DESK, out_dir=out)
        report = evaluate(result.network, episodes=12, seed=EVAL_SEED)
        runs.append((result, report.to_text()))
    (run_a, text_a), (run_b, text_b) = runs
    assert len(run_a.checkpoints) == DESK.epochs
    for pa, pb in zip(run_a.checkpoints, run_b.checkpoints):
        assert pa.read_bytes() == pb.read_bytes(), "checkpoint %s differs" % pa.name
    assert text_a == text_b

    # round trip: load the last checkpoint, re-save, compare bytes
    from protoseg.harness import load_network, save_checkpoint
    last = run_a.checkpoints[-1]
    net, header = load_network(last)
    resaved = save_checkpoint(tmp_path / "resaved.ckpt", net, header["epoch"],
                              header["rng"]["train_episodes_consumed"])
    assert resaved.read_bytes() == last.read_bytes()
    _report("determinism suite",
            "two desk-scale runs byte-identical across %d checkpoints and "
            "reports; round trip bit-exact (%d bytes)"
            % (DESK.epochs, len(last.read_bytes())))


# ---------------------------------------------------------------------------
# training and five-shot echoes (shared desk-scale runs)


@pytest.fixture(scope="module")
def echo_runs():
    start = time.monotonic()
    runs = {}
    for seed in ECHO_SEEDS:
        cfg = DESK.with_overrides(seed=seed)
        # The full-model row's config equals cfg, so its training is the
        # one train(cfg) would run, byte for byte.
        trained = {}
        rows = ablate(cfg, eval_episodes=EVAL_EPISODES,
                      progress=lambda label, row, result:
                      trained.setdefault(label, result))
        result = trained["reasoning+excitation+edges"]
        untrained = evaluate(FewShotSegmenter(cfg), k=1,
                             episodes=EVAL_EPISODES, seed=EVAL_SEED)
        trained_k1 = evaluate(result.network, k=1,
                              episodes=EVAL_EPISODES, seed=EVAL_SEED)
        trained_k5 = evaluate(result.network, k=5,
                              episodes=EVAL_EPISODES, seed=EVAL_SEED)
        runs[seed] = dict(losses=result.losses, untrained=untrained.miou,
                          k1=trained_k1.miou, k5=trained_k5.miou, rows=rows)
    runs["elapsed"] = time.monotonic() - start
    return runs


def test_training_echo(echo_runs):
    window = DESK.episodes_per_epoch
    full, base = [], []
    for seed in ECHO_SEEDS:
        run = echo_runs[seed]
        losses = run["losses"]
        assert len(losses) == DESK.epochs * DESK.episodes_per_epoch == 200
        first = float(np.mean(losses[:window]))
        last = float(np.mean(losses[-window:]))
        assert last < first, (
            "seed %d: final-window loss %.4f not below initial %.4f"
            % (seed, last, first))
        assert run["k1"] > run["untrained"], (
            "seed %d: trained mIoU %.4f not above untrained %.4f"
            % (seed, run["k1"], run["untrained"]))
        rows = {row["row"]: row for row in run["rows"]}
        assert len(run["rows"]) == 6
        full.append(rows["reasoning+excitation+edges"]["miou"])
        base.append(rows["baseline"]["miou"])
    full_mean, base_mean = float(np.mean(full)), float(np.mean(base))
    assert full_mean >= base_mean
    elapsed = echo_runs["elapsed"]
    assert elapsed < 1800.0, "echo runs took %.0fs (budget 1800s)" % elapsed
    _report("training echo",
            "3 seeds: loss windows %s; trained vs untrained mIoU %s; "
            "ablation full-model mean %.4f >= baseline mean %.4f; %.0fs"
            % ([("%.3f->%.3f" % (float(np.mean(echo_runs[s]["losses"][:window])),
                                 float(np.mean(echo_runs[s]["losses"][-window:]))))
                for s in ECHO_SEEDS],
               [("%.4f>%.4f" % (echo_runs[s]["k1"], echo_runs[s]["untrained"]))
                for s in ECHO_SEEDS],
               full_mean, base_mean, elapsed))


def test_five_shot_echo(echo_runs):
    wins = sum(echo_runs[s]["k5"] >= echo_runs[s]["k1"] for s in ECHO_SEEDS)
    detail = ", ".join("seed %d: K5 %.4f vs K1 %.4f" %
                       (s, echo_runs[s]["k5"], echo_runs[s]["k1"])
                       for s in ECHO_SEEDS)
    print("five-shot report: %s" % detail)
    assert wins >= 2, "K=5 beat K=1 in only %d of 3 seeds (%s)" % (wins, detail)
    _report("five-shot echo", "%d of 3 seeds with K=5 >= K=1 (%s)" % (wins, detail))
